/**
 * @file
 * Extension beyond the paper: multi-node scaling. The paper confined
 * itself to one machine (and dropped DeepBench's MPI all-reduce);
 * this bench carries the Section IV-D scaling question across pods
 * of DSS 8440 hosts, one host per rack, and across spine health —
 * showing which workloads keep scaling past a chassis and how much
 * the network tier matters.
 */

#include <cstdio>

#include "models/zoo.h"
#include "sys/machines.h"
#include "train/trainer.h"

namespace {

using namespace mlps;

/** A workload at the system's full width. */
train::TrainResult
runFullWidth(const sys::SystemConfig &system, const wl::WorkloadSpec &spec)
{
    train::RunOptions opts;
    opts.num_gpus = system.num_gpus;
    return train::Trainer(system).run(spec, opts);
}

/** DSS 8440 hosts for an n-node run: the box itself at n == 1, else
 *  an n x 1 pod, whose spine uplinks are each host's only path off
 *  the box. */
sys::SystemConfig
dssNodes(int nodes)
{
    return nodes == 1 ? sys::dss8440()
                      : sys::withPod(sys::dss8440(), nodes, 1);
}

} // namespace

int
main()
{
    const std::vector<std::string> workloads = {
        "MLPf_Res50_TF", "MLPf_XFMR_Py", "MLPf_NCF_Py",
    };
    const int node_counts[] = {1, 2, 4, 8};

    std::printf("Multi-node scaling on pod(DSS 8440,Nx1) "
                "(8 GPUs/node, 100 GbE)\n\n");
    std::printf("%-15s %10s", "workload", "1 node");
    for (int n : {2, 4, 8})
        std::printf(" %9d-node", n);
    std::printf("   (speedup over 1 node)\n");

    for (const auto &name : workloads) {
        auto spec = *models::findWorkload(name);
        std::printf("%-15s", name.c_str());
        double base = 0.0;
        std::string speedups;
        for (int n : node_counts) {
            auto r = runFullWidth(dssNodes(n), spec);
            if (n == 1)
                base = r.total_seconds;
            std::printf(" %8.1f min", r.totalMinutes());
            if (n > 1) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), " %.2fx",
                              base / r.total_seconds);
                speedups += buf;
            }
        }
        std::printf("  %s\n", speedups.c_str());
    }

    std::printf("\nFabric sensitivity (4 nodes, Transformer):\n");
    auto spec = *models::findWorkload("MLPf_XFMR_Py");
    sys::SystemConfig healthy = dssNodes(4);
    for (double scale : {0.25, 1.0}) {
        sys::SystemConfig pod =
            scale < 1.0 ? sys::withSpineDegraded(healthy, scale)
                        : healthy;
        auto r = runFullWidth(pod, spec);
        std::printf("  spine x%-4.2f %8.1f min  (all-reduce "
                    "%6.1f ms/iter)\n", scale, r.totalMinutes(),
                    r.iter.comm_s * 1e3);
    }

    std::printf("\nTakeaway: the scaling diversity of Table IV "
                "amplifies across nodes — NCF loses ground past one "
                "chassis while ResNet-50 keeps scaling on a healthy "
                "fabric.\n");
    return 0;
}
