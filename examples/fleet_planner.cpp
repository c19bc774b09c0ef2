/**
 * @file
 * Fleet planner: a capacity-planning exercise combining the library's
 * extensions. Given a monthly training demand (a job mix with
 * submission rates), compare fleet designs — few big NVLink boxes vs
 * many PCIe boxes vs a multi-node pod — on three axes: queue
 * latency (online scheduling), energy, and total GPU-hours.
 */

#include <cstdio>
#include <vector>

#include "core/suite.h"
#include "sched/online.h"
#include "sys/machines.h"
#include "train/energy.h"

namespace {

using namespace mlps;

/** Measure scaling profiles of the demand mix on one machine. */
std::vector<sched::JobSpec>
profiles(const sys::SystemConfig &machine,
         const std::vector<std::string> &mix)
{
    core::Suite suite(machine);
    std::vector<sched::JobSpec> jobs;
    for (const auto &name : mix) {
        sched::JobSpec j;
        j.name = name;
        for (int w = 1; w <= machine.num_gpus; w *= 2) {
            train::RunOptions opts;
            opts.num_gpus = w;
            j.seconds_at_width[w] = suite.run(name, opts).total_seconds;
        }
        jobs.push_back(std::move(j));
    }
    return jobs;
}

void
evaluateMachine(const sys::SystemConfig &machine,
                const std::vector<std::string> &mix)
{
    auto catalogue = profiles(machine, mix);
    auto stream = sched::poissonJobStream(catalogue, 24, 3600.0, 42);
    auto metrics = sched::simulateOnline(stream, machine.num_gpus,
                                         sched::OnlinePolicy::Backfill);

    // Energy of the mix, one run each at the machine's full width.
    core::Suite suite(machine);
    double kwh = 0.0;
    for (const auto &name : mix) {
        train::RunOptions opts;
        opts.num_gpus = machine.num_gpus;
        auto r = suite.run(name, opts);
        kwh += train::estimateEnergy(machine, r).totalKwh();
    }

    std::printf("%-11s  %2d GPUs  queue avg wait %6.2f h  "
                "util %5.1f%%  mix energy %6.1f kWh\n",
                machine.name.c_str(), machine.num_gpus,
                metrics.avg_wait_s / 3600.0,
                100.0 * metrics.utilization, kwh);
}

} // namespace

int
main()
{
    const std::vector<std::string> mix = {
        "MLPf_Res50_MX", "MLPf_SSD_Py", "MLPf_XFMR_Py",
        "MLPf_GNMT_Py",  "MLPf_NCF_Py",
    };

    std::printf("Demand: 24 jobs/day drawn from a 5-workload mix "
                "(Poisson, backfill scheduling)\n\n");
    std::printf("-- single-box designs --\n");
    evaluateMachine(sys::dss8440(), mix);
    evaluateMachine(sys::c4140M(), mix);
    evaluateMachine(sys::c4140B(), mix);
    evaluateMachine(sys::t640(), mix);

    std::printf("\n-- scale-out design: 4x DSS 8440 on a 100 GbE pod, "
                "big jobs spanning nodes --\n");
    sys::SystemConfig pod = sys::withPod(sys::dss8440(), 4, 1);
    core::Suite spanning(pod);
    for (const auto &name : mix) {
        train::RunOptions opts;
        opts.num_gpus = 8;
        auto one = spanning.run(name, opts);
        opts.num_gpus = pod.num_gpus;
        auto four = spanning.run(name, opts);
        std::printf("  %-15s 1 node %8.1f min -> 4 nodes %8.1f min "
                    "(%.2fx)\n", name.c_str(), one.totalMinutes(),
                    four.totalMinutes(),
                    one.total_seconds / four.total_seconds);
    }

    std::printf("\nReading: the NVLink box clears communication-bound "
                "jobs fastest; the 8-GPU box clears the queue; poor "
                "scalers should never span nodes.\n");
    return 0;
}
