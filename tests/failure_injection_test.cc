/**
 * @file
 * Failure/degradation injection: what happens to training when parts
 * of the machine get worse — NVLink loss, narrow PCIe, a weak host,
 * slower HBM, a slow NIC. Each scenario asserts the direction and
 * rough magnitude of the impact, guarding the model's causal
 * structure (the thing the paper's conclusions rest on).
 */

#include <gtest/gtest.h>

#include "models/zoo.h"
#include "net/link.h"
#include "sys/machines.h"
#include "train/trainer.h"

namespace {

using namespace mlps;

/** C4140 (M)-style box with configurable wiring and parts. */
sys::SystemConfig
buildBox(bool nvlink, int pcie_lanes, int cores_per_socket,
         double hbm_gbps)
{
    sys::SystemConfig s;
    s.name = "custom-box";
    s.cpu = hw::xeonGold6148();
    s.cpu.cores = cores_per_socket;
    s.num_cpus = 2;
    s.gpu = nvlink ? hw::teslaV100Sxm2_16() : hw::teslaV100Pcie_16();
    s.gpu.hbm_gbps = hbm_gbps;
    s.num_gpus = 4;
    s.cpu_nodes.push_back(s.topo.addCpu("CPU0"));
    s.cpu_nodes.push_back(s.topo.addCpu("CPU1"));
    s.topo.connect(s.cpu_nodes[0], s.cpu_nodes[1], net::upi());
    for (int g = 0; g < 4; ++g)
        s.gpu_nodes.push_back(s.topo.addGpu("GPU" + std::to_string(g)));
    if (nvlink) {
        for (int i = 0; i < 4; ++i)
            for (int j = i + 1; j < 4; ++j)
                s.topo.connect(s.gpu_nodes[i], s.gpu_nodes[j],
                               net::nvlink(2));
    }
    for (int g = 0; g < 4; ++g)
        s.topo.connect(s.gpu_nodes[g], s.cpu_nodes[g / 2],
                       net::pcie3(pcie_lanes));
    s.validate();
    return s;
}

double
trainMinutes(const sys::SystemConfig &box, const char *workload,
             int gpus = 4)
{
    train::Trainer trainer(box);
    auto spec = *models::findWorkload(workload);
    train::RunOptions opts;
    opts.num_gpus = gpus;
    return trainer.run(spec, opts).totalMinutes();
}

TEST(FailureInjection, NvlinkLossDowngradesFabricAndSlowsTraining)
{
    sys::SystemConfig healthy = buildBox(true, 16, 20, 900.0);
    sys::SystemConfig degraded = buildBox(false, 16, 20, 900.0);
    EXPECT_EQ(healthy.fabricFor(4), net::CollectiveFabric::NvLink);
    EXPECT_EQ(degraded.fabricFor(4),
              net::CollectiveFabric::HostStaged);
    // The communication-heavy Transformer suffers hard...
    double h = trainMinutes(healthy, "MLPf_XFMR_Py");
    double d = trainMinutes(degraded, "MLPf_XFMR_Py");
    EXPECT_GT(d, 1.3 * h);
    // ...while compute-bound SSD barely moves.
    double hs = trainMinutes(healthy, "MLPf_SSD_Py");
    double ds = trainMinutes(degraded, "MLPf_SSD_Py");
    EXPECT_LT(ds, 1.2 * hs);
}

TEST(FailureInjection, NarrowPcieThrottlesStagedCollectives)
{
    // Without NVLink the gradient exchange rides PCIe: narrowing the
    // links from x16 to x4 slows communication-bound training.
    sys::SystemConfig x16 = buildBox(false, 16, 20, 900.0);
    sys::SystemConfig x4 = buildBox(false, 4, 20, 900.0);
    double fast = trainMinutes(x16, "MLPf_XFMR_Py");
    double slow = trainMinutes(x4, "MLPf_XFMR_Py");
    EXPECT_GT(slow, 1.3 * fast);
    // Single-GPU runs barely notice (H2D input volumes are small
    // relative to compute — the paper's Section V-D point that x8
    // suffices for some uses).
    double fast_1 = trainMinutes(x16, "MLPf_XFMR_Py", 1);
    double slow_1 = trainMinutes(x4, "MLPf_XFMR_Py", 1);
    EXPECT_LT(slow_1, 1.05 * fast_1);
}

TEST(FailureInjection, WeakHostStallsImageClassification)
{
    sys::SystemConfig strong = buildBox(true, 16, 20, 900.0);
    sys::SystemConfig weak = buildBox(true, 16, 4, 900.0);
    // Res50's JPEG pipeline needs host cores (Section V-A).
    double fast = trainMinutes(strong, "MLPf_Res50_TF");
    double slow = trainMinutes(weak, "MLPf_Res50_TF");
    EXPECT_GT(slow, 1.5 * fast);
    // NCF's host work is negligible.
    double fast_n = trainMinutes(strong, "MLPf_NCF_Py");
    double slow_n = trainMinutes(weak, "MLPf_NCF_Py");
    EXPECT_LT(slow_n, 1.1 * fast_n);
}

TEST(FailureInjection, SlowHbmHurtsMemoryBoundWorkloads)
{
    sys::SystemConfig fast_mem = buildBox(true, 16, 20, 900.0);
    sys::SystemConfig slow_mem = buildBox(true, 16, 20, 450.0);
    // NCF's embedding gathers are pure bandwidth: halving HBM nearly
    // doubles its compute time.
    double fast = trainMinutes(fast_mem, "MLPf_NCF_Py");
    double slow = trainMinutes(slow_mem, "MLPf_NCF_Py");
    EXPECT_GT(slow, 1.25 * fast);
    EXPECT_LT(slow, 2.2 * fast);
    // Tensor-core-bound workloads under mixed precision are hit
    // less than proportionally.
    double fast_r = trainMinutes(fast_mem, "MLPf_Res50_MX");
    double slow_r = trainMinutes(slow_mem, "MLPf_Res50_MX");
    EXPECT_GT(slow_r, fast_r);
    EXPECT_LT(slow_r / fast_r, slow / fast);
}

TEST(FailureInjection, DegradedNicCripplesMultiNodeScaling)
{
    // Four DSS 8440 hosts, one per rack: the spine uplinks are each
    // host's only way off the box. 1/16 of 100 GbE is a 25 GbE link
    // negotiated down to a quarter.
    sys::SystemConfig good = sys::withPod(sys::dss8440(), 4, 1);
    sys::SystemConfig bad = sys::withSpineDegraded(good, 0.0625);
    double t_bad = trainMinutes(bad, "MLPf_XFMR_Py", 32);
    double t_good = trainMinutes(good, "MLPf_XFMR_Py", 32);
    EXPECT_GT(t_bad, 2.0 * t_good);
    // A 4-node run on the broken fabric can be slower than a single
    // node: scaling out becomes counterproductive.
    double t_single = trainMinutes(sys::dss8440(), "MLPf_XFMR_Py", 8);
    EXPECT_GT(t_bad, 0.5 * t_single);
}

TEST(FailureInjection, ImpactRanksByCommunicationIntensity)
{
    // Under NVLink loss, the slowdown ordering must follow Figure 5:
    // Transformer > Mask R-CNN > ResNet-50.
    sys::SystemConfig healthy = buildBox(true, 16, 20, 900.0);
    sys::SystemConfig degraded = buildBox(false, 16, 20, 900.0);
    auto slowdown = [&](const char *w) {
        return trainMinutes(degraded, w) / trainMinutes(healthy, w);
    };
    double xfmr = slowdown("MLPf_XFMR_Py");
    double mrcnn = slowdown("MLPf_MRCNN_Py");
    double res50 = slowdown("MLPf_Res50_MX");
    EXPECT_GT(xfmr, mrcnn);
    EXPECT_GT(mrcnn, res50);
}

} // namespace
