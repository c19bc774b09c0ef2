/**
 * @file
 * Tests for the Table III machine configurations: structural
 * invariants, fabric classes, and the topology properties that drive
 * the paper's Figure 5 (P2P legality, NVLink presence).
 */

#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "net/allreduce.h"
#include "sim/logger.h"
#include "sys/machines.h"
#include "train/trainer.h"

namespace {

using namespace mlps;
using mlps::sim::FatalError;

TEST(Machines, AllValidate)
{
    for (const auto &s : sys::allMachines()) {
        SCOPED_TRACE(s.name);
        EXPECT_NO_THROW(s.validate());
        EXPECT_EQ(static_cast<int>(s.gpu_nodes.size()), s.num_gpus);
        EXPECT_EQ(static_cast<int>(s.cpu_nodes.size()), s.num_cpus);
    }
}

TEST(Machines, T640Shape)
{
    sys::SystemConfig s = sys::t640();
    EXPECT_EQ(s.num_cpus, 2);
    EXPECT_EQ(s.num_gpus, 4);
    EXPECT_EQ(s.gpu.form, hw::FormFactor::PCIe);
    EXPECT_DOUBLE_EQ(s.gpu.hbm_gib, 32.0);
    // No P2P anywhere: GPUs hang off CPU root complexes.
    EXPECT_FALSE(s.topo.canPeerToPeer(s.gpu_nodes[0], s.gpu_nodes[1]));
    EXPECT_FALSE(s.topo.canPeerToPeer(s.gpu_nodes[0], s.gpu_nodes[3]));
    EXPECT_EQ(s.fabricFor(4), net::CollectiveFabric::HostStaged);
    EXPECT_EQ(s.fabricFor(2), net::CollectiveFabric::HostStaged);
}

TEST(Machines, C4140BShape)
{
    sys::SystemConfig s = sys::c4140B();
    EXPECT_EQ(s.switch_nodes.size(), 1u);
    // Single root complex behind the switch: P2P among all 4.
    for (int i = 0; i < 4; ++i)
        for (int j = i + 1; j < 4; ++j)
            EXPECT_TRUE(s.topo.canPeerToPeer(s.gpu_nodes[i],
                                             s.gpu_nodes[j]));
    EXPECT_EQ(s.fabricFor(4), net::CollectiveFabric::PcieP2p);
    EXPECT_EQ(s.gpu.nvlink_lanes, 0);
}

TEST(Machines, C4140KShape)
{
    sys::SystemConfig s = sys::c4140K();
    EXPECT_EQ(s.gpu.form, hw::FormFactor::SXM2);
    EXPECT_EQ(s.switch_nodes.size(), 1u); // host aggregation switch
    EXPECT_EQ(s.fabricFor(2), net::CollectiveFabric::NvLink);
    EXPECT_EQ(s.fabricFor(4), net::CollectiveFabric::NvLink);
    for (int i = 0; i < 4; ++i)
        for (int j = i + 1; j < 4; ++j)
            EXPECT_TRUE(s.topo.nvlinkConnected(s.gpu_nodes[i],
                                               s.gpu_nodes[j]));
}

TEST(Machines, C4140MShape)
{
    sys::SystemConfig s = sys::c4140M();
    EXPECT_EQ(s.switch_nodes.size(), 0u); // direct CPU PCIe
    EXPECT_EQ(s.fabricFor(4), net::CollectiveFabric::NvLink);
    // 24 DIMMs across 2 sockets.
    EXPECT_DOUBLE_EQ(s.dramCapacityGib(), 384.0);
}

TEST(Machines, R940xaShape)
{
    sys::SystemConfig s = sys::r940xa();
    EXPECT_EQ(s.num_cpus, 4);
    EXPECT_EQ(s.num_gpus, 4);
    EXPECT_FALSE(s.topo.canPeerToPeer(s.gpu_nodes[0], s.gpu_nodes[1]));
    EXPECT_EQ(s.fabricFor(4), net::CollectiveFabric::HostStaged);
}

TEST(Machines, Dss8440Shape)
{
    sys::SystemConfig s = sys::dss8440();
    EXPECT_EQ(s.num_gpus, 8);
    EXPECT_EQ(s.switch_nodes.size(), 2u);
    EXPECT_EQ(s.cpu.name, "Intel Xeon Gold 6142");
    EXPECT_DOUBLE_EQ(s.cpu.dram.dimm_gib, 32.0);
    // Linked switches: P2P across the full complex.
    EXPECT_TRUE(s.topo.canPeerToPeer(s.gpu_nodes[0], s.gpu_nodes[7]));
    EXPECT_EQ(s.fabricFor(8), net::CollectiveFabric::PcieP2p);
    EXPECT_EQ(s.fabricFor(4), net::CollectiveFabric::PcieP2p);
}

TEST(Machines, Dgx1HybridCubeMesh)
{
    sys::SystemConfig s = sys::dgx1();
    EXPECT_EQ(s.num_gpus, 8);
    // The whole complex is NVLink-connected (possibly multi-hop).
    EXPECT_EQ(s.fabricFor(8), net::CollectiveFabric::NvLink);
    EXPECT_EQ(s.fabricFor(4), net::CollectiveFabric::NvLink);
    // Each GPU spends exactly its six NVLink bricks.
    for (net::NodeId g : s.gpu_nodes) {
        int bricks = 0;
        for (int e = 0; e < s.topo.edgeCount(); ++e) {
            auto [a, b] = s.topo.endpoints(e);
            if ((a == g || b == g) &&
                s.topo.link(e).kind == net::LinkKind::NvLink)
                bricks += static_cast<int>(s.topo.link(e).gbps / 25.0);
        }
        EXPECT_EQ(bricks, 6) << "GPU node " << g;
    }
    // Cross-quad neighbours are not directly linked: multi-hop route.
    auto path = s.topo.route(s.gpu_nodes[3], s.gpu_nodes[4]);
    ASSERT_TRUE(path);
    EXPECT_GE(path->hops(), 2);
}

TEST(Machines, Dgx2NvSwitchAllToAll)
{
    sys::SystemConfig s = sys::dgx2();
    EXPECT_EQ(s.num_gpus, 16);
    EXPECT_EQ(s.fabricFor(16), net::CollectiveFabric::NvLink);
    // Every pair is exactly two NVLink hops via the switch.
    auto path = s.topo.route(s.gpu_nodes[0], s.gpu_nodes[15]);
    ASSERT_TRUE(path);
    EXPECT_EQ(path->hops(), 2);
    EXPECT_EQ(s.topo.link(path->edges[0]).kind,
              net::LinkKind::NvLink);
}

TEST(Machines, FabricQualityOrderingAcrossSubmissionMachines)
{
    // All-reduce cost at 8 GPUs: DGX-2 < DGX-1 < DSS 8440.
    double bytes = 430e6;
    auto t = [&](const sys::SystemConfig &m) {
        return net::ringAllReduce(m.topo, m.gpuSubset(8), bytes)
            .seconds;
    };
    double dss = t(sys::dss8440());
    double d1 = t(sys::dgx1());
    double d2 = t(sys::dgx2());
    EXPECT_LT(d2, d1);
    EXPECT_LT(d1, dss);
}

TEST(Machines, ReferenceMachine)
{
    sys::SystemConfig s = sys::mlperfReference();
    EXPECT_EQ(s.num_gpus, 1);
    EXPECT_FALSE(s.gpu.hasTensorCores());
    EXPECT_EQ(s.gpu.name, "Tesla P100-PCIE-16GB");
}

TEST(Machines, Figure5SystemsAreTheFive4GpuPlatforms)
{
    auto systems = sys::figure5Systems();
    ASSERT_EQ(systems.size(), 5u);
    for (const auto &s : systems)
        EXPECT_EQ(s.num_gpus, 4);
    // NVLink platforms listed first, as plotted in the paper.
    EXPECT_EQ(systems[0].fabricFor(4), net::CollectiveFabric::NvLink);
    EXPECT_EQ(systems[1].fabricFor(4), net::CollectiveFabric::NvLink);
    EXPECT_EQ(systems[4].fabricFor(4),
              net::CollectiveFabric::HostStaged);
}

TEST(SystemConfig, DerivedQuantities)
{
    sys::SystemConfig s = sys::t640();
    EXPECT_DOUBLE_EQ(s.dramCapacityGib(), 192.0);
    EXPECT_NEAR(s.dramBandwidthGbps(), 2 * 6 * 21.3, 1e-9);
    EXPECT_DOUBLE_EQ(s.hostCoreGhz(), 2 * 20 * 2.4);
    EXPECT_DOUBLE_EQ(s.hbmCapacityGib(), 128.0);
}

TEST(SystemConfig, GpuSubset)
{
    sys::SystemConfig s = sys::dss8440();
    auto two = s.gpuSubset(2);
    EXPECT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0], s.gpu_nodes[0]);
    EXPECT_THROW(s.gpuSubset(0), FatalError);
    EXPECT_THROW(s.gpuSubset(9), FatalError);
}

TEST(SystemConfig, DescribeMentionsParts)
{
    sys::SystemConfig s = sys::c4140K();
    std::string d = s.describe();
    EXPECT_NE(d.find("C4140 (K)"), std::string::npos);
    EXPECT_NE(d.find("Tesla V100-SXM2-16GB"), std::string::npos);
    EXPECT_NE(d.find("NVLink"), std::string::npos);
}

/** Every machine: each GPU reaches a host CPU, and subsets of every
 *  power-of-two size classify into a fabric without faulting. */
class MachineSweepTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(MachineSweepTest, FabricsResolve)
{
    auto machines = sys::allMachines();
    const auto &s = machines[GetParam()];
    SCOPED_TRACE(s.name);
    for (int n = 1; n <= s.num_gpus; n *= 2)
        EXPECT_NO_THROW(s.fabricFor(n));
    for (net::NodeId g : s.gpu_nodes)
        EXPECT_TRUE(s.topo.hostCpu(g).has_value());
}

INSTANTIATE_TEST_SUITE_P(AllMachines, MachineSweepTest,
                         ::testing::Range(0, 6));

// ------------------------------------------------- degraded fabrics

TEST(DegradedLinks, KindTokenDegradesEveryMatchingEdge)
{
    sys::SystemConfig s = sys::c4140M();
    sys::applyDegradedLinks(s, "nvlink:0.5");
    int scaled = 0;
    for (int e = 0; e < s.topo.edgeCount(); ++e) {
        if (s.topo.link(e).kind == net::LinkKind::NvLink) {
            EXPECT_DOUBLE_EQ(s.topo.linkBandwidthScale(e), 0.5);
            ++scaled;
        } else {
            EXPECT_DOUBLE_EQ(s.topo.linkBandwidthScale(e), 1.0);
        }
    }
    EXPECT_GT(scaled, 0);
}

TEST(DegradedLinks, EndpointPairTakesOneLinkDown)
{
    sys::SystemConfig s = sys::c4140M();
    sys::applyDegradedLinks(s, "GPU0-GPU1:down");
    int down = 0;
    for (int e = 0; e < s.topo.edgeCount(); ++e)
        down += s.topo.linkDown(e) ? 1 : 0;
    EXPECT_GT(down, 0);
    // The mesh keeps the pair reachable without the direct edge.
    auto path = s.topo.route(s.gpu_nodes[0], s.gpu_nodes[1]);
    ASSERT_TRUE(path);
    for (int e : path->edges)
        EXPECT_FALSE(s.topo.linkDown(e));
}

TEST(DegradedLinks, MultipleItemsCompose)
{
    sys::SystemConfig s = sys::c4140M();
    sys::applyDegradedLinks(s, "GPU0-GPU1:down,pcie:0.25");
    bool any_down = false;
    for (int e = 0; e < s.topo.edgeCount(); ++e) {
        if (s.topo.link(e).kind == net::LinkKind::Pcie3) {
            EXPECT_DOUBLE_EQ(s.topo.linkBandwidthScale(e), 0.25);
        }
        any_down = any_down || s.topo.linkDown(e);
    }
    EXPECT_TRUE(any_down);
}

TEST(DegradedLinks, UnknownLinkTypeSuggestsNearMiss)
{
    sys::SystemConfig s = sys::c4140M();
    try {
        sys::applyDegradedLinks(s, "nvlnk:0.5");
        FAIL() << "accepted a misspelled link type";
    } catch (const FatalError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("did you mean"), std::string::npos) << what;
        EXPECT_NE(what.find("nvlink"), std::string::npos) << what;
    }
}

TEST(DegradedLinks, UnknownNodeSuggestsNearMiss)
{
    sys::SystemConfig s = sys::c4140M();
    try {
        sys::applyDegradedLinks(s, "GPU0-GPP1:down");
        FAIL() << "accepted a misspelled node name";
    } catch (const FatalError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("did you mean"), std::string::npos) << what;
        EXPECT_NE(what.find("GPU1"), std::string::npos) << what;
    }
}

TEST(DegradedLinks, MalformedSpecsAreFatal)
{
    sys::SystemConfig s = sys::c4140M();
    EXPECT_THROW(sys::applyDegradedLinks(s, "nvlink"), FatalError);
    EXPECT_THROW(sys::applyDegradedLinks(s, "nvlink:"), FatalError);
    EXPECT_THROW(sys::applyDegradedLinks(s, "nvlink:fast"), FatalError);
    EXPECT_THROW(sys::applyDegradedLinks(s, "nvlink:0"), FatalError);
    EXPECT_THROW(sys::applyDegradedLinks(s, "nvlink:1.5"), FatalError);
    EXPECT_THROW(sys::applyDegradedLinks(s, "GPU0-CPU1:down"),
                 FatalError); // no such link on the C4140-M
}

TEST(DegradedLinks, SpecThatStrandsANodeIsRejected)
{
    // Downing every PCIe link cuts the GPUs off from the host; the
    // loader reports a config error instead of crashing downstream.
    sys::SystemConfig s = sys::t640();
    EXPECT_THROW(sys::applyDegradedLinks(s, "pcie:down"), FatalError);
}

TEST(DegradedLinks, PrefabDegradedMachines)
{
    sys::SystemConfig down = sys::withNvlinkEdgeDown(sys::c4140M(), 0);
    EXPECT_TRUE(down.topo.anyLinkDown());
    EXPECT_NE(down.name.find("nvlink"), std::string::npos);
    EXPECT_NO_THROW(down.validate());

    sys::SystemConfig slow =
        sys::withPcieDowntrained(sys::t640(), 0.25);
    EXPECT_TRUE(slow.topo.degraded());
    EXPECT_FALSE(slow.topo.anyLinkDown());
    EXPECT_NO_THROW(slow.validate());

    EXPECT_THROW(sys::withNvlinkEdgeDown(sys::t640(), 0), FatalError);
    EXPECT_THROW(sys::withPcieDowntrained(sys::t640(), 0.0),
                 FatalError);
}

TEST(SystemValidate, CatchesDisconnectedTopology)
{
    sys::SystemConfig s = sys::c4140M();
    // Hand-sever every NVLink *and* the PCIe path from GPU3: the
    // system validate (which now includes topology validation)
    // reports it as a config error.
    for (int e = 0; e < s.topo.edgeCount(); ++e) {
        auto [a, b] = s.topo.endpoints(e);
        if (a == s.gpu_nodes[3] || b == s.gpu_nodes[3])
            s.topo.setLinkDown(e, true);
    }
    EXPECT_THROW(s.validate(), FatalError);
}

// A GPU cut off from every CPU is a config error that names the GPU's
// node, in a box and in a pod host.
TEST(SystemValidate, StrandedGpuIsNamed)
{
    for (sys::SystemConfig s :
         {sys::c4140M(), sys::withPod(sys::t640(), 2, 3)}) {
        net::NodeId gpu = s.gpu_nodes[s.num_gpus / 2 + 1];
        for (int e : s.topo.incidentEdges(gpu))
            s.topo.setLinkDown(e, true);
        try {
            s.validate();
            ADD_FAILURE() << s.name << ": stranded GPU accepted";
        } catch (const FatalError &err) {
            std::string want = "'" + s.topo.name(gpu) + "' unreachable";
            EXPECT_NE(std::string(err.what()).find(want),
                      std::string::npos)
                << s.name << ": " << err.what();
        }
    }
}

// A graph records that it passed validation once, lazily, for all its
// copies. Trainers constructed on copies of one freshly built pod in
// four threads validate it at once, and then a copy with a stranded
// GPU still fails by the GPU's name.
TEST(SystemValidate, ThreadsConstructTrainersOnCopiesOfAFreshPod)
{
    // The pod on a graph built anew, node by node and link by link, so
    // that nothing has validated it yet.
    sys::SystemConfig fresh = sys::withPod(sys::c4140M(), 4, 4);
    const net::Topology &built = fresh.topo;
    net::Topology topo;
    for (net::NodeId n = 0; n < built.nodeCount(); ++n) {
        const std::string &name = built.name(n);
        switch (built.kind(n)) {
          case net::NodeKind::Cpu: topo.addCpu(name); break;
          case net::NodeKind::Gpu: topo.addGpu(name); break;
          case net::NodeKind::PcieSwitch: topo.addSwitch(name); break;
          case net::NodeKind::Nic: topo.addNic(name); break;
          case net::NodeKind::TorSwitch: topo.addTorSwitch(name); break;
          case net::NodeKind::SpineSwitch: topo.addSpineSwitch(name); break;
        }
    }
    for (int e = 0; e < built.edgeCount(); ++e) {
        auto [a, b] = built.endpoints(e);
        topo.connect(a, b, built.link(e));
    }
    fresh.topo = std::move(topo);

    constexpr int kThreads = 4;
    std::vector<sys::SystemConfig> copies(kThreads, fresh);
    std::latch start(kThreads); // so that the validations overlap
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&copies, &start, t] {
            start.arrive_and_wait();
            train::Trainer{copies[t]};
        });
    }
    for (std::thread &th : threads)
        th.join();

    net::NodeId gpu = fresh.gpu_nodes[5];
    for (int e : fresh.topo.incidentEdges(gpu))
        fresh.topo.setLinkDown(e, true);
    try {
        train::Trainer trainer(fresh);
        ADD_FAILURE() << "stranded GPU accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(
                      "'" + fresh.topo.name(gpu) + "' unreachable"),
                  std::string::npos)
            << err.what();
    }
}

} // namespace
