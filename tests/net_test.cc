/**
 * @file
 * Unit tests for the interconnect layer: links, topology routing and
 * P2P rules, the max-min-fair flow simulator, and the ring and tree
 * all-reduce cost models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "net/allreduce.h"
#include "net/link.h"
#include "net/topology.h"
#include "net/transfer.h"
#include "net_reference.h"
#include "sim/logger.h"

namespace {

using namespace mlps::net;
namespace net = mlps::net;
using mlps::sim::FatalError;
using mlps::reference::analyticRingSeconds;
using mlps::reference::linkTraffic;
using mlps::reference::soloTransferSeconds;

// ----------------------------------------------------------------- link

TEST(Link, Pcie3Scaling)
{
    EXPECT_NEAR(pcie3(16).gbps, 15.75, 0.01);
    EXPECT_NEAR(pcie3(8).gbps, 7.88, 0.01);
    EXPECT_NEAR(pcie3(1).gbps, 0.9846, 1e-6);
    EXPECT_THROW(pcie3(0), FatalError);
    EXPECT_THROW(pcie3(-4), FatalError);
}

TEST(Link, NvlinkScaling)
{
    EXPECT_DOUBLE_EQ(nvlink(1).gbps, 25.0);
    EXPECT_DOUBLE_EQ(nvlink(6).gbps, 150.0);
    EXPECT_THROW(nvlink(0), FatalError);
}

TEST(Link, UpiSpec)
{
    LinkSpec u = upi();
    EXPECT_DOUBLE_EQ(u.gbps, 20.8);
    EXPECT_EQ(u.kind, LinkKind::Upi);
}

TEST(Link, EffectiveBandwidthAppliesEfficiency)
{
    LinkSpec l = pcie3(16);
    EXPECT_NEAR(l.effectiveBytesPerSec(), l.gbps * 1e9 * l.efficiency,
                1.0);
}

TEST(Link, KindNames)
{
    EXPECT_EQ(toString(LinkKind::Pcie3), "PCIe3");
    EXPECT_EQ(toString(LinkKind::NvLink), "NVLink");
    EXPECT_EQ(toString(LinkKind::Upi), "UPI");
}

// ------------------------------------------------------------- topology

/** CPU - switch - 2 GPUs fixture. */
class SwitchTopoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cpu = topo.addCpu("CPU0");
        sw = topo.addSwitch("PLX0");
        g0 = topo.addGpu("GPU0");
        g1 = topo.addGpu("GPU1");
        topo.connect(cpu, sw, pcie3(16));
        topo.connect(sw, g0, pcie3(16));
        topo.connect(sw, g1, pcie3(16));
    }

    Topology topo;
    NodeId cpu{}, sw{}, g0{}, g1{};
};

TEST_F(SwitchTopoTest, NodeBookkeeping)
{
    EXPECT_EQ(topo.nodeCount(), 4);
    EXPECT_EQ(topo.edgeCount(), 3);
    EXPECT_EQ(topo.kind(cpu), NodeKind::Cpu);
    EXPECT_EQ(topo.kind(sw), NodeKind::PcieSwitch);
    EXPECT_EQ(topo.kind(g0), NodeKind::Gpu);
    EXPECT_EQ(topo.name(g1), "GPU1");
    EXPECT_EQ(topo.gpus().size(), 2u);
}

TEST_F(SwitchTopoTest, RouteFindsShortestPath)
{
    auto path = topo.route(g0, g1);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->hops(), 2);
    EXPECT_EQ(path->nodes.front(), g0);
    EXPECT_EQ(path->nodes.back(), g1);
    EXPECT_EQ(path->nodes[1], sw);
}

TEST_F(SwitchTopoTest, RouteToSelfIsEmpty)
{
    auto path = topo.route(g0, g0);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->hops(), 0);
}

TEST_F(SwitchTopoTest, DisconnectedReturnsNullopt)
{
    NodeId lonely = topo.addGpu("GPU2");
    EXPECT_FALSE(topo.route(g0, lonely).has_value());
}

TEST_F(SwitchTopoTest, PathBandwidthIsBottleneck)
{
    NodeId g2 = topo.addGpu("GPU2");
    topo.connect(sw, g2, pcie3(8));
    auto path = topo.route(g0, g2);
    ASSERT_TRUE(path);
    EXPECT_NEAR(topo.pathBandwidth(*path),
                pcie3(8).effectiveBytesPerSec(), 1.0);
}

TEST_F(SwitchTopoTest, PathLatencyAccumulates)
{
    auto path = topo.route(cpu, g0);
    ASSERT_TRUE(path);
    EXPECT_NEAR(topo.pathLatency(*path), 2 * 1.3e-6, 1e-12);
}

TEST_F(SwitchTopoTest, P2pWorksBehindSwitch)
{
    EXPECT_TRUE(topo.canPeerToPeer(g0, g1));
    EXPECT_EQ(topo.collectiveFabric({g0, g1}),
              CollectiveFabric::PcieP2p);
}

TEST_F(SwitchTopoTest, HostCpuResolution)
{
    auto host = topo.hostCpu(g0);
    ASSERT_TRUE(host);
    EXPECT_EQ(*host, cpu);
    EXPECT_THROW(topo.hostCpu(cpu), FatalError);
}

TEST_F(SwitchTopoTest, InvalidNodesAreFatal)
{
    EXPECT_THROW(topo.kind(99), FatalError);
    EXPECT_THROW(topo.connect(g0, g0, pcie3(16)), FatalError);
    EXPECT_THROW(topo.connect(g0, 99, pcie3(16)), FatalError);
    EXPECT_THROW(topo.canPeerToPeer(cpu, g0), FatalError);
}

TEST_F(SwitchTopoTest, FabricChecksRejectNonGpus)
{
    EXPECT_THROW(topo.canPeerToPeer(g0, sw), FatalError);
    EXPECT_THROW(topo.collectiveFabric({g0, sw}), FatalError);
    EXPECT_THROW(topo.collectiveFabric({cpu}), FatalError);
    EXPECT_THROW(topo.collectiveFabric({g0, 99}), FatalError);
    EXPECT_THROW(topo.nvlinkConnected(g0, 99), FatalError);
}

TEST(Topology, P2pBlockedThroughCpu)
{
    // Two GPUs on CPU PCIe ports: path exists but crosses the root
    // complex, so GPUDirect P2P is impossible.
    Topology topo;
    NodeId cpu = topo.addCpu("CPU0");
    NodeId g0 = topo.addGpu("GPU0");
    NodeId g1 = topo.addGpu("GPU1");
    topo.connect(cpu, g0, pcie3(16));
    topo.connect(cpu, g1, pcie3(16));
    EXPECT_TRUE(topo.route(g0, g1).has_value());
    EXPECT_FALSE(topo.canPeerToPeer(g0, g1));
    EXPECT_EQ(topo.collectiveFabric({g0, g1}),
              CollectiveFabric::HostStaged);
}

TEST(Topology, NvlinkPreferredOverPcie)
{
    // GPUs connected both via NVLink directly and via a switch; the
    // route should take NVLink.
    Topology topo;
    NodeId sw = topo.addSwitch("PLX0");
    NodeId g0 = topo.addGpu("GPU0");
    NodeId g1 = topo.addGpu("GPU1");
    topo.connect(sw, g0, pcie3(16));
    topo.connect(sw, g1, pcie3(16));
    topo.connect(g0, g1, nvlink(2));
    auto path = topo.route(g0, g1);
    ASSERT_TRUE(path);
    EXPECT_EQ(path->hops(), 1);
    EXPECT_EQ(topo.link(path->edges[0]).kind, LinkKind::NvLink);
    EXPECT_TRUE(topo.nvlinkConnected(g0, g1));
    EXPECT_EQ(topo.collectiveFabric({g0, g1}),
              CollectiveFabric::NvLink);
}

TEST(Topology, NvlinkConnectedIsTransitive)
{
    Topology topo;
    NodeId g0 = topo.addGpu("GPU0");
    NodeId g1 = topo.addGpu("GPU1");
    NodeId g2 = topo.addGpu("GPU2");
    topo.connect(g0, g1, nvlink(1));
    topo.connect(g1, g2, nvlink(1));
    EXPECT_TRUE(topo.nvlinkConnected(g0, g2));
    EXPECT_EQ(topo.collectiveFabric({g0, g1, g2}),
              CollectiveFabric::NvLink);
}

TEST(Topology, EmptyCollectiveIsFatal)
{
    Topology topo;
    EXPECT_THROW(topo.collectiveFabric({}), FatalError);
}

TEST(Topology, DescribeListsLinks)
{
    Topology topo;
    NodeId cpu = topo.addCpu("CPU0");
    NodeId gpu = topo.addGpu("GPU0");
    topo.connect(cpu, gpu, pcie3(16));
    std::string desc = topo.describe();
    EXPECT_NE(desc.find("CPU0"), std::string::npos);
    EXPECT_NE(desc.find("GPU0"), std::string::npos);
    EXPECT_NE(desc.find("PCIe3"), std::string::npos);
}

TEST(Topology, AnyLinkDownTracksSetResetAndCopies)
{
    Topology topo;
    NodeId cpu = topo.addCpu("CPU0");
    NodeId g0 = topo.addGpu("GPU0");
    NodeId g1 = topo.addGpu("GPU1");
    int e0 = topo.connect(cpu, g0, pcie3(16));
    int e1 = topo.connect(cpu, g1, pcie3(16));
    int nv = topo.connect(g0, g1, nvlink(2));
    EXPECT_FALSE(topo.anyLinkDown());

    // The count moves only on real changes: downing a down link, or
    // raising an up one, leaves it as is.
    topo.setLinkDown(nv, true);
    topo.setLinkDown(nv, true);
    topo.setLinkDown(e0, true);
    EXPECT_TRUE(topo.anyLinkDown());
    topo.setLinkDown(e1, false);
    topo.setLinkDown(nv, false);
    EXPECT_TRUE(topo.anyLinkDown());
    topo.setLinkDown(e0, false);
    EXPECT_FALSE(topo.anyLinkDown());
    topo.setLinkBandwidthScale(e1, 0.5);
    EXPECT_FALSE(topo.anyLinkDown());

    // Copies take the count with the link state and then go their
    // own way.
    topo.setLinkDown(nv, true);
    Topology copy = topo;
    EXPECT_TRUE(copy.anyLinkDown());
    copy.setLinkDown(nv, false);
    EXPECT_FALSE(copy.anyLinkDown());
    EXPECT_TRUE(topo.anyLinkDown());
    copy = topo;
    EXPECT_TRUE(copy.anyLinkDown());

    // Routing skips the per-edge check only with no link down.
    auto detour = copy.route(g0, g1);
    ASSERT_TRUE(detour);
    EXPECT_EQ(detour->hops(), 2);
    copy.setLinkDown(nv, false);
    EXPECT_EQ(copy.route(g0, g1)->hops(), 1);

    // A move carries the count; the moved-from topology has no links.
    Topology moved = std::move(topo);
    EXPECT_TRUE(moved.anyLinkDown());
    EXPECT_FALSE(topo.anyLinkDown()); // NOLINT(bugprone-use-after-move)
    Topology assigned;
    assigned = std::move(moved);
    EXPECT_TRUE(assigned.anyLinkDown());
    EXPECT_FALSE(moved.anyLinkDown()); // NOLINT(bugprone-use-after-move)

    // A reset clears every down link at once.
    assigned.setLinkDown(e0, true);
    assigned.resetLinkState();
    EXPECT_FALSE(assigned.anyLinkDown());
    assigned.setLinkDown(e1, true);
    EXPECT_TRUE(assigned.anyLinkDown());
}

// -------------------------------------------------------- flow simulator

TEST(FlowSimulator, SingleFlowMatchesSoloEstimate)
{
    Topology topo;
    NodeId cpu = topo.addCpu("CPU0");
    NodeId gpu = topo.addGpu("GPU0");
    topo.connect(cpu, gpu, pcie3(16));
    double bytes = 126e6;

    FlowSimulator fsim(topo);
    fsim.addFlow(cpu, gpu, bytes);
    double t = fsim.run();
    EXPECT_NEAR(t, soloTransferSeconds(topo, cpu, gpu, bytes), 1e-9);
}

TEST(FlowSimulator, TwoFlowsShareALink)
{
    Topology topo;
    NodeId cpu = topo.addCpu("CPU0");
    NodeId sw = topo.addSwitch("PLX0");
    NodeId g0 = topo.addGpu("GPU0");
    NodeId g1 = topo.addGpu("GPU1");
    topo.connect(cpu, sw, pcie3(16));
    topo.connect(sw, g0, pcie3(16));
    topo.connect(sw, g1, pcie3(16));

    double bytes = 126e6;
    double solo = soloTransferSeconds(topo, cpu, g0, bytes);

    // Both flows cross the shared CPU->switch uplink: each gets half.
    FlowSimulator fsim(topo);
    fsim.addFlow(cpu, g0, bytes);
    fsim.addFlow(cpu, g1, bytes);
    double t = fsim.run();
    EXPECT_NEAR(t, 2.0 * solo, solo * 0.05);
}

TEST(FlowSimulator, OppositeDirectionsAreFullDuplex)
{
    Topology topo;
    NodeId g0 = topo.addGpu("GPU0");
    NodeId g1 = topo.addGpu("GPU1");
    topo.connect(g0, g1, nvlink(2));
    double bytes = 100e6;
    double solo = soloTransferSeconds(topo, g0, g1, bytes);

    FlowSimulator fsim(topo);
    fsim.addFlow(g0, g1, bytes);
    fsim.addFlow(g1, g0, bytes);
    // No contention: both directions run at full rate.
    EXPECT_NEAR(fsim.run(), solo, solo * 0.01);
}

TEST(FlowSimulator, SameDirectionContends)
{
    Topology topo;
    NodeId g0 = topo.addGpu("GPU0");
    NodeId g1 = topo.addGpu("GPU1");
    topo.connect(g0, g1, nvlink(2));
    double bytes = 100e6;
    double solo = soloTransferSeconds(topo, g0, g1, bytes);

    FlowSimulator fsim(topo);
    fsim.addFlow(g0, g1, bytes);
    fsim.addFlow(g0, g1, bytes);
    EXPECT_NEAR(fsim.run(), 2.0 * solo, solo * 0.05);
}

TEST(FlowSimulator, StaggeredStartTimes)
{
    Topology topo;
    NodeId g0 = topo.addGpu("GPU0");
    NodeId g1 = topo.addGpu("GPU1");
    topo.connect(g0, g1, nvlink(1));
    double bytes = 22.5e6; // 1 ms alone at 22.5 GB/s effective

    FlowSimulator fsim(topo);
    fsim.addFlow(g0, g1, bytes, 0.0);
    fsim.addFlow(g0, g1, bytes, 0.010); // starts after the first ends
    double t = fsim.run();
    EXPECT_NEAR(t, 0.011, 5e-4);
    EXPECT_LT(fsim.reports()[0].finish_s, 0.0015);
}

TEST(FlowSimulator, ZeroByteFlowCompletesImmediately)
{
    Topology topo;
    NodeId g0 = topo.addGpu("GPU0");
    NodeId g1 = topo.addGpu("GPU1");
    topo.connect(g0, g1, nvlink(1));
    FlowSimulator fsim(topo);
    fsim.addFlow(g0, g1, 0.0);
    EXPECT_NEAR(fsim.run(), nvlink(1).latency_us * 1e-6, 1e-9);
}

TEST(FlowSimulator, TracksPerLinkTraffic)
{
    Topology topo;
    NodeId cpu = topo.addCpu("CPU0");
    NodeId g0 = topo.addGpu("GPU0");
    NodeId g1 = topo.addGpu("GPU1");
    topo.connect(cpu, g0, pcie3(16));
    topo.connect(g0, g1, nvlink(2));

    FlowSimulator fsim(topo);
    fsim.addFlow(cpu, g1, 50e6); // crosses both links
    fsim.run();
    EXPECT_NEAR(fsim.bytesOnKind(LinkKind::Pcie3), 50e6, 1.0);
    EXPECT_NEAR(fsim.bytesOnKind(LinkKind::NvLink), 50e6, 1.0);
    EXPECT_EQ(linkTraffic(fsim, topo).size(), 2u);
}

TEST(FlowSimulator, ErrorsOnMisuse)
{
    Topology topo;
    NodeId g0 = topo.addGpu("GPU0");
    NodeId g1 = topo.addGpu("GPU1");
    topo.connect(g0, g1, nvlink(1));
    FlowSimulator fsim(topo);
    EXPECT_THROW(fsim.addFlow(g0, g1, -1.0), FatalError);
    EXPECT_THROW(fsim.addFlow(g0, g1, 1.0, -0.5), FatalError);
    fsim.addFlow(g0, g1, 1.0);
    fsim.run();
    EXPECT_THROW(fsim.run(), FatalError);
    EXPECT_THROW(fsim.addFlow(g0, g1, 1.0), FatalError);
}

TEST(FlowSimulator, ThroughputReported)
{
    Topology topo;
    NodeId g0 = topo.addGpu("GPU0");
    NodeId g1 = topo.addGpu("GPU1");
    topo.connect(g0, g1, nvlink(2));
    FlowSimulator fsim(topo);
    fsim.addFlow(g0, g1, 45e6);
    fsim.run();
    const FlowReport &r = fsim.reports()[0];
    EXPECT_GT(r.throughput(), 0.0);
    EXPECT_LE(r.throughput(), nvlink(2).effectiveBytesPerSec() * 1.01);
}

// ------------------------------------------------------------ allreduce

/** 4-GPU NVLink mesh fixture. */
class AllReduceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        for (int i = 0; i < 4; ++i)
            gpus.push_back(topo.addGpu("GPU" + std::to_string(i)));
        for (int i = 0; i < 4; ++i)
            for (int j = i + 1; j < 4; ++j)
                topo.connect(gpus[i], gpus[j], nvlink(2));
    }

    Topology topo;
    std::vector<NodeId> gpus;
};

TEST_F(AllReduceTest, SingleGpuIsFree)
{
    auto r = ringAllReduce(topo, {gpus[0]}, 1e9);
    EXPECT_DOUBLE_EQ(r.seconds, 0.0);
}

TEST_F(AllReduceTest, ZeroBytesIsFree)
{
    auto r = ringAllReduce(topo, gpus, 0.0);
    EXPECT_DOUBLE_EQ(r.seconds, 0.0);
}

TEST_F(AllReduceTest, MonotoneInBytes)
{
    double t1 = ringAllReduce(topo, gpus, 1e8).seconds;
    double t2 = ringAllReduce(topo, gpus, 2e8).seconds;
    double t4 = ringAllReduce(topo, gpus, 4e8).seconds;
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, t4);
}

TEST_F(AllReduceTest, MatchesAnalyticFormOnCleanRing)
{
    double bytes = 400e6;
    AllReduceParams params;
    double flow = ringAllReduce(topo, gpus, bytes, params).seconds;
    double analytic = analyticRingSeconds(topo, gpus, bytes, params);
    EXPECT_NEAR(flow, analytic, analytic * 0.05);
}

TEST_F(AllReduceTest, BandwidthTermApproaches2x)
{
    // For large payloads, time per GPU approaches 2*(N-1)/N * B / bw.
    double bytes = 4e9;
    auto r = ringAllReduce(topo, gpus, bytes);
    double bw = nvlink(2).effectiveBytesPerSec();
    double ideal = 2.0 * 3.0 / 4.0 * bytes / bw;
    EXPECT_NEAR(r.seconds, ideal, ideal * 0.1);
}

TEST_F(AllReduceTest, TrafficAccountedOnNvlink)
{
    auto r = ringAllReduce(topo, gpus, 100e6);
    EXPECT_GT(r.nvlink_bytes, 0.0);
    EXPECT_DOUBLE_EQ(r.pcie_bytes, 0.0);
    EXPECT_DOUBLE_EQ(r.upi_bytes, 0.0);
    EXPECT_EQ(r.fabric, CollectiveFabric::NvLink);
    // Ring moves 2*(N-1) * bytes/N per GPU; sum over 4 GPUs.
    EXPECT_NEAR(r.nvlink_bytes, 6.0 * 100e6, 1e3);
}

TEST_F(AllReduceTest, BucketsAddLatency)
{
    AllReduceParams few, many;
    few.buckets = 1;
    many.buckets = 100;
    double t_few = ringAllReduce(topo, gpus, 1e6, few).seconds;
    double t_many = ringAllReduce(topo, gpus, 1e6, many).seconds;
    EXPECT_GT(t_many, t_few);
    EXPECT_NEAR(t_many - t_few,
                99.0 * 6.0 * few.step_overhead_us * 1e-6, 1e-6);
}

TEST_F(AllReduceTest, NonGpuParticipantIsFatal)
{
    NodeId cpu = topo.addCpu("CPU0");
    topo.connect(cpu, gpus[0], pcie3(16));
    EXPECT_THROW(ringAllReduce(topo, {gpus[0], cpu}, 1e6), FatalError);
    EXPECT_THROW(ringAllReduce(topo, {}, 1e6), FatalError);
}

TEST(AllReduce, FabricOrdering)
{
    // Identical GPU counts and payload; NVLink < P2P < staged.
    double bytes = 200e6;

    Topology nv;
    std::vector<NodeId> nv_gpus;
    for (int i = 0; i < 4; ++i)
        nv_gpus.push_back(nv.addGpu("G" + std::to_string(i)));
    for (int i = 0; i < 4; ++i)
        for (int j = i + 1; j < 4; ++j)
            nv.connect(nv_gpus[i], nv_gpus[j], nvlink(2));

    Topology p2p;
    NodeId sw = p2p.addSwitch("PLX");
    std::vector<NodeId> p2p_gpus;
    for (int i = 0; i < 4; ++i) {
        p2p_gpus.push_back(p2p.addGpu("G" + std::to_string(i)));
        p2p.connect(p2p_gpus[i], sw, pcie3(16));
    }

    Topology staged;
    NodeId c0 = staged.addCpu("CPU0");
    NodeId c1 = staged.addCpu("CPU1");
    staged.connect(c0, c1, upi());
    std::vector<NodeId> st_gpus;
    for (int i = 0; i < 4; ++i) {
        st_gpus.push_back(staged.addGpu("G" + std::to_string(i)));
        staged.connect(st_gpus[i], i < 2 ? c0 : c1, pcie3(16));
    }

    double t_nv = ringAllReduce(nv, nv_gpus, bytes).seconds;
    double t_p2p = ringAllReduce(p2p, p2p_gpus, bytes).seconds;
    double t_staged = ringAllReduce(staged, st_gpus, bytes).seconds;
    EXPECT_LT(t_nv, t_p2p);
    EXPECT_LT(t_p2p, t_staged);
}

TEST(AllReduce, StagedCrossesUpi)
{
    Topology staged;
    NodeId c0 = staged.addCpu("CPU0");
    NodeId c1 = staged.addCpu("CPU1");
    staged.connect(c0, c1, upi());
    std::vector<NodeId> gpus;
    for (int i = 0; i < 4; ++i) {
        gpus.push_back(staged.addGpu("G" + std::to_string(i)));
        staged.connect(gpus[i], i < 2 ? c0 : c1, pcie3(16));
    }
    auto r = ringAllReduce(staged, gpus, 100e6);
    EXPECT_EQ(r.fabric, CollectiveFabric::HostStaged);
    EXPECT_GT(r.upi_bytes, 0.0);
    EXPECT_GT(r.pcie_bytes, 0.0);
}

/** Property sweep: all-reduce time grows with GPU count for a fixed
 *  per-GPU payload on a host-staged fabric (more steps, more
 *  contention). */
class AllReduceGpuCountTest : public ::testing::TestWithParam<int>
{
};

TEST_P(AllReduceGpuCountTest, PositiveAndBoundedBelowByAnalytic)
{
    int n = GetParam();
    Topology topo;
    std::vector<NodeId> gpus;
    for (int i = 0; i < n; ++i)
        gpus.push_back(topo.addGpu("G" + std::to_string(i)));
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            topo.connect(gpus[i], gpus[j], nvlink(1));
    auto r = ringAllReduce(topo, gpus, 64e6);
    EXPECT_GT(r.seconds, 0.0);
    double analytic = analyticRingSeconds(topo, gpus, 64e6);
    EXPECT_GE(r.seconds, analytic * 0.9);
}

INSTANTIATE_TEST_SUITE_P(Counts, AllReduceGpuCountTest,
                         ::testing::Values(2, 3, 4, 6, 8));

// --------------------------------------------------- dynamic link state

/**
 * DGX-ish fixture: 4 GPUs in an NVLink mesh, all hanging off one PCIe
 * switch under a CPU, so the fabric has somewhere to fall back to when
 * NVLink edges die.
 */
class DegradedFabricTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cpu = topo.addCpu("CPU0");
        sw = topo.addSwitch("PLX0");
        topo.connect(cpu, sw, pcie3(16));
        for (int i = 0; i < 4; ++i) {
            gpus.push_back(topo.addGpu("GPU" + std::to_string(i)));
            topo.connect(gpus[i], sw, pcie3(16));
        }
        for (int i = 0; i < 4; ++i)
            for (int j = i + 1; j < 4; ++j)
                topo.connect(gpus[i], gpus[j], nvlink(2));
    }

    /** Edge id of the NVLink link joining gpus[i] and gpus[j]. */
    int
    nvEdge(int i, int j) const
    {
        for (int e = 0; e < topo.edgeCount(); ++e) {
            auto [a, b] = topo.endpoints(e);
            if (topo.link(e).kind == LinkKind::NvLink &&
                ((a == gpus[i] && b == gpus[j]) ||
                 (a == gpus[j] && b == gpus[i])))
                return e;
        }
        return -1;
    }

    Topology topo;
    NodeId cpu{}, sw{};
    std::vector<NodeId> gpus;
};

TEST_F(DegradedFabricTest, LinkStateAccessors)
{
    int e = nvEdge(0, 1);
    ASSERT_GE(e, 0);
    EXPECT_FALSE(topo.linkDown(e));
    EXPECT_DOUBLE_EQ(topo.linkBandwidthScale(e), 1.0);
    EXPECT_FALSE(topo.degraded());
    EXPECT_FALSE(topo.anyLinkDown());

    topo.setLinkBandwidthScale(e, 0.5);
    EXPECT_TRUE(topo.degraded());
    EXPECT_FALSE(topo.anyLinkDown());
    EXPECT_NEAR(topo.effectiveLinkBytesPerSec(e),
                topo.link(e).effectiveBytesPerSec() * 0.5, 1.0);

    topo.setLinkDown(e, true);
    EXPECT_TRUE(topo.anyLinkDown());
    EXPECT_DOUBLE_EQ(topo.effectiveLinkBytesPerSec(e), 0.0);

    topo.resetLinkState();
    EXPECT_FALSE(topo.degraded());
    EXPECT_FALSE(topo.anyLinkDown());
    EXPECT_NEAR(topo.effectiveLinkBytesPerSec(e),
                topo.link(e).effectiveBytesPerSec(), 1.0);
}

TEST_F(DegradedFabricTest, EpochAdvancesOnlyOnRealChanges)
{
    int e = nvEdge(0, 1);
    std::uint64_t epoch = topo.epoch();
    topo.setLinkDown(e, false); // already up: no-op
    topo.setLinkBandwidthScale(e, 1.0); // already 1.0: no-op
    EXPECT_EQ(topo.epoch(), epoch);
    topo.setLinkDown(e, true);
    EXPECT_GT(topo.epoch(), epoch);
    epoch = topo.epoch();
    topo.setLinkDown(e, true); // no change
    EXPECT_EQ(topo.epoch(), epoch);
    topo.resetLinkState();
    EXPECT_GT(topo.epoch(), epoch);
}

TEST_F(DegradedFabricTest, LinkStateErrorsAreFatal)
{
    EXPECT_THROW(topo.setLinkDown(-1, true), FatalError);
    EXPECT_THROW(topo.setLinkDown(topo.edgeCount(), true), FatalError);
    EXPECT_THROW(topo.setLinkBandwidthScale(0, 0.0), FatalError);
    EXPECT_THROW(topo.setLinkBandwidthScale(0, -0.5), FatalError);
    EXPECT_THROW(topo.linkDown(topo.edgeCount()), FatalError);
}

TEST_F(DegradedFabricTest, RouteDetoursAroundDownLink)
{
    int e = nvEdge(0, 1);
    auto direct = topo.route(gpus[0], gpus[1]);
    ASSERT_TRUE(direct);
    EXPECT_EQ(direct->hops(), 1);

    topo.setLinkDown(e, true);
    auto detour = topo.route(gpus[0], gpus[1]);
    ASSERT_TRUE(detour); // mesh + switch keep the pair connected
    EXPECT_GT(detour->hops(), 1);
    for (int pe : detour->edges)
        EXPECT_FALSE(topo.linkDown(pe));
}

TEST_F(DegradedFabricTest, AllReduceSurvivesNvlinkEdgeDown)
{
    double bytes = 200e6;
    auto healthy = ringAllReduce(topo, gpus, bytes);
    EXPECT_EQ(healthy.fabric, CollectiveFabric::NvLink);
    EXPECT_EQ(healthy.reroutes, 0);

    // One NVLink edge hard-down: the ring rebuilds over surviving
    // links — no crash, never slower than healthy is faster.
    topo.setLinkDown(nvEdge(0, 1), true);
    auto degraded = ringAllReduce(topo, gpus, bytes);
    EXPECT_GT(degraded.seconds, 0.0);
    EXPECT_GE(degraded.seconds, healthy.seconds - 1e-12);
    // The surviving ring can avoid the dead pair entirely (a 4-node
    // mesh minus one edge still has a Hamiltonian cycle).
    EXPECT_EQ(degraded.fabric, CollectiveFabric::NvLink);
}

TEST_F(DegradedFabricTest, AllReduceFallsBackToPcieWhenNvlinkDies)
{
    double bytes = 200e6;
    double healthy = ringAllReduce(topo, gpus, bytes).seconds;
    // Kill the whole NVLink mesh: collective must fall back to the
    // PCIe switch fabric instead of crashing.
    for (int i = 0; i < 4; ++i)
        for (int j = i + 1; j < 4; ++j)
            topo.setLinkDown(nvEdge(i, j), true);
    auto fallback = ringAllReduce(topo, gpus, bytes);
    EXPECT_EQ(fallback.fabric, CollectiveFabric::PcieP2p);
    EXPECT_GT(fallback.seconds, healthy);
    EXPECT_DOUBLE_EQ(fallback.nvlink_bytes, 0.0);
    EXPECT_GT(fallback.pcie_bytes, 0.0);
}

TEST_F(DegradedFabricTest, SurvivingRingOrderIsIdentityWhenHealthy)
{
    auto order = survivingRingOrder(topo, gpus);
    EXPECT_EQ(order, gpus);
    // Bandwidth-only degradation must not perturb the ring either —
    // healthy traces stay byte-identical under pure throttles.
    topo.setLinkBandwidthScale(nvEdge(0, 1), 0.25);
    EXPECT_EQ(survivingRingOrder(topo, gpus), gpus);
}

TEST_F(DegradedFabricTest, StragglerScaleStretchesStepTime)
{
    AllReduceParams slow;
    slow.slowest_participant_scale = 2.0;
    double base = ringAllReduce(topo, gpus, 100e6).seconds;
    double straggled = ringAllReduce(topo, gpus, 100e6, slow).seconds;
    EXPECT_NEAR(straggled, base * 2.0, base * 1e-9);
    // Scales below 1 never speed the collective up.
    slow.slowest_participant_scale = 0.5;
    EXPECT_NEAR(ringAllReduce(topo, gpus, 100e6, slow).seconds, base,
                base * 1e-9);
}

TEST_F(DegradedFabricTest, DescribeShowsDegradedState)
{
    topo.setLinkDown(nvEdge(0, 1), true);
    topo.setLinkBandwidthScale(nvEdge(2, 3), 0.5);
    std::string desc = topo.describe();
    EXPECT_NE(desc.find("DOWN"), std::string::npos);
    EXPECT_NE(desc.find("x0.5"), std::string::npos);
}

// --------------------------------------------------------------- validate

TEST(TopologyValidate, AcceptsHealthyGraph)
{
    Topology topo;
    NodeId c = topo.addCpu("CPU0");
    NodeId g = topo.addGpu("GPU0");
    topo.connect(c, g, pcie3(16));
    EXPECT_NO_THROW(topo.validate());
}

TEST(TopologyValidate, RejectsEmptyTopology)
{
    Topology topo;
    EXPECT_THROW(topo.validate(), FatalError);
}

TEST(TopologyValidate, RejectsDisconnectedGraph)
{
    Topology topo;
    NodeId c = topo.addCpu("CPU0");
    NodeId g0 = topo.addGpu("GPU0");
    topo.addGpu("GPU1"); // never connected
    topo.connect(c, g0, pcie3(16));
    try {
        topo.validate();
        FAIL() << "validate() accepted a disconnected graph";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("GPU1"),
                  std::string::npos)
            << "error should name the unreachable node: "
            << err.what();
    }
}

TEST(TopologyValidate, RejectsGraphSplitByDownLink)
{
    Topology topo;
    NodeId c = topo.addCpu("CPU0");
    NodeId g = topo.addGpu("GPU0");
    topo.connect(c, g, pcie3(16));
    topo.setLinkDown(0, true);
    EXPECT_THROW(topo.validate(), FatalError);
    topo.setLinkDown(0, false);
    EXPECT_NO_THROW(topo.validate());
}

TEST(TopologyValidate, RejectsNonPositiveBandwidth)
{
    Topology topo;
    NodeId c = topo.addCpu("CPU0");
    NodeId g = topo.addGpu("GPU0");
    LinkSpec bad = pcie3(16);
    bad.gbps = 0.0;
    topo.connect(c, g, bad);
    EXPECT_THROW(topo.validate(), FatalError);
}

} // namespace
