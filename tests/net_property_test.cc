/**
 * @file
 * Randomized property tests for the interconnect layer: routing
 * invariants on random connected topologies, flow-simulator byte
 * conservation and rate bounds, and all-reduce consistency across
 * algorithms.
 *
 * The differential tests at the end pin the fast paths to the
 * straightforward algorithms they replace, kept here as references:
 * a BFS that copies and stable-sorts each node's edges NVLink-first,
 * pairwise-BFS fabric checks, and progressive filling that scans
 * every slot for the bottleneck in each round. Results must agree
 * exactly (floating-point values bit for bit).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <latch>
#include <limits>
#include <numeric>
#include <optional>
#include <thread>

#include "fingerprint_reference.h"
#include "net_reference.h"
#include "models/zoo.h"
#include "net/allreduce.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "net/transfer.h"
#include "sim/logger.h"
#include "sim/rng.h"
#include "sys/machines.h"
#include "train/trainer.h"

namespace {

using namespace mlps::net;
using mlps::reference::bfsRoute;
using mlps::reference::ReferenceFlowSim;

/**
 * A random connected machine graph — CPUs, switches, GPUs — as the
 * nodes and links to add, so that one draw can be built many times.
 */
struct MachineRecipe {
    struct Link {
        int a; ///< index into nodes
        int b;
        LinkSpec spec;
    };
    std::vector<std::pair<NodeKind, std::string>> nodes;
    std::vector<Link> links;
    int gpus = 0;
};

MachineRecipe
randomRecipe(mlps::sim::Rng &rng)
{
    MachineRecipe r;
    int cpus = 1 + static_cast<int>(rng.below(3));
    int switches = static_cast<int>(rng.below(3));
    r.gpus = 2 + static_cast<int>(rng.below(6));

    std::vector<int> attach; // nodes a GPU/switch can hang off
    std::vector<int> gpus;
    auto add = [&r](NodeKind kind, const std::string &name) {
        r.nodes.emplace_back(kind, name);
        return static_cast<int>(r.nodes.size()) - 1;
    };
    for (int i = 0; i < cpus; ++i) {
        int c = add(NodeKind::Cpu, "CPU" + std::to_string(i));
        if (i > 0)
            r.links.push_back({c, attach[i - 1], upi()});
        attach.push_back(c);
    }
    for (int i = 0; i < switches; ++i) {
        int sw = add(NodeKind::PcieSwitch, "SW" + std::to_string(i));
        r.links.push_back(
            {sw, attach[rng.below(attach.size())], pcie3(16)});
        attach.push_back(sw);
    }
    for (int i = 0; i < r.gpus; ++i) {
        int g = add(NodeKind::Gpu, "GPU" + std::to_string(i));
        gpus.push_back(g);
        // Each link draws its width before its far end.
        int lanes = 8 + 8 * static_cast<int>(rng.below(2));
        r.links.push_back({g, attach[rng.below(attach.size())],
                           pcie3(lanes)});
        // Sometimes add NVLink pairs between recent GPUs.
        if (i > 0 && rng.chance(0.3)) {
            int bricks = 1 + static_cast<int>(rng.below(2));
            r.links.push_back({g, gpus[rng.below(i)], nvlink(bricks)});
        }
    }
    return r;
}

/** Add a copy of 'recipe' to 'topo', names prefixed, connecting its
 *  links in order or in reverse. @return the copy's node ids, indexed
 *  like recipe.nodes. */
std::vector<NodeId>
build(Topology &topo, const MachineRecipe &recipe,
      const std::string &prefix = "", bool reversed = false)
{
    std::vector<NodeId> ids;
    for (const auto &[kind, name] : recipe.nodes) {
        ids.push_back(kind == NodeKind::Cpu ? topo.addCpu(prefix + name)
                      : kind == NodeKind::Gpu
                          ? topo.addGpu(prefix + name)
                          : topo.addSwitch(prefix + name));
    }
    std::vector<MachineRecipe::Link> links = recipe.links;
    if (reversed)
        std::reverse(links.begin(), links.end());
    for (const MachineRecipe::Link &l : links)
        topo.connect(ids[l.a], ids[l.b], l.spec);
    return ids;
}

/** Random connected machine graph: CPUs, switches, GPUs. */
Topology
randomTopology(mlps::sim::Rng &rng, int &gpu_count)
{
    MachineRecipe recipe = randomRecipe(rng);
    Topology topo;
    build(topo, recipe);
    gpu_count = recipe.gpus;
    return topo;
}

/** True when every node can still reach every other over up links. */
bool
stillConnected(Topology &topo)
{
    try {
        topo.validate();
        return true;
    } catch (const mlps::sim::FatalError &) {
        return false;
    }
}

/**
 * Take edge `e` down only if the graph survives it; returns whether
 * the edge is now down. Keeps random fault injection from wedging a
 * test on a bridge edge.
 */
bool
downIfSurvivable(Topology &topo, int e)
{
    topo.setLinkDown(e, true);
    if (stillConnected(topo))
        return true;
    topo.setLinkDown(e, false);
    return false;
}

class RandomTopologyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomTopologyTest, RoutesAreValidPaths)
{
    mlps::sim::Rng rng(1000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    for (int a = 0; a < topo.nodeCount(); ++a) {
        for (int b = 0; b < topo.nodeCount(); ++b) {
            auto path = topo.route(a, b);
            ASSERT_TRUE(path.has_value()); // construction is connected
            ASSERT_EQ(path->nodes.front(), a);
            ASSERT_EQ(path->nodes.back(), b);
            ASSERT_EQ(path->nodes.size(), path->edges.size() + 1);
            // Each edge joins consecutive nodes.
            for (std::size_t i = 0; i < path->edges.size(); ++i) {
                auto [x, y] = topo.endpoints(path->edges[i]);
                bool forward = x == path->nodes[i] &&
                               y == path->nodes[i + 1];
                bool backward = y == path->nodes[i] &&
                                x == path->nodes[i + 1];
                ASSERT_TRUE(forward || backward);
            }
        }
    }
}

TEST_P(RandomTopologyTest, RouteHopCountSymmetric)
{
    mlps::sim::Rng rng(2000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    for (int a = 0; a < topo.nodeCount(); ++a) {
        for (int b = a + 1; b < topo.nodeCount(); ++b) {
            auto ab = topo.route(a, b);
            auto ba = topo.route(b, a);
            ASSERT_TRUE(ab && ba);
            EXPECT_EQ(ab->hops(), ba->hops());
        }
    }
}

TEST_P(RandomTopologyTest, FlowBytesConserved)
{
    mlps::sim::Rng rng(3000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    auto gpu_nodes = topo.gpus();

    FlowSimulator fsim(topo);
    double expected_total = 0.0;
    std::vector<double> path_hops;
    int flows = 3 + static_cast<int>(rng.below(5));
    for (int i = 0; i < flows; ++i) {
        NodeId from = gpu_nodes[rng.below(gpu_nodes.size())];
        NodeId to = gpu_nodes[rng.below(gpu_nodes.size())];
        if (from == to)
            continue;
        double bytes = rng.uniform(1e6, 5e8);
        fsim.addFlow(from, to, bytes);
        expected_total += bytes * topo.route(from, to)->hops();
    }
    fsim.run();
    double link_total = 0.0;
    for (const auto &lt : mlps::reference::linkTraffic(fsim, topo))
        link_total += lt.bytes;
    EXPECT_NEAR(link_total, expected_total,
                std::max(1.0, expected_total * 1e-6));
}

TEST_P(RandomTopologyTest, FlowsFinishAndRespectLinkRates)
{
    mlps::sim::Rng rng(4000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    auto gpu_nodes = topo.gpus();

    FlowSimulator fsim(topo);
    int added = 0;
    for (int i = 0; i < 6; ++i) {
        NodeId from = gpu_nodes[rng.below(gpu_nodes.size())];
        NodeId to = gpu_nodes[rng.below(gpu_nodes.size())];
        if (from == to)
            continue;
        fsim.addFlow(from, to, rng.uniform(1e6, 1e8),
                     rng.uniform(0.0, 0.01));
        ++added;
    }
    if (added == 0)
        GTEST_SKIP();
    double makespan = fsim.run();
    EXPECT_GT(makespan, 0.0);
    for (const auto &rep : fsim.reports()) {
        EXPECT_GE(rep.finish_s, rep.start_s);
        // No flow beats its own bottleneck-bandwidth lower bound.
        EXPECT_LE(rep.throughput(),
                  pcie3(16).effectiveBytesPerSec() * 10.0);
    }
}

TEST_P(RandomTopologyTest, AllReduceAlgorithmsAgreeOnFabric)
{
    mlps::sim::Rng rng(5000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    auto gpu_nodes = topo.gpus();
    double bytes = rng.uniform(1e6, 3e8);
    auto ring = ringAllReduce(topo, gpu_nodes, bytes);
    auto hier = autoHierarchicalAllReduce(topo, gpu_nodes, bytes);
    EXPECT_EQ(ring.fabric, topo.collectiveFabric(gpu_nodes));
    EXPECT_EQ(hier.fabric, ring.fabric);
    // One host: the shape-aware choice is exactly the flat ring.
    EXPECT_EQ(hier.seconds, ring.seconds);
    EXPECT_GT(ring.seconds, 0.0);
}

TEST_P(RandomTopologyTest, AllReduceScalesWithPayload)
{
    mlps::sim::Rng rng(6000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    auto gpu_nodes = topo.gpus();
    double t1 = ringAllReduce(topo, gpu_nodes, 1e7).seconds;
    double t10 = ringAllReduce(topo, gpu_nodes, 1e8).seconds;
    EXPECT_GT(t10, t1);
    // Bandwidth term dominates at 10x payload: at most ~10x slower.
    EXPECT_LT(t10, 10.5 * t1);
}

TEST_P(RandomTopologyTest, NoRouteEverCrossesDownLink)
{
    mlps::sim::Rng rng(7000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    // Down a random subset of survivable edges.
    int downed = 0;
    for (int e = 0; e < topo.edgeCount(); ++e) {
        if (rng.chance(0.3) && downIfSurvivable(topo, e))
            ++downed;
    }
    for (int a = 0; a < topo.nodeCount(); ++a) {
        for (int b = 0; b < topo.nodeCount(); ++b) {
            auto path = topo.route(a, b);
            ASSERT_TRUE(path.has_value()); // only survivable downs
            for (int e : path->edges)
                ASSERT_FALSE(topo.linkDown(e))
                    << "route " << topo.name(a) << "->" << topo.name(b)
                    << " crosses down link " << e << " (" << downed
                    << " links down)";
        }
    }
}

TEST_P(RandomTopologyTest, BandwidthReductionNeverSpeedsAllReduce)
{
    mlps::sim::Rng rng(8000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    auto gpu_nodes = topo.gpus();
    double bytes = rng.uniform(1e6, 3e8);
    double healthy = ringAllReduce(topo, gpu_nodes, bytes).seconds;

    // Degrade one random link at a time; modeled time must never
    // improve. Then stack degradations cumulatively: still monotone.
    double prev = healthy;
    for (int step = 0; step < 8; ++step) {
        int e = static_cast<int>(rng.below(topo.edgeCount()));
        double scale = rng.uniform(0.05, 0.95);
        topo.setLinkBandwidthScale(
            e, topo.linkBandwidthScale(e) * scale);
        double degraded = ringAllReduce(topo, gpu_nodes, bytes).seconds;
        EXPECT_GE(degraded, prev - 1e-12)
            << "scaling link " << e << " by " << scale
            << " made all-reduce faster";
        prev = degraded;
    }
    topo.resetLinkState();
    EXPECT_NEAR(ringAllReduce(topo, gpu_nodes, bytes).seconds, healthy,
                healthy * 1e-12);
}

TEST_P(RandomTopologyTest, ReroutePreservesTotalBytesMoved)
{
    mlps::sim::Rng rng(9000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    auto gpu_nodes = topo.gpus();

    // Pick flows up front so healthy and degraded runs move the same
    // payloads.
    struct Want { NodeId from; NodeId to; double bytes; };
    std::vector<Want> wants;
    for (int i = 0; i < 6; ++i) {
        NodeId from = gpu_nodes[rng.below(gpu_nodes.size())];
        NodeId to = gpu_nodes[rng.below(gpu_nodes.size())];
        if (from != to)
            wants.push_back({from, to, rng.uniform(1e6, 2e8)});
    }
    if (wants.empty())
        GTEST_SKIP() << "no distinct GPU pairs drawn";

    auto runAndCheck = [&](const char *label) {
        FlowSimulator fsim(topo);
        double expected_total = 0.0;
        for (const Want &w : wants) {
            fsim.addFlow(w.from, w.to, w.bytes);
            expected_total += w.bytes * topo.route(w.from, w.to)->hops();
        }
        fsim.run();
        double link_total = 0.0;
        for (const auto &lt : mlps::reference::linkTraffic(fsim, topo))
            link_total += lt.bytes;
        EXPECT_NEAR(link_total, expected_total,
                    std::max(1.0, expected_total * 1e-6))
            << label;
        // Every flow delivers its full payload regardless of routing.
        for (std::size_t i = 0; i < fsim.reports().size(); ++i)
            EXPECT_NEAR(fsim.reports()[i].bytes, wants[i].bytes, 1.0)
                << label;
    };

    runAndCheck("healthy fabric");
    int downed = 0;
    for (int e = 0; e < topo.edgeCount() && downed < 2; ++e) {
        if (rng.chance(0.4) && downIfSurvivable(topo, e))
            ++downed;
    }
    runAndCheck("degraded fabric");
}

TEST_P(RandomTopologyTest, TopologyMutationStressKeepsValidateGreen)
{
    mlps::sim::Rng rng(10000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    std::uint64_t last_epoch = topo.epoch();
    for (int step = 0; step < 1000; ++step) {
        int e = static_cast<int>(rng.below(topo.edgeCount()));
        switch (rng.below(3)) {
          case 0:
            // Down only when the fabric survives; a real operator
            // cordons a bridge link instead of cutting it.
            downIfSurvivable(topo, e);
            break;
          case 1: // heal
            topo.setLinkDown(e, false);
            topo.setLinkBandwidthScale(e, 1.0);
            break;
          default: // degrade bandwidth
            topo.setLinkBandwidthScale(e, rng.uniform(0.05, 1.0));
            break;
        }
        ASSERT_NO_THROW(topo.validate()) << "after step " << step;
        // Epochs only move forward, and only on real state changes.
        ASSERT_GE(topo.epoch(), last_epoch);
        last_epoch = topo.epoch();
    }
    topo.resetLinkState();
    ASSERT_NO_THROW(topo.validate());
    EXPECT_FALSE(topo.degraded());
}

// The memoized machine fingerprint equals the unmemoized reference
// after every step of a 1k-step link-state walk over three copies that
// share one random graph.
TEST_P(RandomTopologyTest, FingerprintTopologyMutationStressMatchesReference)
{
    mlps::sim::Rng rng(20000 + GetParam());
    int gpus = 0;
    mlps::sys::SystemConfig system;
    system.name = "random " + std::to_string(GetParam());
    system.topo = randomTopology(rng, gpus);
    system.gpu_nodes = system.topo.gpus();
    mlps::reference::expectMemoMatchesReferenceOnWalk(
        std::vector<mlps::sys::SystemConfig>(3, system), 30000 + GetParam(),
        1000);
}

// ------------------------------------------------ reference algorithms

/** Pairwise-BFS oracle for the fabric checks over one link state. */
struct FabricOracle {
    std::vector<NodeId> gpus;
    std::vector<std::vector<bool>> nvlink; ///< indexed like 'gpus'
    std::vector<std::vector<bool>> p2p;

    explicit FabricOracle(const Topology &topo) : gpus(topo.gpus())
    {
        std::function<bool(int)> nvlink_only = [&](int e) {
            return topo.link(e).kind == LinkKind::NvLink;
        };
        auto blocked = [&](NodeId n) {
            NodeKind k = topo.kind(n);
            return k == NodeKind::Cpu || k == NodeKind::Nic ||
                   k == NodeKind::TorSwitch ||
                   k == NodeKind::SpineSwitch;
        };
        std::function<bool(int)> p2p_legal = [&](int e) {
            auto [a, b] = topo.endpoints(e);
            return topo.link(e).kind != LinkKind::Upi && !blocked(a) &&
                   !blocked(b);
        };
        std::size_t n = gpus.size();
        nvlink.assign(n, std::vector<bool>(n, true));
        p2p.assign(n, std::vector<bool>(n, true));
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                if (i == j)
                    continue;
                nvlink[i][j] =
                    bfsRoute(topo, gpus[i], gpus[j], &nvlink_only)
                        .has_value();
                p2p[i][j] =
                    bfsRoute(topo, gpus[i], gpus[j], &p2p_legal)
                        .has_value();
            }
        }
    }

    /** Fabric of the GPUs at positions 'members' of 'gpus'. */
    CollectiveFabric fabric(const std::vector<std::size_t> &members) const
    {
        bool all_nvlink = true;
        bool all_p2p = true;
        for (std::size_t i : members) {
            for (std::size_t j : members) {
                all_nvlink = all_nvlink && nvlink[i][j];
                all_p2p = all_p2p && p2p[i][j];
            }
        }
        if (all_nvlink)
            return CollectiveFabric::NvLink;
        if (all_p2p)
            return CollectiveFabric::PcieP2p;
        return CollectiveFabric::HostStaged;
    }
};

/** Compare every fabric check against the oracle; 'all_subsets'
 *  covers every nonempty GPU subset, else 'samples' random ones plus
 *  the whole set. */
void
expectFabricChecksMatchOracle(const Topology &topo, bool all_subsets,
                              mlps::sim::Rng &rng, int samples,
                              const std::string &label)
{
    FabricOracle oracle(topo);
    const std::vector<NodeId> &gpus = oracle.gpus;
    std::size_t n = gpus.size();
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            ASSERT_EQ(topo.nvlinkConnected(gpus[i], gpus[j]),
                      oracle.nvlink[i][j])
                << label << ": nvlinkConnected " << i << "," << j;
            ASSERT_EQ(topo.canPeerToPeer(gpus[i], gpus[j]),
                      oracle.p2p[i][j])
                << label << ": canPeerToPeer " << i << "," << j;
        }
    }
    auto check = [&](const std::vector<std::size_t> &members) {
        std::vector<NodeId> set;
        for (std::size_t i : members)
            set.push_back(gpus[i]);
        ASSERT_EQ(topo.collectiveFabric(set), oracle.fabric(members))
            << label << ": collectiveFabric over " << set.size()
            << " GPUs";
    };
    if (all_subsets) {
        for (std::uint64_t mask = 1; mask < (1ULL << n); ++mask) {
            std::vector<std::size_t> members;
            for (std::size_t i = 0; i < n; ++i) {
                if (mask & (1ULL << i))
                    members.push_back(i);
            }
            check(members);
        }
        return;
    }
    std::vector<std::size_t> everyone(n);
    for (std::size_t i = 0; i < n; ++i)
        everyone[i] = i;
    check(everyone);
    for (int k = 0; k < samples; ++k) {
        std::vector<std::size_t> members;
        for (std::size_t i = 0; i < n; ++i) {
            if (rng.chance(0.3))
                members.push_back(i);
        }
        if (!members.empty())
            check(members);
    }
}

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

struct FlowWant {
    NodeId from;
    NodeId to;
    double bytes;
    double start_s;
};

/** Run the flow set through FlowSimulator and the reference, calling
 *  'before_run', if set, between adding the flows and running them;
 *  every double they report must be bit-identical. */
void
expectFlowSimMatchesReference(const Topology &topo,
                              const std::vector<FlowWant> &wants,
                              const std::string &label,
                              const std::function<void()> &before_run = {})
{
    FlowSimulator fast(topo);
    ReferenceFlowSim ref(topo);
    for (const FlowWant &w : wants) {
        fast.addFlow(w.from, w.to, w.bytes, w.start_s);
        ref.addFlow(w.from, w.to, w.bytes, w.start_s);
    }
    if (before_run)
        before_run();
    double fast_makespan = fast.run();
    double ref_makespan = ref.run();
    ASSERT_EQ(bits(fast_makespan), bits(ref_makespan))
        << label << ": makespan " << fast_makespan << " vs "
        << ref_makespan;
    ASSERT_EQ(fast.reports().size(), ref.reports().size()) << label;
    for (std::size_t i = 0; i < ref.reports().size(); ++i) {
        const FlowReport &a = fast.reports()[i];
        const FlowReport &b = ref.reports()[i];
        ASSERT_EQ(a.id, b.id) << label;
        ASSERT_EQ(bits(a.bytes), bits(b.bytes)) << label;
        ASSERT_EQ(bits(a.start_s), bits(b.start_s)) << label;
        ASSERT_EQ(bits(a.finish_s), bits(b.finish_s))
            << label << ": flow " << i << " finishes at " << a.finish_s
            << " vs " << b.finish_s;
    }
    std::vector<double> fast_bytes(topo.edgeCount(), 0.0);
    for (const auto &lt : mlps::reference::linkTraffic(fast, topo))
        fast_bytes[lt.edge] = lt.bytes;
    for (int e = 0; e < topo.edgeCount(); ++e) {
        // linkTraffic lists only edges that carried bytes.
        double want = ref.edgeBytes()[e] > 0.0 ? ref.edgeBytes()[e] : 0.0;
        ASSERT_EQ(bits(fast_bytes[e]), bits(want))
            << label << ": edge " << e << " carried " << fast_bytes[e]
            << " vs " << ref.edgeBytes()[e];
    }
    // Per-kind and per-tier totals sum every edge in id order.
    const FlowSimulator::LinkBytes totals = fast.linkBytes();
    for (LinkKind kind : {LinkKind::Pcie3, LinkKind::NvLink, LinkKind::Upi,
                          LinkKind::Eth}) {
        double want = 0.0;
        for (int e = 0; e < topo.edgeCount(); ++e) {
            if (topo.link(e).kind == kind)
                want += ref.edgeBytes()[e];
        }
        ASSERT_EQ(bits(totals.onKind(kind)), bits(want))
            << label << ": bytes on " << toString(kind);
    }
    for (int t = 0; t < kNumFabricTiers; ++t) {
        double want = 0.0;
        for (int e = 0; e < topo.edgeCount(); ++e) {
            if (topo.link(e).tier == static_cast<FabricTier>(t))
                want += ref.edgeBytes()[e];
        }
        ASSERT_EQ(bits(totals.tier[t]), bits(want))
            << label << ": bytes on tier " << t;
    }
}

/** Seeded random flows between any nodes: zero-hop and zero-byte
 *  flows included, starts either all at zero or staggered. */
std::vector<FlowWant>
randomFlows(const Topology &topo, mlps::sim::Rng &rng, int count,
            const std::vector<NodeId> &endpoints)
{
    bool staggered = rng.chance(0.5);
    std::vector<FlowWant> wants;
    for (int i = 0; i < count; ++i) {
        FlowWant w;
        w.from = endpoints[rng.below(endpoints.size())];
        w.to = rng.chance(0.1) ? w.from
                               : endpoints[rng.below(endpoints.size())];
        w.bytes = rng.chance(0.1) ? 0.0 : rng.uniform(1e5, 5e8);
        w.start_s = staggered ? rng.uniform(0.0, 0.02) : 0.0;
        if (!topo.route(w.from, w.to))
            continue;
        wants.push_back(w);
    }
    return wants;
}

std::vector<NodeId>
allNodes(const Topology &topo)
{
    std::vector<NodeId> out(topo.nodeCount());
    for (NodeId n = 0; n < topo.nodeCount(); ++n)
        out[n] = n;
    return out;
}

// ------------------------------------------------ differential tests

TEST_P(RandomTopologyTest, RouteMatchesReferenceBfs)
{
    mlps::sim::Rng rng(11000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    auto expectAllRoutesMatch = [&](const char *label) {
        for (NodeId a = 0; a < topo.nodeCount(); ++a) {
            for (NodeId b = 0; b < topo.nodeCount(); ++b) {
                auto fast = topo.route(a, b);
                auto ref = bfsRoute(topo, a, b);
                ASSERT_EQ(fast.has_value(), ref.has_value()) << label;
                if (!ref)
                    continue;
                ASSERT_EQ(fast->nodes, ref->nodes) << label;
                ASSERT_EQ(fast->edges, ref->edges) << label;
            }
        }
    };
    expectAllRoutesMatch("healthy");
    // Downs need not be survivable here: disconnected pairs must
    // agree too.
    for (int round = 0; round < 4; ++round) {
        for (int e = 0; e < topo.edgeCount(); ++e) {
            if (rng.chance(0.25))
                topo.setLinkDown(e, !topo.linkDown(e));
        }
        expectAllRoutesMatch("links down");
        topo.setLinkBandwidthScale(
            static_cast<int>(rng.below(topo.edgeCount())), 0.5);
        expectAllRoutesMatch("bandwidth scaled");
    }
}

TEST_P(RandomTopologyTest, FabricChecksMatchPairwiseBfs)
{
    mlps::sim::Rng rng(12000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    expectFabricChecksMatchOracle(topo, true, rng, 0, "healthy");
    for (int round = 0; round < 4; ++round) {
        for (int e = 0; e < topo.edgeCount(); ++e) {
            if (rng.chance(0.25))
                topo.setLinkDown(e, !topo.linkDown(e));
        }
        expectFabricChecksMatchOracle(topo, true, rng, 0, "links down");
    }
}

TEST(FabricChecks, TableIIIBoxesMatchPairwiseBfsWithEachNvlinkDown)
{
    mlps::sim::Rng rng(13000);
    std::vector<mlps::sys::SystemConfig> boxes = mlps::sys::allMachines();
    boxes.push_back(mlps::sys::dgx1());
    for (mlps::sys::SystemConfig &box : boxes) {
        Topology &topo = box.topo;
        expectFabricChecksMatchOracle(topo, true, rng, 0,
                                      box.name + " healthy");
        for (int e = 0; e < topo.edgeCount(); ++e) {
            if (topo.link(e).kind != LinkKind::NvLink)
                continue;
            topo.setLinkDown(e, true);
            expectFabricChecksMatchOracle(
                topo, true, rng, 0,
                box.name + " NVLink edge " + std::to_string(e) + " down");
            topo.setLinkDown(e, false);
        }
    }
}

TEST(FabricChecks, PodsMatchPairwiseBfs)
{
    mlps::sim::Rng rng(14000);
    for (const char *spec :
         {"pod(C4140 (M),2x2)", "pod(DSS 8440,2x1)", "pod(T640,1x3)"}) {
        mlps::sys::SystemConfig pod;
        std::string error;
        ASSERT_TRUE(mlps::sys::systemFromSpec(spec, &pod, &error))
            << error;
        Topology &topo = pod.topo;
        expectFabricChecksMatchOracle(topo, false, rng, 64,
                                      std::string(spec) + " healthy");
        int nvlinks_downed = 0;
        for (int e = 0; e < topo.edgeCount() && nvlinks_downed < 4; ++e) {
            if (topo.link(e).kind != LinkKind::NvLink)
                continue;
            topo.setLinkDown(e, true);
            ++nvlinks_downed;
            expectFabricChecksMatchOracle(
                topo, false, rng, 16,
                std::string(spec) + " NVLink edge " + std::to_string(e) +
                    " down");
        }
    }
}

TEST_P(RandomTopologyTest, FlowSimMatchesReferenceBitForBit)
{
    mlps::sim::Rng rng(15000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    for (int round = 0; round < 12; ++round) {
        switch (round % 3) {
          case 0:
            topo.resetLinkState();
            break;
          case 1: // bandwidth-scaled links
            for (int e = 0; e < topo.edgeCount(); ++e) {
                if (rng.chance(0.4))
                    topo.setLinkBandwidthScale(e, rng.uniform(0.05, 1.0));
            }
            break;
          default: // down links, rerouting what survives
            for (int e = 0; e < topo.edgeCount(); ++e) {
                if (rng.chance(0.3))
                    downIfSurvivable(topo, e);
            }
            break;
        }
        int count = 1 + static_cast<int>(rng.below(24));
        expectFlowSimMatchesReference(
            topo, randomFlows(topo, rng, count, allNodes(topo)),
            "round " + std::to_string(round));
    }
}

TEST(FlowSimulatorReference, PodsMatchBitForBit)
{
    mlps::sim::Rng rng(16000);
    mlps::sys::SystemConfig healthy =
        mlps::sys::withPod(mlps::sys::c4140M(), 4, 2);
    std::vector<mlps::sys::SystemConfig> pods = {
        healthy,
        mlps::sys::withSpineDegraded(healthy, 0.25),
        mlps::sys::withTorDegraded(healthy, 1, 0.5),
        mlps::sys::withNvlinkEdgeDown(healthy, 3),
    };
    for (const mlps::sys::SystemConfig &pod : pods) {
        for (int trial = 0; trial < 4; ++trial) {
            int count = 8 + static_cast<int>(rng.below(120));
            expectFlowSimMatchesReference(
                pod.topo,
                randomFlows(pod.topo, rng, count, pod.topo.gpus()),
                pod.name + " trial " + std::to_string(trial));
        }
    }
}

// K link-disjoint copies of one random machine carry copies of one
// flow set, so the simulator prices one copy per symmetry class and
// copies its results to the rest. In every case but the first, one
// copy differs from the others in one way; the simulator must tell it
// apart (or prove it an exact copy) and still match the reference,
// which prices every flow, bit for bit.
TEST(FlowSimulatorReference, SymmetricClassesMatchBitForBit)
{
    enum class Odd { None, ScaledLink, Bytes, Start, ConnectOrder, ZeroHop };
    const std::pair<Odd, const char *> cases[] = {
        {Odd::None, "identical"},
        {Odd::ScaledLink, "scaled link"},
        {Odd::Bytes, "different bytes"},
        {Odd::Start, "different start"},
        {Odd::ConnectOrder, "reversed connect order"},
        {Odd::ZeroHop, "zero-hop flow"},
    };
    for (int seed = 0; seed < 60; ++seed) {
        for (const auto &[odd, name] : cases) {
            mlps::sim::Rng rng(17000 + seed);
            MachineRecipe recipe = randomRecipe(rng);
            int copies = 2 + static_cast<int>(rng.below(4));
            int odd_copy = static_cast<int>(rng.below(copies));
            Topology topo;
            std::vector<std::vector<NodeId>> ids;
            for (int c = 0; c < copies; ++c)
                ids.push_back(build(topo, recipe,
                                    "m" + std::to_string(c) + ".",
                                    odd == Odd::ConnectOrder &&
                                        c == odd_copy));

            // One flow set over the recipe's nodes: zero-hop and
            // zero-byte flows included, starts all at zero or
            // staggered.
            struct Local {
                int from;
                int to;
                double bytes;
                double start_s;
            };
            std::vector<Local> flows;
            bool staggered = rng.chance(0.5);
            int count = 1 + static_cast<int>(rng.below(12));
            int n = static_cast<int>(recipe.nodes.size());
            for (int i = 0; i < count; ++i) {
                Local f;
                f.from = static_cast<int>(rng.below(n));
                f.to = rng.chance(0.1) ? f.from
                                       : static_cast<int>(rng.below(n));
                f.bytes = rng.chance(0.1) ? 0.0 : rng.uniform(1e5, 5e8);
                f.start_s = staggered ? rng.uniform(0.0, 0.02) : 0.0;
                flows.push_back(f);
            }
            if (odd == Odd::ZeroHop)
                flows.push_back({n - 1, n - 1, 1e6, 0.0});
            int odd_flow = static_cast<int>(rng.below(flows.size()));

            std::vector<FlowWant> wants;
            auto want = [&](int c, int k) {
                Local f = flows[k];
                if (c == odd_copy && k == odd_flow) {
                    if (odd == Odd::Bytes)
                        f.bytes = f.bytes * 1.5 + 1e5;
                    if (odd == Odd::Start)
                        f.start_s += 1e-3;
                    if (odd == Odd::ZeroHop)
                        f.to = f.from;
                }
                wants.push_back({ids[c][f.from], ids[c][f.to], f.bytes,
                                 f.start_s});
            };
            // Copy after copy, or flow k of every copy in turn.
            bool interleaved = rng.chance(0.5);
            for (int i = 0; i < copies * static_cast<int>(flows.size());
                 ++i) {
                int per = static_cast<int>(flows.size());
                if (interleaved)
                    want(i % copies, i / copies);
                else
                    want(i / per, i % per);
            }
            if (odd == Odd::ScaledLink) {
                // Halve the first link of the odd copy's first routed
                // flow; routes stay as they are.
                for (int k = 0; k < static_cast<int>(flows.size()); ++k) {
                    auto p = topo.route(ids[odd_copy][flows[k].from],
                                        ids[odd_copy][flows[k].to]);
                    if (p->hops() > 0) {
                        topo.setLinkBandwidthScale(p->edges[0], 0.5);
                        break;
                    }
                }
            }
            expectFlowSimMatchesReference(
                topo, wants,
                std::string(name) + ", seed " + std::to_string(seed));
        }
    }

    // Fair sharing breaks equal-share ties on the lowest slot, and
    // which tied slot freezes first can move a rate by an ulp. A copy
    // connected in reverse orders its slots the other way, so it must
    // be a class of its own. Ties that reach the results are rare:
    // these seeds of random flows over a switch and four or fewer GPUs
    // are ones where they do, which the reference confirms first.
    for (int seed : {4009, 4166, 5741, 7173}) {
        mlps::sim::Rng rng(seed);
        int gpus = 3 + static_cast<int>(rng.below(4));
        MachineRecipe star;
        star.nodes.emplace_back(NodeKind::PcieSwitch, "SW");
        for (int g = 1; g <= gpus; ++g) {
            star.nodes.emplace_back(NodeKind::Gpu,
                                    "GPU" + std::to_string(g - 1));
            star.links.push_back({0, g, pcie3(16)});
        }
        std::vector<FlowWant> local;
        int count = 2 + static_cast<int>(rng.below(12));
        for (int k = 0; k < count; ++k) {
            int from = 1 + static_cast<int>(rng.below(gpus));
            int to = 1 + static_cast<int>(rng.below(gpus));
            if (from != to)
                local.push_back({from, to, rng.uniform(1e5, 5e8), 0.0});
        }
        Topology topo;
        std::vector<FlowWant> wants;
        for (bool reversed : {false, true}) {
            std::vector<NodeId> id =
                build(topo, star, reversed ? "b." : "a.", reversed);
            for (const FlowWant &w : local)
                wants.push_back({id[w.from], id[w.to], w.bytes, 0.0});
        }
        ReferenceFlowSim ref(topo);
        for (const FlowWant &w : wants)
            ref.addFlow(w.from, w.to, w.bytes, w.start_s);
        ref.run();
        bool copies_differ = false;
        for (std::size_t k = 0; k < local.size(); ++k)
            copies_differ =
                copies_differ ||
                bits(ref.reports()[k].finish_s) !=
                    bits(ref.reports()[k + local.size()].finish_s);
        EXPECT_TRUE(copies_differ) << "seed " << seed;
        expectFlowSimMatchesReference(
            topo, wants, "tied slots, seed " + std::to_string(seed));
    }
}

// The all-reduce models against their per-algorithm oracle copies
// (net_reference.h): every public entry point, every result field,
// bit for bit, on boxes, pods, degraded fabrics and degenerate shapes.

/** Every field of two all-reduce results, bit for bit. */
void
expectSameAllReduce(const AllReduceResult &got, const AllReduceResult &want,
                    const std::string &what)
{
    EXPECT_EQ(got.seconds, want.seconds) << what;
    EXPECT_EQ(got.fabric, want.fabric) << what;
    EXPECT_EQ(got.nvlink_bytes, want.nvlink_bytes) << what;
    EXPECT_EQ(got.pcie_bytes, want.pcie_bytes) << what;
    EXPECT_EQ(got.upi_bytes, want.upi_bytes) << what;
    EXPECT_EQ(got.eth_bytes, want.eth_bytes) << what;
    for (int t = 0; t < kNumFabricTiers; ++t)
        EXPECT_EQ(got.tier_bytes[t], want.tier_bytes[t])
            << what << " tier " << t;
    EXPECT_EQ(got.reroutes, want.reroutes) << what;
}

/** How often the oracle's auto picked each multi-rack candidate. */
struct AutoBranches {
    int ring2d = 0;
    int tree = 0;
};

/**
 * The four all-reduce entry points on one GPU set against their
 * oracle copies, at each payload, with default tunables and with
 * several buckets behind a 2x straggler.
 */
void
expectAllReduceMatchesReference(const Topology &topo,
                                const std::vector<NodeId> &gpus,
                                const std::vector<double> &payloads,
                                const std::string &label,
                                AutoBranches *branches = nullptr)
{
    namespace ref = mlps::reference;
    AllReduceParams straggler;
    straggler.buckets = 7;
    straggler.slowest_participant_scale = 2.0;
    FabricShape shape = fabricShape(topo, gpus);
    bool multi_rack = shape.node_groups.size() > 1 && shape.uniform() &&
                      shape.rack_groups.size() > 1;
    for (const AllReduceParams &p : {AllReduceParams{}, straggler}) {
        for (double bytes : payloads) {
            std::string what = label + ", " + std::to_string(bytes) +
                               " B, buckets " +
                               std::to_string(p.buckets);
            expectSameAllReduce(ringAllReduce(topo, gpus, bytes, p),
                                ref::ringAllReduce(topo, gpus, bytes, p),
                                "ring: " + what);
            AllReduceResult ring2d =
                ref::hierarchicalRingAllReduce(topo, gpus, bytes, p);
            AllReduceResult tree =
                ref::hierarchicalTreeAllReduce(topo, gpus, bytes, p);
            expectSameAllReduce(
                hierarchicalRingAllReduce(topo, gpus, bytes, p), ring2d,
                "2d ring: " + what);
            expectSameAllReduce(
                hierarchicalTreeAllReduce(topo, gpus, bytes, p), tree,
                "tree: " + what);
            expectSameAllReduce(
                autoHierarchicalAllReduce(topo, gpus, bytes, p),
                ref::autoHierarchicalAllReduce(topo, gpus, bytes, p),
                "auto: " + what);
            if (branches && multi_rack && bytes > 0.0)
                ++(ring2d.seconds <= tree.seconds ? branches->ring2d
                                                  : branches->tree);
        }
    }
}

/** Payloads: none, one the cross-rack tree wins, one the 2D ring
 *  wins. */
const std::vector<double> kAllReducePayloads = {0.0, 64.0 * 1024,
                                                256.0 * 1024 * 1024};

TEST_P(RandomTopologyTest, MatchesAllReduceReference)
{
    mlps::sim::Rng rng(17000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    expectAllReduceMatchesReference(topo, topo.gpus(), kAllReducePayloads,
                                    "healthy");
    // Down links re-chain the ring and count reroutes.
    for (int e = 0; e < topo.edgeCount(); ++e) {
        if (rng.chance(0.3))
            downIfSurvivable(topo, e);
    }
    expectAllReduceMatchesReference(topo, topo.gpus(), kAllReducePayloads,
                                    "links down");
}

TEST(AllReduceReference, PodsMatchBitForBit)
{
    using mlps::sys::SystemConfig;
    namespace sys = mlps::sys;
    SystemConfig pod4x4 = sys::withPod(sys::c4140M(), 4, 4);
    SystemConfig pod16x8 = sys::withPod(sys::c4140M(), 16, 8);
    SystemConfig nvdown4x4 = pod4x4;
    sys::applyDegradedLinks(nvdown4x4, "r1n2.GPU0-r1n2.GPU1:down");
    SystemConfig nvdown16x8 = pod16x8;
    sys::applyDegradedLinks(nvdown16x8, "r3n5.GPU0-r3n5.GPU1:down");
    struct Case {
        SystemConfig system;
        int gpus; // 0 = every GPU
    };
    const Case cases[] = {
        {pod4x4, 0},
        {sys::withPod(sys::c4140M(), 1, 1, 0), 0},
        {sys::withPod(sys::c4140M(), 1, 4), 0},
        {sys::withTorDegraded(pod4x4, 0, 0.25), 0},
        {sys::withSpineDegraded(pod4x4, 0.25), 0},
        {nvdown4x4, 0},
        {pod4x4, 6}, // non-uniform: one full 4-GPU host and a half
        {sys::dss8440(), 0},
        // The systems and GPU counts of the explain goldens (the first
        // is the whole 16x8 pod).
        {pod16x8, 512},
        {sys::withSpineDegraded(pod16x8, 0.25), 512},
        {sys::dss8440(), 8},
        {pod16x8, 64},
        {nvdown16x8, 512},
    };
    AutoBranches branches;
    for (const Case &c : cases) {
        std::vector<NodeId> gpus =
            c.gpus ? c.system.gpuSubset(c.gpus) : c.system.gpu_nodes;
        expectAllReduceMatchesReference(
            c.system.topo, gpus, kAllReducePayloads,
            c.system.name + " x" + std::to_string(gpus.size()),
            &branches);
    }
    // Both of the auto's multi-rack candidates won somewhere, so the
    // comparison covered each.
    EXPECT_GT(branches.ring2d, 0);
    EXPECT_GT(branches.tree, 0);
}

// ------------------------------------------------ route composition

using NodePairs = std::vector<std::pair<NodeId, NodeId>>;

/** Expect route() to give the reference BFS's path, or nullopt with
 *  it, for every pair. */
void
expectRoutesMatchReference(const Topology &topo, const NodePairs &pairs,
                           const std::string &label)
{
    for (auto [a, b] : pairs) {
        std::optional<Path> got = topo.route(a, b);
        std::optional<Path> want = bfsRoute(topo, a, b);
        const std::string where =
            label + ": " + topo.name(a) + " -> " + topo.name(b);
        ASSERT_EQ(got.has_value(), want.has_value()) << where;
        if (!want)
            continue;
        ASSERT_EQ(got->nodes, want->nodes) << where;
        ASSERT_EQ(got->edges, want->edges) << where;
    }
}

NodePairs
allPairs(const Topology &topo)
{
    NodePairs out;
    for (NodeId a = 0; a < topo.nodeCount(); ++a) {
        for (NodeId b = 0; b < topo.nodeCount(); ++b)
            out.emplace_back(a, b);
    }
    return out;
}

/** 'count' seeded pairs: half between GPUs, half between any nodes. */
NodePairs
randomPairs(const Topology &topo, mlps::sim::Rng &rng, int count)
{
    const std::vector<NodeId> gpus = topo.gpus();
    const std::vector<NodeId> nodes = allNodes(topo);
    NodePairs out;
    for (int i = 0; i < count; ++i) {
        const std::vector<NodeId> &from = i % 2 ? nodes : gpus;
        out.emplace_back(from[rng.below(from.size())],
                         from[rng.below(from.size())]);
    }
    return out;
}

/**
 * A pod wired by hand: racks x hosts hosts, each two CPUs joined by
 * UPI with two GPUs per CPU (one NVLink pair per CPU), a NIC on CPU0
 * and, on the hosts 'two_nics' accepts, a second NIC on CPU1; every
 * NIC uplinks to its rack's ToR and every ToR to each spine.
 */
Topology
handBuiltPod(int racks, int hosts, int spines,
             const std::function<bool(int rack, int host)> &two_nics)
{
    Topology topo;
    std::vector<NodeId> spine;
    for (int s = 0; s < spines; ++s)
        spine.push_back(topo.addSpineSwitch("spine" + std::to_string(s)));
    for (int r = 0; r < racks; ++r) {
        const std::string rack = "r" + std::to_string(r);
        NodeId tor = topo.addTorSwitch("tor" + std::to_string(r));
        for (NodeId s : spine)
            topo.connect(tor, s, ethernet(100.0, FabricTier::CrossRack));
        for (int h = 0; h < hosts; ++h) {
            const std::string p = rack + "n" + std::to_string(h) + ".";
            NodeId cpu[2] = {topo.addCpu(p + "CPU0"),
                             topo.addCpu(p + "CPU1")};
            topo.connect(cpu[0], cpu[1], upi());
            for (int c = 0; c < 2; ++c) {
                NodeId g0 = topo.addGpu(p + "GPU" + std::to_string(2 * c));
                NodeId g1 =
                    topo.addGpu(p + "GPU" + std::to_string(2 * c + 1));
                topo.connect(g0, cpu[c], pcie3(16));
                topo.connect(g1, cpu[c], pcie3(16));
                topo.connect(g0, g1, nvlink(2));
            }
            for (int n = 0; n < (two_nics(r, h) ? 2 : 1); ++n) {
                NodeId nic = topo.addNic(p + "NIC" + std::to_string(n));
                topo.connect(cpu[n], nic, pcie3(16));
                topo.connect(nic, tor,
                             ethernet(100.0, FabricTier::IntraRack));
            }
        }
    }
    topo.validate();
    return topo;
}

TEST(RouteReference, BoxesAllPairs)
{
    std::vector<mlps::sys::SystemConfig> boxes = mlps::sys::allMachines();
    boxes.push_back(mlps::sys::dgx1());
    for (const mlps::sys::SystemConfig &box : boxes)
        expectRoutesMatchReference(box.topo, allPairs(box.topo), box.name);
}

TEST(RouteReference, SmallPodsAllPairs)
{
    for (const mlps::sys::SystemConfig &box : mlps::sys::allMachines()) {
        for (auto [racks, hosts] : {std::pair{1, 4}, {4, 1}, {2, 4}}) {
            mlps::sys::SystemConfig pod =
                mlps::sys::withPod(box, racks, hosts);
            expectRoutesMatchReference(pod.topo, allPairs(pod.topo),
                                       pod.name);
        }
    }
}

TEST(RouteReference, FullPodsRandomPairs)
{
    mlps::sim::Rng rng(21000);
    for (const mlps::sys::SystemConfig &box : mlps::sys::allMachines()) {
        for (int spines : {1, 2}) {
            mlps::sys::SystemConfig pod =
                mlps::sys::withPod(box, 16, 8, spines);
            expectRoutesMatchReference(
                pod.topo, randomPairs(pod.topo, rng, 600),
                pod.name + " spines=" + std::to_string(spines));
        }
    }
}

// Downs need not be survivable: a host whose NIC uplink or CPU-NIC
// link is down is stranded, and every route into it must be nullopt.
TEST(RouteReference, DownLinksAndStrandedHosts)
{
    mlps::sim::Rng rng(22000);
    for (const mlps::sys::SystemConfig &box :
         {mlps::sys::c4140M(), mlps::sys::dss8440(), mlps::sys::t640()}) {
        mlps::sys::SystemConfig pod = mlps::sys::withPod(box, 4, 4);
        Topology &topo = pod.topo;
        std::vector<int> host_links; // CPU-NIC and NIC-ToR edges
        for (int e = 0; e < topo.edgeCount(); ++e) {
            auto [a, b] = topo.endpoints(e);
            if (topo.kind(a) == NodeKind::Nic ||
                topo.kind(b) == NodeKind::Nic)
                host_links.push_back(e);
        }
        for (int round = 0; round < 6; ++round) {
            for (int e = 0; e < topo.edgeCount(); ++e) {
                if (rng.chance(0.03))
                    topo.setLinkDown(e, !topo.linkDown(e));
            }
            int strand = host_links[rng.below(host_links.size())];
            topo.setLinkDown(strand, true);
            const std::string label =
                pod.name + " round " + std::to_string(round);
            expectRoutesMatchReference(topo, randomPairs(topo, rng, 600),
                                       label + " down");
            // Every route into and out of the stranded host.
            auto [a, b] = topo.endpoints(strand);
            NodePairs stranded;
            for (NodeId g : topo.gpus()) {
                stranded.emplace_back(g, a);
                stranded.emplace_back(b, g);
            }
            expectRoutesMatchReference(topo, stranded, label + " stranded");
            topo.setLinkBandwidthScale(
                static_cast<int>(rng.below(topo.edgeCount())),
                rng.uniform(0.1, 0.9));
            expectRoutesMatchReference(topo, randomPairs(topo, rng, 200),
                                       label + " scaled");
        }
    }
}

/** The node named 'name'. */
NodeId
nodeNamed(const Topology &topo, const std::string &name)
{
    for (NodeId n = 0; n < topo.nodeCount(); ++n) {
        if (topo.name(n) == name)
            return n;
    }
    ADD_FAILURE() << "no node " << name;
    return 0;
}

// A host with two NICs has two exits, so its cell has no gateway and
// its routes must come from plain BFS; its one-NIC neighbours still
// compose.
TEST(RouteReference, TwoNicHostFallsBackToBfs)
{
    for (int spines : {1, 2}) {
        Topology topo = handBuiltPod(
            3, 3, spines, [](int rack, int host) { return host == rack; });
        const std::string label = "spines=" + std::to_string(spines);
        expectRoutesMatchReference(topo, allPairs(topo), label);
        // With a NIC down, the two-NIC host keeps one exit.
        for (int e = 0; e < topo.edgeCount(); ++e) {
            auto [a, b] = topo.endpoints(e);
            if (topo.name(a) == "r1n1.CPU0" && topo.kind(b) == NodeKind::Nic)
                topo.setLinkDown(e, true);
        }
        ASSERT_TRUE(topo.anyLinkDown());
        expectRoutesMatchReference(topo, allPairs(topo),
                                   label + " one NIC down");
    }
}

// Growing a topology after it routed must re-index its gateways: a
// second NIC takes the host's gateway away.
TEST(RouteReference, GrowingAfterRoutingReindexes)
{
    Topology topo = handBuiltPod(2, 2, 1, [](int, int) { return false; });
    expectRoutesMatchReference(topo, allPairs(topo), "one NIC each");
    NodeId nic = topo.addNic("r1n0.NIC1");
    topo.connect(nodeNamed(topo, "r1n0.CPU1"), nic, pcie3(16));
    topo.connect(nic, nodeNamed(topo, "tor1"),
                 ethernet(100.0, FabricTier::IntraRack));
    expectRoutesMatchReference(topo, allPairs(topo), "second NIC");
}

// Copies of one freshly built graph route in parallel, so the first
// route lookups on the shared graph race under the sanitizers.
TEST(RouteReference, ThreadsRouteCopiesOfAFreshGraph)
{
    const Topology built =
        handBuiltPod(3, 3, 2, [](int, int host) { return host == 2; });
    const NodePairs pairs = allPairs(built);
    constexpr int kThreads = 4;
    std::vector<std::vector<std::optional<Path>>> got(kThreads);
    std::vector<Topology> copies(kThreads, built);
    std::latch start(kThreads); // so that the first lookups overlap
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            // Each thread walks the pairs from its own offset.
            got[t].resize(pairs.size());
            for (std::size_t i = 0; i < pairs.size(); ++i) {
                std::size_t k = (i + t * pairs.size() / kThreads) %
                                pairs.size();
                got[t][k] = copies[t].route(pairs[k].first,
                                            pairs[k].second);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        std::optional<Path> want =
            bfsRoute(built, pairs[k].first, pairs[k].second);
        ASSERT_TRUE(want.has_value());
        for (int t = 0; t < kThreads; ++t) {
            ASSERT_TRUE(got[t][k].has_value());
            ASSERT_EQ(got[t][k]->nodes, want->nodes);
            ASSERT_EQ(got[t][k]->edges, want->edges);
        }
    }
}

// ------------------------------------------------ pod host copies
//
// Every host of a pod is a copy of the first, so it carries the same
// traffic. The tests below price pods whose hosts are copies and pods
// where one thing breaks the copy, and compare every result with the
// oracles, which simulate every flow.

using mlps::sys::SystemConfig;

/** The boxes the pod grammar composes: every Table III box and the
 *  reference machine. */
std::vector<SystemConfig>
podBoxes()
{
    std::vector<SystemConfig> boxes = mlps::sys::allMachines();
    boxes.push_back(mlps::sys::mlperfReference());
    return boxes;
}

/** A racks x hosts pod of 'box': healthy, spine-scaled, ToR-scaled. */
std::vector<SystemConfig>
podFabrics(const SystemConfig &box, int racks, int hosts)
{
    SystemConfig pod = mlps::sys::withPod(box, racks, hosts);
    return {pod, mlps::sys::withSpineDegraded(pod, 0.25),
            mlps::sys::withTorDegraded(pod, 1, 0.5)};
}

/** Each host's nodes, in id order: the nodes named "r<R>n<N>.*",
 *  hosts in rack-major order. */
std::vector<std::vector<NodeId>>
podHostNodes(const Topology &topo)
{
    std::vector<std::vector<NodeId>> hosts;
    std::string current;
    for (NodeId n = 0; n < topo.nodeCount(); ++n) {
        const std::string &name = topo.name(n);
        std::size_t dot = name.find('.');
        if (name[0] != 'r' || dot == std::string::npos)
            continue;
        if (hosts.empty() || name.compare(0, dot + 1, current) != 0) {
            current = name.substr(0, dot + 1);
            hosts.emplace_back();
        }
        hosts.back().push_back(n);
    }
    return hosts;
}

/** First edge of 'kind' with both ends among 'nodes', or -1. */
int
edgeInside(const Topology &topo, const std::vector<NodeId> &nodes,
           LinkKind kind)
{
    for (int e = 0; e < topo.edgeCount(); ++e) {
        auto [a, b] = topo.endpoints(e);
        if (topo.link(e).kind == kind &&
            std::find(nodes.begin(), nodes.end(), a) != nodes.end() &&
            std::find(nodes.begin(), nodes.end(), b) != nodes.end())
            return e;
    }
    return -1;
}

/**
 * Leaf of a hand-built pod host: two CPUs joined by UPI, two GPUs per
 * CPU (an NVLink pair on each), and, when 'two_nics' accepts the host,
 * a second NIC on CPU1 uplinked to its rack's ToR. The pod builder
 * adds the first NIC.
 */
LeafBuilder
twoSocketLeaf(const std::function<bool(const std::string &prefix)> &two_nics)
{
    return [two_nics](Topology &topo, const std::string &p) {
        LeafNodes leaf;
        leaf.cpus = {topo.addCpu(p + "CPU0"), topo.addCpu(p + "CPU1")};
        topo.connect(leaf.cpus[0], leaf.cpus[1], upi());
        for (int c = 0; c < 2; ++c) {
            NodeId g0 = topo.addGpu(p + "GPU" + std::to_string(2 * c));
            NodeId g1 = topo.addGpu(p + "GPU" + std::to_string(2 * c + 1));
            topo.connect(g0, leaf.cpus[c], pcie3(16));
            topo.connect(g1, leaf.cpus[c], pcie3(16));
            topo.connect(g0, g1, nvlink(2));
            leaf.gpus.push_back(g0);
            leaf.gpus.push_back(g1);
        }
        if (two_nics(p)) {
            // "r<R>n<N>." sits in rack R, under "tor<R>".
            const std::string tor =
                "tor" + p.substr(1, p.find('n') - 1);
            NodeId nic = topo.addNic(p + "NIC1");
            topo.connect(leaf.cpus[1], nic, pcie3(16));
            for (NodeId n = 0; n < topo.nodeCount(); ++n) {
                if (topo.name(n) == tor)
                    topo.connect(nic, n,
                                 ethernet(100.0, FabricTier::IntraRack));
            }
        }
        return leaf;
    };
}

/** A racks x hosts pod of twoSocketLeaf() hosts as a system. */
SystemConfig
twoSocketPod(int racks, int hosts,
             const std::function<bool(const std::string &)> &two_nics)
{
    PodShape shape;
    shape.racks = racks;
    shape.nodes_per_rack = hosts;
    PodTopology pod = buildPodTopology(shape, twoSocketLeaf(two_nics));
    SystemConfig s = mlps::sys::c4140M();
    s.name = "two-socket pod " + std::to_string(racks) + "x" +
             std::to_string(hosts);
    s.topo = std::move(pod.topo);
    s.cpu_nodes.clear();
    s.gpu_nodes = pod.gpus;
    s.switch_nodes.clear();
    for (const PodHost &host : pod.hosts)
        s.cpu_nodes.insert(s.cpu_nodes.end(), host.cpus.begin(),
                           host.cpus.end());
    s.num_cpus = static_cast<int>(s.cpu_nodes.size());
    s.num_gpus = static_cast<int>(s.gpu_nodes.size());
    s.validate();
    return s;
}

/** A system and the GPU count to price on it (0 = every GPU). */
struct PodCase {
    SystemConfig system;
    int gpus = 0;
    std::string label;
};

/**
 * twoSocketPod(racks, hosts) with one more host wired into rack 1 by
 * hand, after the pod was built: racks of unequal size.
 */
SystemConfig
unequalRackPod(int racks, int hosts)
{
    SystemConfig s = twoSocketPod(racks, hosts,
                                  [](const std::string &) { return false; });
    const std::string p = "r1n" + std::to_string(hosts) + ".";
    LeafNodes leaf =
        twoSocketLeaf([](const std::string &) { return false; })(s.topo, p);
    NodeId nic = s.topo.addNic(p + "NIC0");
    s.topo.connect(leaf.cpus[0], nic, pcie3(16));
    s.topo.connect(nic, nodeNamed(s.topo, "tor1"),
                   ethernet(100.0, FabricTier::IntraRack));
    s.name += ", rack 1 one host larger";
    s.cpu_nodes.insert(s.cpu_nodes.end(), leaf.cpus.begin(), leaf.cpus.end());
    s.gpu_nodes.insert(s.gpu_nodes.end(), leaf.gpus.begin(), leaf.gpus.end());
    s.num_cpus = static_cast<int>(s.cpu_nodes.size());
    s.num_gpus = static_cast<int>(s.gpu_nodes.size());
    s.validate();
    return s;
}

// ------------------------------------------------ graph adjacency
//
// The graph's incident-edge lists must list, for each node, the ids of
// the edges touching it in ascending order (connect order), as the
// edge list alone says.

/** Per node, the ascending ids of the edges touching it. */
std::vector<std::vector<int>>
edgesTouching(const Topology &topo)
{
    std::vector<std::vector<int>> touching(topo.nodeCount());
    for (int e = 0; e < topo.edgeCount(); ++e) {
        auto [a, b] = topo.endpoints(e);
        touching[a].push_back(e);
        touching[b].push_back(e);
    }
    return touching;
}

/** incidentEdges(n) of every node, copied. */
std::vector<std::vector<int>>
incidentLists(const Topology &topo)
{
    std::vector<std::vector<int>> lists;
    for (NodeId n = 0; n < topo.nodeCount(); ++n) {
        const auto &edges = topo.incidentEdges(n);
        lists.emplace_back(edges.begin(), edges.end());
    }
    return lists;
}

void
expectAdjacencyMatchesEdgeList(const Topology &topo, const std::string &label)
{
    const std::vector<std::vector<int>> want = edgesTouching(topo);
    const std::vector<std::vector<int>> got = incidentLists(topo);
    ASSERT_EQ(got.size(), want.size()) << label;
    for (NodeId n = 0; n < topo.nodeCount(); ++n)
        ASSERT_EQ(got[n], want[n]) << label << ": " << topo.name(n);
}

TEST(Topology, AdjacencyMatchesEdgeList)
{
    for (const SystemConfig &box : podBoxes()) {
        expectAdjacencyMatchesEdgeList(box.topo, box.name);
        for (auto [racks, hosts] : {std::pair{4, 4}, {16, 8}}) {
            const SystemConfig pod = mlps::sys::withPod(box, racks, hosts);
            expectAdjacencyMatchesEdgeList(pod.topo, pod.name);
        }
    }
    const SystemConfig two_nic = twoSocketPod(
        3, 3, [](const std::string &p) { return p == "r1n1."; });
    expectAdjacencyMatchesEdgeList(two_nic.topo, two_nic.name);
    const SystemConfig unequal = unequalRackPod(3, 3);
    expectAdjacencyMatchesEdgeList(unequal.topo, unequal.name);

    // A shared copy edited after its graph was read: the edit copies
    // the graph, and each side keeps its own lists.
    const Topology original = mlps::sys::withPod(mlps::sys::c4140M(), 2, 2).topo;
    expectAdjacencyMatchesEdgeList(original, "2x2 before the edit");
    ASSERT_TRUE(original.route(0, original.nodeCount() - 1).has_value());
    Topology edited = original;
    NodeId nic = edited.addNic("r1n1.NIC1");
    edited.connect(nodeNamed(edited, "r1n1.CPU1"), nic, pcie3(16));
    edited.connect(nic, nodeNamed(edited, "tor1"),
                   ethernet(100.0, FabricTier::IntraRack));
    expectAdjacencyMatchesEdgeList(edited, "2x2 with a second NIC");
    expectAdjacencyMatchesEdgeList(original, "2x2 after the edit");
    EXPECT_EQ(edited.edgeCount(), original.edgeCount() + 2);
}

// Copies of one fresh graph read it in parallel, each thread starting
// with a different one of incidentEdges, hostCpu and route, so that
// the first reads race to index the shared graph.
TEST(Topology, AdjacencyMatchesEdgeListAcrossThreads)
{
    const SystemConfig fresh = mlps::sys::withPod(mlps::sys::c4140M(), 4, 4);
    const std::vector<NodeId> &gpus = fresh.gpu_nodes;
    constexpr int kThreads = 4;
    std::vector<Topology> copies(kThreads, fresh.topo);
    std::vector<std::vector<std::vector<int>>> lists(kThreads);
    std::vector<std::vector<std::optional<NodeId>>> cpus(kThreads);
    std::vector<std::vector<std::optional<Path>>> routes(kThreads);
    std::latch start(kThreads); // so that the first reads overlap
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const Topology &topo = copies[t];
            start.arrive_and_wait();
            for (int i = 0; i < 3; ++i) {
                switch ((t + i) % 3) {
                  case 0:
                    lists[t] = incidentLists(topo);
                    break;
                  case 1:
                    for (NodeId g : gpus)
                        cpus[t].push_back(topo.hostCpu(g));
                    break;
                  default:
                    for (NodeId g : gpus)
                        routes[t].push_back(topo.route(gpus[t], g));
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    using mlps::reference::referenceHostCpu;
    const std::vector<std::vector<int>> want = edgesTouching(fresh.topo);
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(lists[t], want) << "thread " << t;
        for (std::size_t i = 0; i < gpus.size(); ++i) {
            EXPECT_EQ(cpus[t][i], referenceHostCpu(fresh.topo, gpus[i]))
                << "thread " << t << " " << fresh.topo.name(gpus[i]);
            std::optional<Path> way = bfsRoute(fresh.topo, gpus[t], gpus[i]);
            ASSERT_TRUE(way.has_value() && routes[t][i].has_value());
            EXPECT_EQ(routes[t][i]->nodes, way->nodes);
            EXPECT_EQ(routes[t][i]->edges, way->edges);
        }
    }
}

/**
 * Degraded links on a pod of 'hosts' hosts per rack that leave blocks
 * other than the first to price as one another's copies: r0n0 and
 * r2n3 degraded alike, so that one class of hosts has two members;
 * host r0n1 degraded, so that the first host keeps its class; and
 * every host of rack 0 degraded alike.
 */
std::vector<std::string>
degradedBlocks(int hosts)
{
    std::string rack0;
    for (int h = 0; h < hosts; ++h) {
        const std::string n = "r0n" + std::to_string(h);
        rack0 += (h ? "," : "") + n + ".NIC0-tor0:0.5";
    }
    return {"r0n0.GPU0-r0n0.GPU1:0.25,r2n3.GPU0-r2n3.GPU1:0.25",
            "r0n1.CPU0-r0n1.NIC0:0.5", rack0};
}

/**
 * Pods where some host or rack is not a copy of the first: a link down
 * or a bandwidth scale inside one host, a NIC uplink scaled in rack 3,
 * the first rack's first host scaled, the degradedBlocks() cases,
 * rack 3's spine uplinks scaled
 * (outside every rack), GPU sets that end inside a host or a rack, and
 * hand-built pods with a two-NIC host, only two-NIC hosts or racks of
 * unequal size.
 */
std::vector<PodCase>
templateBreakers()
{
    namespace sys = mlps::sys;
    std::vector<PodCase> cases;
    for (auto [racks, hosts] : {std::pair{4, 4}, {16, 8}}) {
        const std::string shape =
            std::to_string(racks) + "x" + std::to_string(hosts);
        std::vector<std::string> degraded = {"r3n1.NIC0-tor3:0.5",
                                             "r0n0.NIC0-tor0:0.5",
                                             "r0n0.GPU0-r0n0.GPU1:0.25"};
        for (const std::string &links : degradedBlocks(hosts))
            degraded.push_back(links);
        for (const std::string &links : degraded) {
            SystemConfig pod = sys::withPod(sys::c4140M(), racks, hosts);
            sys::applyDegradedLinks(pod, links);
            cases.push_back({pod, 0, "C4140 (M) " + shape + " " + links});
        }
        cases.push_back(
            {sys::withTorDegraded(sys::withPod(sys::c4140M(), racks, hosts),
                                  3, 0.5),
             0, "C4140 (M) " + shape + " rack 3 spine uplinks x0.5"});
        // One and a half racks.
        cases.push_back({sys::withPod(sys::c4140M(), racks, hosts),
                         4 * (hosts + hosts / 2),
                         "C4140 (M) " + shape + " first " +
                             std::to_string(4 * (hosts + hosts / 2)) +
                             " GPUs"});
        for (const SystemConfig &box : {sys::c4140M(), sys::c4140K()}) {
            SystemConfig pod = sys::withPod(box, racks, hosts);
            sys::applyDegradedLinks(pod, "r0n3.GPU0-r0n3.GPU1:down");
            cases.push_back({pod, 0, box.name + " " + shape +
                                         " NVLink down in host 3"});
        }
        for (const SystemConfig &box : {sys::c4140M(), sys::t640(),
                                        sys::dss8440()}) {
            SystemConfig pod = sys::withPod(box, racks, hosts);
            int e = edgeInside(pod.topo, podHostNodes(pod.topo)[5],
                               LinkKind::Pcie3);
            pod.topo.setLinkBandwidthScale(e, 0.5);
            cases.push_back(
                {pod, 0, box.name + " " + shape + " PCIe x0.5 in host 5"});
        }
        SystemConfig pod = sys::withPod(sys::c4140M(), racks, hosts);
        for (int gpus : {6, 4 * 9 + 2})
            cases.push_back({pod, gpus,
                             "C4140 (M) " + shape + " first " +
                                 std::to_string(gpus) + " GPUs"});
    }
    cases.push_back({twoSocketPod(3, 3,
                                  [](const std::string &p) {
                                      return p == "r1n1.";
                                  }),
                     0, "two-socket 3x3, host r1n1 with two NICs"});
    cases.push_back({twoSocketPod(3, 3,
                                  [](const std::string &p) {
                                      return p == "r0n0.";
                                  }),
                     0, "two-socket 3x3, host r0n0 with two NICs"});
    cases.push_back(
        {twoSocketPod(3, 3, [](const std::string &) { return true; }), 0,
         "two-socket 3x3, every host with two NICs"});
    cases.push_back(
        {twoSocketPod(3, 3, [](const std::string &) { return false; }), 0,
         "two-socket 3x3"});
    SystemConfig unequal = unequalRackPod(3, 3);
    cases.push_back({unequal, 0, unequal.name});
    return cases;
}

/**
 * Pods whose 2D ring host pairs are not all copies of the first pairs:
 * the spine scaled, so that cross-rack pairs run slower than the
 * intra-rack pairs that share their hosts' NIC uplinks; an NVLink down
 * in r5n2; pods whose wrap pair closes the ring after two or four
 * racks; a single rack.
 */
std::vector<PodCase>
pairBreakers()
{
    namespace sys = mlps::sys;
    const SystemConfig pod = sys::withPod(sys::c4140M(), 16, 8);
    SystemConfig nvdown = pod;
    sys::applyDegradedLinks(nvdown, "r5n2.GPU0-r5n2.GPU1:down");
    std::vector<PodCase> cases = {
        {sys::withSpineDegraded(sys::withPod(sys::c4140M(), 4, 4), 0.5), 0,
         "C4140 (M) 4x4 spine x0.5"},
        {sys::withSpineDegraded(pod, 0.5), 0, "C4140 (M) 16x8 spine x0.5"},
        {nvdown, 0, "C4140 (M) 16x8 NVLink down in r5n2"},
    };
    for (auto [racks, hosts] : {std::pair{2, 4}, {4, 2}, {1, 8}})
        cases.push_back({sys::withPod(sys::c4140M(), racks, hosts), 0,
                         "C4140 (M) " + std::to_string(racks) + "x" +
                             std::to_string(hosts)});
    return cases;
}

/** Payloads for the pods: one the cross-rack tree wins, one the 2D
 *  ring wins. */
const std::vector<double> kPodPayloads = {64.0 * 1024, 256.0 * 1024 * 1024};

/** The pods of one box of podBoxes(), indexed by the parameter: one
 *  ctest case per box, so that a parallel run spreads the oracle. */
class AllReduceReferencePods : public ::testing::TestWithParam<int>
{
};

TEST_P(AllReduceReferencePods, MatchTheOracle)
{
    const SystemConfig box = podBoxes().at(GetParam());
    for (auto [racks, hosts] : {std::pair{4, 4}, {16, 8}}) {
        for (const SystemConfig &pod : podFabrics(box, racks, hosts))
            expectAllReduceMatchesReference(
                pod.topo, pod.gpu_nodes,
                racks == 4 ? kAllReducePayloads : kPodPayloads, pod.name);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PodBoxes, AllReduceReferencePods,
    ::testing::Range(0, static_cast<int>(podBoxes().size())));

TEST(AllReduceReference, HostsThatAreNotCopies)
{
    std::vector<PodCase> cases = templateBreakers();
    for (PodCase &c : pairBreakers())
        cases.push_back(std::move(c));
    for (const PodCase &c : cases) {
        expectAllReduceMatchesReference(
            c.system.topo,
            c.gpus ? c.system.gpuSubset(c.gpus) : c.system.gpu_nodes,
            kPodPayloads, c.label);
    }
}

/** The trainer's input staging time (h2d_s) of a Res50 run on the
 *  first 'gpus' GPUs (0 = every GPU), against the staging oracle. */
void
expectStagingMatchesReference(const SystemConfig &system, int gpus,
                              const std::string &label)
{
    static const mlps::wl::WorkloadSpec spec =
        *mlps::models::findWorkload("MLPf_Res50_MX");
    mlps::train::RunOptions opts;
    opts.num_gpus = gpus ? gpus : system.num_gpus;
    mlps::train::TrainResult res =
        mlps::train::Trainer(system).run(spec, opts);
    double bytes =
        res.per_gpu_batch * spec.dataset.input_bytes_per_sample;
    ASSERT_GT(res.iter.h2d_s, 0.0) << label;
    double want = mlps::reference::inputStagingSeconds(
        system.topo, system.gpuSubset(opts.num_gpus), bytes);
    EXPECT_EQ(bits(res.iter.h2d_s), bits(want))
        << label << ": h2d " << res.iter.h2d_s << " vs " << want;
}

TEST(StagingReference, PodsOfEveryBox)
{
    for (const SystemConfig &box : podBoxes()) {
        expectStagingMatchesReference(box, 0, box.name);
        for (auto [racks, hosts] : {std::pair{4, 4}, {16, 8}}) {
            for (const SystemConfig &pod : podFabrics(box, racks, hosts))
                expectStagingMatchesReference(pod, 0, pod.name);
        }
    }
}

TEST(StagingReference, HostsThatAreNotCopies)
{
    for (const PodCase &c : templateBreakers())
        expectStagingMatchesReference(c.system, c.gpus, c.label);
}

/** The rounds the collective plans price on a healthy pod's GPUs, as
 *  flow sets: the host rings, the 2D ring's rank-rings over every
 *  host, the rack rings, each tree round between rack leaders and the
 *  chains down the racks. */
std::vector<std::pair<std::string, std::vector<FlowWant>>>
podRounds(const Topology &topo, const std::vector<NodeId> &gpus,
          double bytes)
{
    const FabricShape shape = fabricShape(topo, gpus);
    const std::vector<std::vector<NodeId>> &hosts = shape.node_groups;
    const std::vector<std::vector<int>> &racks = shape.rack_groups;
    const int per_host = static_cast<int>(hosts[0].size());
    const double chunk = bytes / per_host;
    auto rankRings = [&](const std::vector<std::vector<int>> &groups) {
        std::vector<FlowWant> flows;
        for (const std::vector<int> &group : groups) {
            const int m = static_cast<int>(group.size());
            for (int i = 0; i < per_host; ++i) {
                for (int j = 0; j < m; ++j)
                    flows.push_back({hosts[group[j]][i],
                                     hosts[group[(j + 1) % m]][i],
                                     chunk / m, 0.0});
            }
        }
        return flows;
    };
    std::vector<std::pair<std::string, std::vector<FlowWant>>> rounds;
    std::vector<int> every(hosts.size());
    std::iota(every.begin(), every.end(), 0);
    std::vector<std::vector<int>> one_per_host;
    for (int h : every)
        one_per_host.push_back({h});
    rounds.emplace_back("host rings", std::vector<FlowWant>{});
    for (const std::vector<NodeId> &host : hosts) {
        for (int i = 0; i < per_host; ++i)
            rounds.back().second.push_back(
                {host[i], host[(i + 1) % per_host], chunk, 0.0});
    }
    rounds.emplace_back("2D ring", rankRings({every}));
    rounds.emplace_back("rack rings", rankRings(racks));
    for (std::size_t stride = 1; stride < racks.size(); stride *= 2) {
        std::vector<FlowWant> flows;
        for (std::size_t r = 0; r + stride < racks.size(); r += 2 * stride) {
            for (int i = 0; i < per_host; ++i)
                flows.push_back({hosts[racks[r + stride][0]][i],
                                 hosts[racks[r][0]][i], chunk, 0.0});
        }
        rounds.emplace_back("tree stride " + std::to_string(stride),
                            std::move(flows));
    }
    rounds.emplace_back("chains", std::vector<FlowWant>{});
    for (const std::vector<int> &rack : racks) {
        for (int i = 0; i < per_host; ++i) {
            for (std::size_t j = 0; j + 1 < rack.size(); ++j)
                rounds.back().second.push_back(
                    {hosts[rack[j]][i], hosts[rack[j + 1]][i], chunk, 0.0});
        }
    }
    return rounds;
}

// Copies of one freshly built pod price a round of rack rings, then
// collectives and input staging, in parallel, so whatever the first
// pricing writes to the shared graph races under the sanitizers.
TEST(StagingReference, ThreadsPriceCopiesOfAFreshPod)
{
    const SystemConfig built = mlps::sys::withPod(mlps::sys::c4140M(), 4, 4);
    const mlps::wl::WorkloadSpec spec =
        *mlps::models::findWorkload("MLPf_Res50_MX");
    mlps::train::RunOptions opts;
    opts.num_gpus = built.num_gpus;
    // Rank i of each host to rank i of the next host of its rack.
    std::vector<FlowWant> rack_rings;
    for (const auto &[name, flows] :
         podRounds(built.topo, built.gpu_nodes, 64e6)) {
        if (name == "rack rings")
            rack_rings = flows;
    }
    ASSERT_FALSE(rack_rings.empty());
    constexpr int kThreads = 4;
    std::vector<mlps::train::TrainResult> got(kThreads);
    std::vector<AllReduceResult> reduced(kThreads);
    std::vector<std::vector<FlowReport>> rings(kThreads);
    std::vector<SystemConfig> copies(kThreads, built);
    std::latch start(kThreads); // so that the first pricings overlap
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            FlowSimulator fsim(copies[t].topo);
            for (const FlowWant &w : rack_rings)
                fsim.addFlow(w.from, w.to, w.bytes, w.start_s);
            fsim.run();
            rings[t] = fsim.reports();
            reduced[t] = autoHierarchicalAllReduce(
                copies[t].topo, copies[t].gpu_nodes, 64.0 * 1024 * 1024);
            got[t] = mlps::train::Trainer(copies[t]).run(spec, opts);
        });
    }
    for (std::thread &th : threads)
        th.join();
    AllReduceResult want = mlps::reference::autoHierarchicalAllReduce(
        built.topo, built.gpu_nodes, 64.0 * 1024 * 1024);
    double bytes =
        got[0].per_gpu_batch * spec.dataset.input_bytes_per_sample;
    double h2d = mlps::reference::inputStagingSeconds(
        built.topo, built.gpu_nodes, bytes);
    ReferenceFlowSim ref(built.topo);
    for (const FlowWant &w : rack_rings)
        ref.addFlow(w.from, w.to, w.bytes, w.start_s);
    ref.run();
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(rings[t].size(), ref.reports().size());
        for (std::size_t i = 0; i < rings[t].size(); ++i)
            EXPECT_EQ(bits(rings[t][i].finish_s),
                      bits(ref.reports()[i].finish_s))
                << "thread " << t << ", rack-ring flow " << i;
        expectSameAllReduce(reduced[t], want,
                            "thread " + std::to_string(t));
        EXPECT_EQ(bits(got[t].iter.h2d_s), bits(h2d)) << "thread " << t;
        EXPECT_EQ(bits(got[t].iter.comm_s), bits(got[0].iter.comm_s))
            << "thread " << t;
    }
}

/** Each rack's nodes, in id order: its ToR, then its hosts' nodes. */
std::vector<std::vector<NodeId>>
podRackNodes(const Topology &topo)
{
    std::vector<std::vector<NodeId>> racks;
    for (NodeId n = 0; n < topo.nodeCount(); ++n) {
        if (topo.kind(n) == NodeKind::TorSwitch)
            racks.emplace_back();
        if (!racks.empty() && topo.kind(n) != NodeKind::SpineSwitch)
            racks.back().push_back(n);
    }
    return racks;
}

// Every host of a pod carries a copy of one flow set, host after host
// or flow k of every host in turn; then every rack does, over its
// hosts, NICs and ToR. In every case but the first, one host (or rack)
// breaks the copy in one way; the simulator must still match the
// reference, which prices every flow, bit for bit. Last, the rack
// rings and chains of the collective plans, with one rack's flows
// reordered, one short or one more, or a flow into the first rack;
// and the host rings, rack rings and chains of pods whose degraded
// blocks are not the first block's copies (degradedBlocks()).
TEST(FlowSimulatorReference, PodHostCopiesMatchBitForBit)
{
    enum class Odd {
        None,
        MissingFlow,
        ExtraFlow,
        Bytes,
        Start,
        Reordered,
        ScaledLink,
        DownLink,
        LeavesHost,
        BeforeFirstHost,
    };
    const std::pair<Odd, const char *> cases[] = {
        {Odd::None, "copies"},
        {Odd::MissingFlow, "host short of a flow"},
        {Odd::ExtraFlow, "host with an extra flow"},
        {Odd::Bytes, "different bytes"},
        {Odd::Start, "different start"},
        {Odd::Reordered, "flows in reverse order"},
        {Odd::ScaledLink, "scaled link in a host"},
        {Odd::DownLink, "down link in a host"},
        {Odd::LeavesHost, "flow to another host"},
        {Odd::BeforeFirstHost, "host added before the first"},
    };
    const std::vector<SystemConfig> boxes = podBoxes();
    for (bool rack_blocks : {false, true}) {
        for (int seed = 0; seed < 28; ++seed) {
            for (const auto &[odd, name] : cases) {
                mlps::sim::Rng rng(23000 + seed);
                const SystemConfig &box = boxes[seed % boxes.size()];
                int racks = 1 + static_cast<int>(rng.below(3)) + rack_blocks;
                int per_rack = 1 + static_cast<int>(rng.below(3));
                SystemConfig pod = mlps::sys::withPod(box, racks, per_rack);
                Topology &topo = pod.topo;
                // The blocks that copy one flow set: hosts, or racks.
                const std::vector<std::vector<NodeId>> hosts =
                    rack_blocks ? podRackNodes(topo) : podHostNodes(topo);
                const int n_hosts = static_cast<int>(hosts.size());
                const int n = static_cast<int>(hosts[0].size());
                int odd_host = static_cast<int>(rng.below(n_hosts));

                struct Local {
                    int from;
                    int to;
                    double bytes;
                    double start_s;
                };
                std::vector<Local> flows;
                bool staggered = rng.chance(0.5);
                int count = 1 + static_cast<int>(rng.below(10));
                for (int i = 0; i < count; ++i) {
                    Local f;
                    f.from = static_cast<int>(rng.below(n));
                    f.to = rng.chance(0.1) ? f.from
                                           : static_cast<int>(rng.below(n));
                    f.bytes = rng.chance(0.1) ? 0.0 : rng.uniform(1e5, 5e8);
                    f.start_s = staggered ? rng.uniform(0.0, 0.02) : 0.0;
                    flows.push_back(f);
                }
                int odd_flow = static_cast<int>(rng.below(flows.size()));
                if (odd == Odd::ScaledLink || odd == Odd::DownLink) {
                    std::vector<int> inside;
                    for (int e = 0; e < topo.edgeCount(); ++e) {
                        auto [a, b] = topo.endpoints(e);
                        const std::vector<NodeId> &h = hosts[odd_host];
                        if (std::find(h.begin(), h.end(), a) != h.end() &&
                            std::find(h.begin(), h.end(), b) != h.end())
                            inside.push_back(e);
                    }
                    int e = inside[rng.below(inside.size())];
                    if (odd == Odd::ScaledLink)
                        topo.setLinkBandwidthScale(e, 0.5);
                    else if (!downIfSurvivable(topo, e))
                        topo.setLinkBandwidthScale(e, 0.25);
                }

                std::vector<FlowWant> wants;
                auto want = [&](int h, int k) {
                    Local f = flows[k];
                    if (h == odd_host && k == odd_flow) {
                        if (odd == Odd::MissingFlow)
                            return;
                        if (odd == Odd::Bytes)
                            f.bytes = f.bytes * 1.5 + 1e5;
                        if (odd == Odd::Start)
                            f.start_s += 1e-3;
                    }
                    wants.push_back({hosts[h][f.from], hosts[h][f.to],
                                     f.bytes, f.start_s});
                    if (h == odd_host && k == odd_flow) {
                        if (odd == Odd::ExtraFlow)
                            wants.push_back(wants.back());
                        if (odd == Odd::LeavesHost)
                            wants.push_back(
                                {hosts[h][f.from],
                                 hosts[(h + 1) % n_hosts][f.to], f.bytes,
                                 f.start_s});
                    }
                };
                // Hosts in order, but the odd one first when it must come
                // before the first host.
                std::vector<int> order(n_hosts);
                std::iota(order.begin(), order.end(), 0);
                if (odd == Odd::BeforeFirstHost)
                    std::rotate(order.begin(), order.begin() + odd_host,
                                order.begin() + odd_host + 1);
                const int per = static_cast<int>(flows.size());
                bool interleaved = rng.chance(0.5);
                for (int i = 0; i < n_hosts * per; ++i) {
                    int h = order[interleaved ? i % n_hosts : i / per];
                    int k = interleaved ? i / n_hosts : i % per;
                    if (odd == Odd::Reordered && h == odd_host)
                        k = per - 1 - k;
                    want(h, k);
                }
                expectFlowSimMatchesReference(
                    topo, wants,
                    pod.name + (rack_blocks ? ", racks, " : ", ") + name +
                        ", seed " + std::to_string(seed));
            }
        }
    }

    for (auto [racks, hosts] : {std::pair{4, 4}, {16, 8}}) {
        const SystemConfig pod =
            mlps::sys::withPod(mlps::sys::c4140M(), racks, hosts);
        const Topology &topo = pod.topo;
        for (const auto &[round, flows] :
             podRounds(topo, pod.gpu_nodes, 64e6)) {
            if (round != "rack rings" && round != "chains")
                continue;
            std::vector<std::size_t> rack3; // rack 3's flows, in order
            for (std::size_t i = 0; i < flows.size(); ++i) {
                if (topo.name(flows[i].from).rfind("r3n", 0) == 0)
                    rack3.push_back(i);
            }
            ASSERT_FALSE(rack3.empty()) << round;
            std::vector<FlowWant> reordered = flows, shorter, longer;
            for (std::size_t k = 0; k < rack3.size(); ++k)
                reordered[rack3[k]] = flows[rack3[rack3.size() - 1 - k]];
            for (std::size_t i = 0; i < flows.size(); ++i) {
                if (i != rack3.back())
                    shorter.push_back(flows[i]);
                longer.push_back(flows[i]);
                if (i == rack3.front())
                    longer.push_back(flows[i]);
            }
            std::vector<FlowWant> into_first = flows;
            into_first.push_back(
                {flows[rack3.front()].from, flows[0].to, 16e6, 0.0});
            const std::string label = pod.name + ", " + round;
            expectFlowSimMatchesReference(topo, flows, label);
            expectFlowSimMatchesReference(topo, reordered,
                                          label + ", rack 3 reordered");
            expectFlowSimMatchesReference(topo, shorter,
                                          label + ", rack 3 short a flow");
            expectFlowSimMatchesReference(topo, longer,
                                          label + ", rack 3 a flow more");
            expectFlowSimMatchesReference(topo, into_first,
                                          label + ", rack 3 into rack 0");
        }
        for (const std::string &links : degradedBlocks(hosts)) {
            SystemConfig degraded = pod;
            mlps::sys::applyDegradedLinks(degraded, links);
            for (const auto &[round, flows] :
                 podRounds(degraded.topo, degraded.gpu_nodes, 64e6)) {
                if (round == "host rings" || round == "rack rings" ||
                    round == "chains")
                    expectFlowSimMatchesReference(
                        degraded.topo, flows,
                        pod.name + ", " + links + ", " + round);
            }
        }
    }
}

/** The flows of the 2D ring's cross-node round on the first 'gpus'
 *  GPUs of 's' (0 = every GPU): rank i of host j to rank i of host
 *  j+1, around every host. */
std::vector<FlowWant>
crossNodeRound(const SystemConfig &s, int gpus = 0)
{
    for (auto &[name, flows] :
         podRounds(s.topo, gpus ? s.gpuSubset(gpus) : s.gpu_nodes, 64e6)) {
        if (name == "2D ring")
            return flows;
    }
    return {};
}

// The 2D ring's cross-node round is host pairs: the flows from host j
// to host j+1 of one rack are the first pair's (r0n0 to r0n1) shifted,
// and the flows from the last host of rack k to the first of rack k+1
// the first rack pair's shifted. Each case breaks some pairs one way:
// a scaled spine, ToR uplink or NIC uplink, a downed NVLink, the
// degradedBlocks() cases, a subset of the GPUs, a pair short of a flow, with one more or reordered, a
// flow that shares a pair's links, and pods with a wrap pair or a
// single rack. The simulator must still match the reference, which
// prices every flow, bit for bit.
TEST(FlowSimulatorReference, PairCopiesMatchBitForBit)
{
    namespace sys = mlps::sys;
    for (auto [racks, hosts] : {std::pair{4, 4}, {16, 8}}) {
        const SystemConfig pod = sys::withPod(sys::c4140M(), racks, hosts);
        const std::string shape = pod.name + " ";
        const Topology &topo = pod.topo;
        const std::vector<FlowWant> flows = crossNodeRound(pod);
        expectFlowSimMatchesReference(topo, flows, shape + "healthy");
        for (const SystemConfig &s :
             {sys::withSpineDegraded(pod, 0.5),
              sys::withTorDegraded(pod, 3, 0.5)})
            expectFlowSimMatchesReference(s.topo, crossNodeRound(s),
                                          s.name);
        const std::string nvlink =
            racks == 16 ? "r5n2.GPU0-r5n2.GPU1:down"
                        : "r2n2.GPU0-r2n2.GPU1:down";
        std::vector<std::string> degraded = {"r0n0.NIC0-tor0:0.5", nvlink};
        for (const std::string &links : degradedBlocks(hosts))
            degraded.push_back(links);
        for (const std::string &links : degraded) {
            SystemConfig s = pod;
            sys::applyDegradedLinks(s, links);
            expectFlowSimMatchesReference(s.topo, crossNodeRound(s),
                                          shape + links);
        }
        for (int gpus : {24, 48})
            expectFlowSimMatchesReference(
                topo, crossNodeRound(pod, gpus),
                shape + "first " + std::to_string(gpus) + " GPUs");

        // One intra-rack pair (host 5 to 6) and one cross-rack pair
        // (the last host of rack 1 to the first of rack 2).
        for (int h : {5, 2 * hosts - 1}) {
            const std::string pair = shape + "pair " + std::to_string(h);
            const std::string from =
                "r" + std::to_string(h / hosts) + "n" +
                std::to_string(h % hosts) + ".";
            std::vector<std::size_t> members; // the pair's flows
            for (std::size_t i = 0; i < flows.size(); ++i) {
                if (topo.name(flows[i].from).rfind(from, 0) == 0)
                    members.push_back(i);
            }
            ASSERT_EQ(members.size(), 4u) << pair;
            std::vector<FlowWant> reordered = flows, shorter, longer;
            for (std::size_t k = 0; k < members.size(); ++k)
                reordered[members[k]] =
                    flows[members[members.size() - 1 - k]];
            for (std::size_t i = 0; i < flows.size(); ++i) {
                if (i != members.back())
                    shorter.push_back(flows[i]);
                longer.push_back(flows[i]);
                if (i == members.front())
                    longer.push_back(flows[i]);
            }
            const FlowWant &first = flows[members.front()];
            // Up the pair's NIC uplink, and back down the pair: into
            // the next host's inbound links.
            std::vector<FlowWant> to_nic = flows, back = flows;
            to_nic.push_back(
                {first.from, nodeNamed(topo, from + "NIC0"), 16e6, 0.0});
            back.push_back({first.to, first.from, 16e6, 0.0});
            expectFlowSimMatchesReference(topo, reordered,
                                          pair + " reordered");
            expectFlowSimMatchesReference(topo, shorter,
                                          pair + " short a flow");
            expectFlowSimMatchesReference(topo, longer,
                                          pair + " a flow more");
            expectFlowSimMatchesReference(topo, to_nic,
                                          pair + " and a flow to its NIC");
            expectFlowSimMatchesReference(topo, back,
                                          pair + " and a flow back");
        }
        // A flow into the first pair's second host.
        std::vector<FlowWant> into_first = flows;
        into_first.push_back(
            {flows[5].from, nodeNamed(topo, "r0n1.NIC0"), 16e6, 0.0});
        expectFlowSimMatchesReference(topo, into_first,
                                      shape + "a flow into host r0n1");
        // A NIC uplink scaled after the flows were added.
        SystemConfig late = pod;
        const NodeId nic = nodeNamed(late.topo, "r1n1.NIC0");
        const NodeId tor = nodeNamed(late.topo, "tor1");
        int uplink = -1;
        for (int e : late.topo.incidentEdges(nic)) {
            auto [a, b] = late.topo.endpoints(e);
            if (a == tor || b == tor)
                uplink = e;
        }
        ASSERT_GE(uplink, 0);
        expectFlowSimMatchesReference(
            late.topo, flows, shape + "r1n1 uplink scaled before run",
            [&] { late.topo.setLinkBandwidthScale(uplink, 0.25); });
    }
    // Pods whose wrap pair closes the ring after two or four racks, a
    // single rack, and hosts of eight GPUs.
    for (const SystemConfig &s :
         {sys::withPod(sys::c4140M(), 2, 4), sys::withPod(sys::c4140M(), 4, 2),
          sys::withPod(sys::c4140M(), 1, 8), sys::withPod(sys::dss8440(), 4, 4)})
        expectFlowSimMatchesReference(s.topo, crossNodeRound(s), s.name);
}

// A pod built by the pod builder records hosts that are exact copies
// of the first; the graph refuses them when one is not.
TEST(HostCopies, PodsOfEveryBoxAreCopies)
{
    for (const SystemConfig &box : podBoxes()) {
        for (auto [racks, hosts] : {std::pair{1, 1}, {2, 3}, {16, 8}}) {
            SystemConfig pod = mlps::sys::withPod(box, racks, hosts);
            const Topology &topo = pod.topo;
            const Topology::BlockCopies *copies = topo.blockCopies(0);
            ASSERT_NE(copies, nullptr) << pod.name;
            const std::vector<std::vector<NodeId>> nodes =
                podHostNodes(topo);
            ASSERT_EQ(copies->node_offset.size(), nodes.size());
            for (std::size_t k = 0; k < nodes.size(); ++k) {
                ASSERT_EQ(static_cast<int>(nodes[k].size()),
                          copies->nodes);
                EXPECT_EQ(nodes[k][0],
                          copies->first_node + copies->node_offset[k]);
                for (NodeId n : nodes[k]) {
                    EXPECT_EQ(copies->block_of[n], static_cast<int>(k));
                }
                EXPECT_TRUE(topo.blocksMatch(0, 0, static_cast<int>(k)));
            }
            for (NodeId n = 0; n < topo.nodeCount(); ++n) {
                if (topo.kind(n) == NodeKind::TorSwitch ||
                    topo.kind(n) == NodeKind::SpineSwitch) {
                    EXPECT_EQ(copies->block_of[n], -1);
                }
            }
            // Copies of the topology share the graph's host copies.
            EXPECT_EQ(Topology(topo).blockCopies(0), copies);
        }
    }
}

TEST(HostCopies, RefusedUnlessEveryHostIsACopy)
{
    auto two_nics = [](const std::string &host) {
        return [host](const std::string &p) { return p == host; };
    };
    EXPECT_NE(twoSocketPod(3, 3, two_nics("")).topo.blockCopies(0), nullptr);
    // A host unlike the first, or a first host unlike the rest.
    EXPECT_EQ(twoSocketPod(3, 3, two_nics("r1n1.")).topo.blockCopies(0),
              nullptr);
    EXPECT_EQ(twoSocketPod(3, 3, two_nics("r0n0.")).topo.blockCopies(0),
              nullptr);
    // Hosts alike, but each with two exits.
    EXPECT_EQ(twoSocketPod(2, 2, [](const std::string &) { return true; })
                  .topo.blockCopies(0),
              nullptr);
    // A graph with no recorded host.
    EXPECT_EQ(mlps::sys::c4140M().topo.blockCopies(0), nullptr);
    EXPECT_EQ(handBuiltPod(2, 2, 1, [](int, int) { return false; })
                  .blockCopies(0),
              nullptr);
    // Grown after pricing: a node wired into one host.
    SystemConfig pod = mlps::sys::withPod(mlps::sys::c4140M(), 2, 2);
    ASSERT_NE(pod.topo.blockCopies(0), nullptr);
    NodeId gpu = pod.topo.addGpu("r1n0.GPU4");
    pod.topo.connect(gpu, nodeNamed(pod.topo, "r1n0.CPU1"), pcie3(16));
    EXPECT_EQ(pod.topo.blockCopies(0), nullptr);
    // The same link added inside every host, after the hosts were
    // recorded.
    SystemConfig grown = mlps::sys::withPod(mlps::sys::t640(), 2, 2);
    for (const std::vector<NodeId> &host : podHostNodes(grown.topo)) {
        std::vector<NodeId> gpus;
        for (NodeId n : host) {
            if (grown.topo.kind(n) == NodeKind::Gpu)
                gpus.push_back(n);
        }
        grown.topo.connect(gpus[0], gpus[3], nvlink(1));
    }
    EXPECT_EQ(grown.topo.blockCopies(0), nullptr);
}

// A host of two halves, each a CPU with two GPUs behind its own NIC,
// is two cells: a flow between its halves leaves the host, so it is
// no host copy, and flows between halves price as routed.
TEST(HostCopies, HostOfTwoCellsIsRefused)
{
    LeafBuilder halves = [](Topology &topo, const std::string &p) {
        LeafNodes leaf;
        for (int c = 0; c < 2; ++c) {
            NodeId cpu = topo.addCpu(p + "CPU" + std::to_string(c));
            leaf.cpus.push_back(cpu);
            for (int g = 0; g < 2; ++g) {
                NodeId gpu =
                    topo.addGpu(p + "GPU" + std::to_string(2 * c + g));
                topo.connect(gpu, cpu, pcie3(16));
                leaf.gpus.push_back(gpu);
            }
        }
        NodeId nic = topo.addNic(p + "NIC1");
        topo.connect(leaf.cpus[1], nic, pcie3(16));
        const std::string tor = "tor" + p.substr(1, p.find('n') - 1);
        topo.connect(nic, nodeNamed(topo, tor),
                     ethernet(100.0, FabricTier::IntraRack));
        return leaf;
    };
    PodShape shape;
    shape.racks = 2;
    shape.nodes_per_rack = 2;
    PodTopology pod = buildPodTopology(shape, halves);
    EXPECT_EQ(pod.topo.blockCopies(0), nullptr);
    std::vector<FlowWant> wants;
    for (const PodHost &host : pod.hosts) {
        wants.push_back({host.cpus[0], host.gpus[3], 3e8, 0.0});
        wants.push_back({host.gpus[0], host.gpus[1], 2e8, 0.0});
    }
    // One host's uplinks slower, so a wrong copy shows.
    for (int e : pod.topo.incidentEdges(pod.tors[1])) {
        if (pod.topo.link(e).tier == FabricTier::IntraRack)
            pod.topo.setLinkBandwidthScale(e, 0.25);
    }
    expectFlowSimMatchesReference(pod.topo, wants, "two-cell hosts");
}

// The simulator reads link capacities when it runs, not when flows
// are added: a host that matched the first host when its flows were
// added and does not when they run prices on its own.
TEST(FlowSimulatorReference, LinkStateChangedBeforeRun)
{
    for (int host : {2, 0}) {
        SystemConfig pod = mlps::sys::withPod(mlps::sys::c4140M(), 2, 2);
        Topology &topo = pod.topo;
        const std::vector<std::vector<NodeId>> hosts = podHostNodes(topo);
        std::vector<FlowWant> wants;
        for (const std::vector<NodeId> &host : hosts) {
            std::vector<NodeId> gpus;
            for (NodeId n : host) {
                if (topo.kind(n) == NodeKind::Gpu)
                    gpus.push_back(n);
            }
            for (std::size_t i = 0; i < gpus.size(); ++i)
                wants.push_back(
                    {gpus[i], gpus[(i + 1) % gpus.size()], 1e8, 0.0});
        }
        const int e = edgeInside(topo, hosts[host], LinkKind::NvLink);
        expectFlowSimMatchesReference(
            topo, wants, "NVLink scaled in host " + std::to_string(host),
            [&] { topo.setLinkBandwidthScale(e, 0.25); });
    }
}

// The same one level up: a rack that matched the first rack when its
// flows were added and does not when they run prices on its own.
TEST(FlowSimulatorReference, RackLinkStateChangedBeforeRun)
{
    for (int rack : {1, 0}) {
        SystemConfig pod = mlps::sys::withPod(mlps::sys::c4140M(), 2, 2);
        Topology &topo = pod.topo;
        std::vector<FlowWant> rings;
        for (const auto &[name, flows] :
             podRounds(topo, pod.gpu_nodes, 64e6)) {
            if (name == "rack rings")
                rings = flows;
        }
        const std::string r = std::to_string(rack);
        const NodeId nic = nodeNamed(topo, "r" + r + "n1.NIC0");
        const NodeId tor = nodeNamed(topo, "tor" + r);
        int uplink = -1;
        for (int e : topo.incidentEdges(nic)) {
            auto [a, b] = topo.endpoints(e);
            if (a == tor || b == tor)
                uplink = e;
        }
        ASSERT_GE(uplink, 0);
        expectFlowSimMatchesReference(
            topo, rings, "NIC uplink scaled in rack " + r,
            [&] { topo.setLinkBandwidthScale(uplink, 0.25); });
    }
}

/** A switch with 'n' GPUs on equal PCIe links; returns the GPUs. */
std::vector<NodeId>
buildStar(Topology &topo, int n)
{
    NodeId sw = topo.addSwitch("SW");
    std::vector<NodeId> gpus;
    for (int i = 0; i < n; ++i) {
        gpus.push_back(topo.addGpu("GPU" + std::to_string(i)));
        topo.connect(sw, gpus.back(), pcie3(16));
    }
    return gpus;
}

/** 'n' GPUs in a ring of equal NVLinks; returns the GPUs. */
std::vector<NodeId>
buildRing(Topology &topo, int n)
{
    std::vector<NodeId> gpus;
    for (int i = 0; i < n; ++i)
        gpus.push_back(topo.addGpu("GPU" + std::to_string(i)));
    for (int i = 0; i < n; ++i)
        topo.connect(gpus[i], gpus[(i + 1) % n], nvlink(2));
    return gpus;
}

// Progressive filling freezes the flows of the lowest-share slot, the
// lowest slot among equals. Where many slots tie, the simulator must
// still freeze them as the reference does, one scan per slot, bit for
// bit: on the rounds of pod collectives, where every NIC or ToR of a
// pod ties; on stars and rings of equal links; and on near-tie
// capacities, where a freeze can round another slot's share onto the
// tied share or below it.
TEST(FlowSimulatorReference, FairShareTies)
{
    for (const SystemConfig &box : podBoxes()) {
        for (auto [racks, hosts] : {std::pair{4, 4}, {16, 8}}) {
            const SystemConfig pod = mlps::sys::withPod(box, racks, hosts);
            for (const auto &[name, flows] :
                 podRounds(pod.topo, pod.gpu_nodes, 64e6))
                expectFlowSimMatchesReference(pod.topo, flows,
                                              pod.name + ", " + name);
        }
    }

    // Equal links: each GPU to the next, to the one after, and every
    // GPU to the first; flows of one size or of two, so that the
    // first completions leave ties behind.
    for (int n : {3, 4, 8, 16}) {
        for (bool ring : {false, true}) {
            Topology topo;
            const std::vector<NodeId> gpus =
                ring ? buildRing(topo, n) : buildStar(topo, n);
            for (int sizes : {1, 2}) {
                std::vector<FlowWant> next, skip, incast;
                for (int i = 0; i < n; ++i) {
                    const double bytes = i % sizes == 0 ? 64e6 : 32e6;
                    next.push_back({gpus[i], gpus[(i + 1) % n], bytes, 0.0});
                    skip.push_back({gpus[i], gpus[(i + 2) % n], bytes, 0.0});
                    skip.push_back({gpus[i], gpus[(i + 1) % n], bytes, 0.0});
                    if (i > 0)
                        incast.push_back({gpus[i], gpus[0], bytes, 0.0});
                }
                const std::string label = std::string(ring ? "ring" : "star") +
                                          " of " + std::to_string(n) + ", " +
                                          std::to_string(sizes) + " sizes";
                expectFlowSimMatchesReference(topo, next, label + ", next");
                expectFlowSimMatchesReference(topo, skip, label + ", skip");
                expectFlowSimMatchesReference(topo, incast,
                                              label + ", incast");
            }
        }
    }

    // Near ties: links scaled by 0.1, 0.2 or 0.3 share out capacities
    // that differ by an ulp or two once divided, on stars, rings and
    // random machines.
    for (int seed = 0; seed < 300; ++seed) {
        mlps::sim::Rng rng(24000 + seed);
        Topology topo;
        std::vector<NodeId> gpus;
        switch (seed % 3) {
          case 0:
            gpus = buildStar(topo, 3 + static_cast<int>(rng.below(8)));
            break;
          case 1:
            gpus = buildRing(topo, 3 + static_cast<int>(rng.below(8)));
            break;
          default:
            build(topo, randomRecipe(rng));
            gpus = topo.gpus();
            break;
        }
        for (int e = 0; e < topo.edgeCount(); ++e)
            topo.setLinkBandwidthScale(e, 0.1 * (1 + rng.below(3)));
        const bool one_size = rng.chance(0.5);
        const bool staggered = rng.chance(0.3);
        std::vector<FlowWant> wants;
        const int count = 2 + static_cast<int>(rng.below(24));
        for (int k = 0; k < count; ++k) {
            const NodeId from = gpus[rng.below(gpus.size())];
            const NodeId to = gpus[rng.below(gpus.size())];
            wants.push_back({from, to,
                             one_size ? 64e6 : rng.uniform(1e5, 5e8),
                             staggered ? rng.uniform(0.0, 0.01) : 0.0});
        }
        expectFlowSimMatchesReference(
            topo, wants, "near ties, seed " + std::to_string(seed));
    }

    // One freeze lands a slot that did not tie exactly on the tied
    // share, below the next tied slot. On a star, GPU A sends seven
    // flows (one to X) and GPU B seven (one to X) over links scaled by
    // 0.1; X receives six over a link scaled by 0.1 * 6 / 7. A's and
    // B's uplinks tie at share b; X's downlink sits an ulp above it
    // until A's flow to X freezes, and then at exactly b. The
    // reference freezes X's flows next, B's flow to X among them, and
    // that moves B's uplink off b; freezing B's uplink first would
    // move X's instead.
    {
        Topology topo;
        const std::vector<NodeId> g = buildStar(topo, 9);
        const NodeId a = g[0], x = g[1], b = g[2];
        topo.setLinkBandwidthScale(0, 0.1);
        topo.setLinkBandwidthScale(1, 0.1 * 6 / 7);
        topo.setLinkBandwidthScale(2, 0.1);
        const double share = topo.effectiveLinkBytesPerSec(0) / 7;
        const double x_cap = topo.effectiveLinkBytesPerSec(1);
        ASSERT_GT(x_cap / 6, share);
        ASSERT_EQ(bits((x_cap - share) / 5), bits(share));
        std::vector<FlowWant> wants = {{a, x, 1e8, 0.0}, {b, x, 1e8, 0.0}};
        for (int k = 0; k < 6; ++k) {
            wants.push_back({a, g[4], 1e8, 0.0});
            wants.push_back({b, g[3], 1e8, 0.0});
        }
        for (int k = 5; k < 9; ++k)
            wants.push_back({g[k], x, 1e8, 0.0});
        expectFlowSimMatchesReference(topo, wants, "share rounded onto a tie");
    }

    // One freeze rounds a tied slot's share below the tie, above the
    // next tied slot in slot order. On a star of links scaled by 0.1,
    // GPUs A and B send seven flows each, one of them to X, which
    // receives seven. A's and B's uplinks and X's downlink tie at
    // share b; once A's flow to X freezes, X's downlink is below b.
    // The reference freezes X's flows next, below b, and B's flow to
    // X with them; B's uplink, though lower in slot order, no longer
    // holds the lowest share.
    {
        Topology topo;
        const std::vector<NodeId> g = buildStar(topo, 10);
        const NodeId a = g[0], b = g[1], x = g[2];
        for (int e = 0; e < topo.edgeCount(); ++e)
            topo.setLinkBandwidthScale(e, 0.1);
        const double cap = topo.effectiveLinkBytesPerSec(0);
        const double share = cap / 7;
        ASSERT_LT((cap - share) / 6, share);
        std::vector<FlowWant> wants = {{a, x, 1e8, 0.0}, {b, x, 1e8, 0.0}};
        for (int k = 0; k < 6; ++k) {
            wants.push_back({a, g[4], 1e8, 0.0});
            wants.push_back({b, g[3], 1e8, 0.0});
        }
        for (int k = 5; k < 10; ++k)
            wants.push_back({g[k], x, 1e8, 0.0});
        expectFlowSimMatchesReference(topo, wants,
                                      "share rounded below a tie");
    }
}

// The GPU grouping read from the graph's host and rack cells against
// the union-finds it replaced: pods of every box, pods whose hosts are
// not copies (links down or scaled, two-NIC hosts), GPU subsets in
// pod order and reversed, single boxes and random machines.
TEST(FabricShapeReference, MatchesUnionFind)
{
    auto expectSame = [](const Topology &topo,
                         std::vector<NodeId> gpus,
                         const std::string &label) {
        for (bool reversed : {false, true}) {
            if (reversed)
                std::reverse(gpus.begin(), gpus.end());
            const FabricShape got = fabricShape(topo, gpus);
            const FabricShape want =
                mlps::reference::fabricShape(topo, gpus);
            EXPECT_EQ(got.node_groups, want.node_groups) << label;
            EXPECT_EQ(got.rack_groups, want.rack_groups) << label;
        }
    };
    for (const SystemConfig &box : podBoxes()) {
        expectSame(box.topo, box.gpu_nodes, box.name);
        for (auto [racks, hosts] : {std::pair{2, 3}, {16, 8}}) {
            for (const SystemConfig &pod : podFabrics(box, racks, hosts)) {
                expectSame(pod.topo, pod.gpu_nodes, pod.name);
                expectSame(pod.topo, pod.gpuSubset(pod.num_gpus / 3),
                           pod.name + " subset");
            }
        }
    }
    for (const PodCase &c : templateBreakers())
        expectSame(c.system.topo, c.system.gpu_nodes, c.label);
    for (int seed = 0; seed < 20; ++seed) {
        mlps::sim::Rng rng(25000 + seed);
        int gpus = 0;
        Topology topo = randomTopology(rng, gpus);
        expectSame(topo, topo.gpus(), "random, seed " +
                                          std::to_string(seed));
    }
}

// Hosts j and k match while their links are in one state, down bits
// and bandwidth scales alike.
TEST(HostCopies, MatchFollowsLinkState)
{
    SystemConfig pod = mlps::sys::withPod(mlps::sys::c4140M(), 2, 3);
    Topology &topo = pod.topo;
    const std::vector<std::vector<NodeId>> hosts = podHostNodes(topo);
    const int hosts_n = static_cast<int>(hosts.size());
    auto matching = [&](int j = 0) {
        std::vector<bool> out;
        for (int k = 0; k < hosts_n; ++k)
            out.push_back(topo.blocksMatch(0, j, k));
        return out;
    };
    std::vector<bool> all(hosts_n, true);
    std::vector<bool> but4 = all;
    but4[4] = false;
    const int e4 = edgeInside(topo, hosts[4], LinkKind::NvLink);
    const int e0 = edgeInside(topo, hosts[0], LinkKind::NvLink);
    EXPECT_EQ(matching(), all);
    topo.setLinkBandwidthScale(e4, 0.5);
    EXPECT_EQ(matching(), but4);
    topo.setLinkBandwidthScale(e4, 1.0);
    EXPECT_EQ(matching(), all);
    topo.setLinkDown(e4, true);
    EXPECT_EQ(matching(), but4);
    EXPECT_EQ(matching(1), but4);
    // The same state in the first host makes host 4 match it again,
    // and the other hosts match one another.
    topo.setLinkDown(e0, true);
    std::vector<bool> only4(hosts_n, false);
    only4[0] = only4[4] = true;
    EXPECT_EQ(matching(), only4);
    EXPECT_EQ(matching(4), only4);
    std::vector<bool> but04(hosts_n, true);
    but04[0] = but04[4] = false;
    EXPECT_EQ(matching(2), but04);
    topo.resetLinkState();
    EXPECT_EQ(matching(), all);
    // Links outside every host do not count.
    for (int e = 0; e < topo.edgeCount(); ++e) {
        if (topo.link(e).tier == FabricTier::CrossRack)
            topo.setLinkBandwidthScale(e, 0.25);
    }
    EXPECT_EQ(matching(), all);
}

// A pod built by the pod builder records racks that are exact copies
// of the first: the ToR, its spine uplinks and the hosts, shifted. (A
// single rack has no spine, so its cell has no gateway.)
TEST(BlockCopies, RacksOfEveryBoxAreCopies)
{
    for (const SystemConfig &box : podBoxes()) {
        EXPECT_EQ(mlps::sys::withPod(box, 1, 2).topo.blockCopies(1), nullptr);
        for (auto [racks, hosts] : {std::pair{2, 1}, {2, 3}, {16, 8}}) {
            SystemConfig pod = mlps::sys::withPod(box, racks, hosts);
            const Topology &topo = pod.topo;
            const Topology::BlockCopies *copies = topo.blockCopies(1);
            ASSERT_NE(copies, nullptr) << pod.name;
            const std::vector<std::vector<NodeId>> nodes =
                podRackNodes(topo);
            ASSERT_EQ(copies->node_offset.size(), nodes.size());
            for (std::size_t k = 0; k < nodes.size(); ++k) {
                ASSERT_EQ(static_cast<int>(nodes[k].size()),
                          copies->nodes);
                EXPECT_EQ(nodes[k][0],
                          copies->first_node + copies->node_offset[k]);
                for (NodeId n : nodes[k])
                    EXPECT_EQ(copies->block_of[n], static_cast<int>(k));
                EXPECT_TRUE(topo.blocksMatch(1, 0, static_cast<int>(k)));
            }
            // Every intra-node and intra-rack edge of the first rack is
            // in its cell, and no spine uplink.
            int cell = 0;
            for (int e = 0; e < topo.edgeCount(); ++e) {
                auto [a, b] = topo.endpoints(e);
                cell += copies->block_of[a] == 0 && copies->block_of[b] == 0;
            }
            EXPECT_EQ(static_cast<int>(copies->cell_edges.size()), cell);
            for (int e : copies->cell_edges)
                EXPECT_NE(topo.link(e).tier, FabricTier::CrossRack);
            for (NodeId n = 0; n < topo.nodeCount(); ++n) {
                if (topo.kind(n) == NodeKind::SpineSwitch) {
                    EXPECT_EQ(copies->block_of[n], -1);
                }
            }
            EXPECT_EQ(Topology(topo).blockCopies(1), copies);
        }
    }
}

TEST(BlockCopies, UnequalOrTwoNicRacksAreRefused)
{
    auto two_nics = [](const std::string &host) {
        return [host](const std::string &p) { return p == host; };
    };
    EXPECT_NE(twoSocketPod(3, 3, two_nics("")).topo.blockCopies(1),
              nullptr);
    // A rack with a two-NIC host, in the first rack or another.
    EXPECT_EQ(twoSocketPod(3, 3, two_nics("r1n1.")).topo.blockCopies(1),
              nullptr);
    EXPECT_EQ(twoSocketPod(3, 3, two_nics("r0n2.")).topo.blockCopies(1),
              nullptr);
    // Every host with two NICs: no host is its own cell, but every
    // rack is, behind its ToR.
    const SystemConfig every =
        twoSocketPod(3, 3, [](const std::string &) { return true; });
    EXPECT_EQ(every.topo.blockCopies(0), nullptr);
    EXPECT_NE(every.topo.blockCopies(1), nullptr);
    // Racks of unequal size; their recorded hosts are still copies.
    const SystemConfig unequal = unequalRackPod(3, 3);
    EXPECT_NE(unequal.topo.blockCopies(0), nullptr);
    EXPECT_EQ(unequal.topo.blockCopies(1), nullptr);
    // A graph with no recorded rack.
    EXPECT_EQ(handBuiltPod(2, 2, 1, [](int, int) { return false; })
                  .blockCopies(1),
              nullptr);
    // Two ToRs joined below the spine: one cell of two racks, with two
    // exits.
    SystemConfig joined = mlps::sys::withPod(mlps::sys::c4140M(), 2, 2);
    ASSERT_NE(joined.topo.blockCopies(1), nullptr);
    joined.topo.connect(nodeNamed(joined.topo, "tor0"),
                        nodeNamed(joined.topo, "tor1"),
                        ethernet(100.0, FabricTier::IntraRack));
    EXPECT_EQ(joined.topo.blockCopies(1), nullptr);
    EXPECT_NE(joined.topo.blockCopies(0), nullptr);
}

// Rack k matches the first rack while the links inside its cell, the
// intra-node and intra-rack ones, are in the first rack's state; its
// spine uplinks leave the cell and do not count.
TEST(BlockCopies, MatchFollowsLinkState)
{
    const SystemConfig healthy = mlps::sys::withPod(mlps::sys::c4140M(), 4, 2);
    auto matching = [](const Topology &topo) {
        std::vector<bool> out;
        for (int k = 0; k < 4; ++k)
            out.push_back(topo.blocksMatch(1, 0, k));
        return out;
    };
    const std::vector<bool> all(4, true);
    std::vector<bool> but3 = all;
    but3[3] = false;
    EXPECT_EQ(matching(healthy.topo), all);
    EXPECT_EQ(matching(mlps::sys::withTorDegraded(healthy, 3, 0.5).topo),
              all);
    EXPECT_EQ(matching(mlps::sys::withSpineDegraded(healthy, 0.25).topo),
              all);
    for (const char *links :
         {"r3n1.NIC0-tor3:0.5", "r3n0.GPU0-r3n0.GPU1:0.25",
          "r3n1.GPU0-r3n1.GPU1:down", "r3n0.CPU0-r3n0.NIC0:0.5"}) {
        SystemConfig pod = healthy;
        mlps::sys::applyDegradedLinks(pod, links);
        EXPECT_EQ(matching(pod.topo), but3) << links;
        // A NIC uplink leaves its host's cell: the host still matches.
        if (std::string(links).find("tor3") != std::string::npos) {
            EXPECT_TRUE(pod.topo.blocksMatch(0, 0, 7)) << links;
        }
    }
    // The same state in the first rack makes rack 3 match again.
    SystemConfig both = healthy;
    mlps::sys::applyDegradedLinks(both,
                                  "r3n1.NIC0-tor3:0.5,r0n1.NIC0-tor0:0.5");
    EXPECT_EQ(matching(both.topo),
              (std::vector<bool>{true, false, false, true}));
}

// Neighbouring blocks form a pair only where their ways out meet: on a
// pod, the hosts of one rack and consecutive racks. Pair pricing, and
// the ways-out match, follow.
TEST(BlockCopies, PairsOfEveryPod)
{
    const SystemConfig pod = mlps::sys::withPod(mlps::sys::c4140M(), 4, 2);
    const Topology::BlockCopies *hosts = pod.topo.blockCopies(0);
    const Topology::BlockCopies *racks = pod.topo.blockCopies(1);
    ASSERT_TRUE(hosts && racks);
    EXPECT_EQ(hosts->pairs,
              (std::vector<char>{1, 0, 1, 0, 1, 0, 1, 0}));
    EXPECT_EQ(racks->pairs, (std::vector<char>{1, 1, 1, 0}));
    EXPECT_EQ(hosts->gate_edges.size(), 1u); // the NIC uplink
    EXPECT_EQ(racks->gate_edges.size(), 2u); // one uplink per spine
    const SystemConfig tor = mlps::sys::withTorDegraded(pod, 2, 0.5);
    for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(tor.topo.blocksMatch(1, 0, k, true), k != 2) << k;
        EXPECT_TRUE(tor.topo.blocksMatch(1, 0, k)) << k;
    }
    SystemConfig nic = pod;
    mlps::sys::applyDegradedLinks(nic, "r1n1.NIC0-tor1:0.5");
    for (int k = 0; k < 8; ++k)
        EXPECT_EQ(nic.topo.blocksMatch(0, 0, k, true), k != 3) << k;
    EXPECT_FALSE(mlps::sys::withPod(mlps::sys::c4140M(), 1, 1)
                     .topo.blockCopies(1));
}

// Hand-built blocks that are copies of the first, a CPU, a GPU and a
// NIC each, whose NICs hang off two ToRs under one spine. Two
// neighbouring blocks form a pair only when their NICs share a ToR
// (a path between ToRs crosses the spine) and their edges sit one
// block's edges apart. A NIC uplink wired after every block was
// recorded lies in no block, and its pairs are refused too. In every
// case the GPU ring prices as the reference does.
TEST(BlockCopies, PairsNeedSharedFarEnds)
{
    struct Layout {
        std::vector<int> tor;   ///< per block, its ToR
        int extra_before;       ///< a spine link added before this block
        bool uplinks_last;      ///< NIC uplinks wired after every block
        std::vector<char> pairs;
    };
    const Layout layouts[] = {
        {{0, 0, 1, 1, 1, 1}, 4, false, {1, 0, 1, 0, 1, 0}},
        {{0, 0, 0}, -1, true, {0, 0, 0}},
    };
    for (const Layout &lay : layouts) {
        Topology topo;
        const NodeId spine = topo.addSpineSwitch("spine0");
        const NodeId tors[] = {topo.addTorSwitch("s0"),
                               topo.addTorSwitch("s1")};
        for (NodeId tor : tors)
            topo.connect(tor, spine, ethernet(100.0, FabricTier::CrossRack));
        std::vector<NodeId> gpus, nics;
        const int n = static_cast<int>(lay.tor.size());
        for (int k = 0; k < n; ++k) {
            if (k == lay.extra_before)
                topo.connect(tors[1], spine,
                             ethernet(100.0, FabricTier::CrossRack));
            const NodeId first_node = topo.nodeCount();
            const int first_edge = topo.edgeCount();
            const std::string p = "h" + std::to_string(k) + ".";
            const NodeId cpu = topo.addCpu(p + "CPU0");
            const NodeId gpu = topo.addGpu(p + "GPU0");
            const NodeId nic = topo.addNic(p + "NIC0");
            topo.connect(gpu, cpu, pcie3(16));
            topo.connect(cpu, nic, pcie3(16));
            if (!lay.uplinks_last)
                topo.connect(nic, tors[lay.tor[k]],
                             ethernet(100.0, FabricTier::IntraRack));
            topo.recordBlock(0, first_node, first_edge);
            gpus.push_back(gpu);
            nics.push_back(nic);
        }
        for (int k = 0; lay.uplinks_last && k < n; ++k)
            topo.connect(nics[k], tors[lay.tor[k]],
                         ethernet(100.0, FabricTier::IntraRack));
        topo.validate();
        const Topology::BlockCopies *copies = topo.blockCopies(0);
        ASSERT_NE(copies, nullptr);
        EXPECT_EQ(copies->pairs, lay.pairs);
        std::vector<FlowWant> ring;
        for (int k = 0; k < n; ++k)
            ring.push_back({gpus[k], gpus[(k + 1) % n], 1e8, 0.0});
        expectFlowSimMatchesReference(topo, ring,
                                      "GPU ring of " + std::to_string(n) +
                                          " blocks");
    }
}

// hostCpu() answers from the graph's table where it may and searches
// elsewhere; both must give the plain search's CPU, on boxes and
// pods, healthy, with a link down in a host, and for a stranded GPU.
TEST(StagingReference, HostCpuMatchesReference)
{
    using mlps::reference::referenceHostCpu;
    std::vector<SystemConfig> systems = podBoxes();
    for (const SystemConfig &box : podBoxes())
        systems.push_back(mlps::sys::withPod(box, 2, 3));
    systems.push_back(twoSocketPod(2, 2, [](const std::string &p) {
        return p == "r1n0.";
    }));
    mlps::sim::Rng rng(24000);
    for (SystemConfig &s : systems) {
        Topology &topo = s.topo;
        for (int round = 0; round < 8; ++round) {
            for (NodeId g : s.gpu_nodes)
                ASSERT_EQ(topo.hostCpu(g), referenceHostCpu(topo, g))
                    << s.name << " round " << round << ", "
                    << topo.name(g);
            // Toggle a random GPU's links, stranding it at times.
            NodeId g = s.gpu_nodes[rng.below(s.gpu_nodes.size())];
            for (int e : topo.incidentEdges(g)) {
                if (rng.chance(0.5))
                    topo.setLinkDown(e, !topo.linkDown(e));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopologyTest,
                         ::testing::Range(0, 10));

} // namespace
