/**
 * @file
 * Tests of the shared topology graph and the memoized machine
 * fingerprint.
 *
 * Copies of a net::Topology share one immutable graph and own their
 * link state; exec::fingerprintOf(system) memoizes its topology pass
 * on that graph. These tests pin the fingerprints and request keys to
 * values the unmemoized build wrote (so journals keyed by them stay
 * warm), compare the memo with the unmemoized reference over long
 * link-state walks, and check that builders copy a shared graph
 * before changing it, that a moved-from topology is empty, and that
 * threads sharing one graph agree with a serial run.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/suite.h"
#include "exec/fingerprint.h"
#include "exec/run_request.h"
#include "exec/supervisor.h"
#include "fingerprint_reference.h"
#include "sys/machines.h"

namespace {

using namespace mlps;

sys::SystemConfig
pod16x8()
{
    return sys::withPod(sys::c4140M(), 16, 8);
}

struct GoldenCase {
    std::string label;
    std::function<sys::SystemConfig()> build;
    std::string workload;
    int gpus;
};

/** The machines of tests/golden/fingerprints.txt, in file order. */
std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    const std::vector<sys::SystemConfig> boxes = sys::allMachines();
    for (std::size_t i = 0; i < boxes.size(); ++i)
        cases.push_back({"box " + boxes[i].name,
                         [i] { return sys::allMachines()[i]; },
                         "MLPf_Res50_MX", boxes[i].num_gpus});
    cases.push_back({"explain_res50_pod512", pod16x8, "MLPf_Res50_MX", 512});
    cases.push_back({"explain_res50_pod512_spine",
                     [] { return sys::withSpineDegraded(pod16x8(), 0.25); },
                     "MLPf_Res50_MX", 512});
    cases.push_back({"explain_gnmt_dss8440_8", sys::dss8440, "MLPf_GNMT_Py",
                     8});
    cases.push_back({"explain_red_pod64", pod16x8, "Deep_Red_Cu", 64});
    cases.push_back({"pod tor3 x0.5",
                     [] { return sys::withTorDegraded(pod16x8(), 3, 0.5); },
                     "MLPf_Res50_MX", 512});
    cases.push_back({"C4140 (M) nvlink 0 down",
                     [] { return sys::withNvlinkEdgeDown(sys::c4140M(), 0); },
                     "MLPf_Res50_MX", 4});
    cases.push_back({"DGX-1 nvlink 5 down",
                     [] { return sys::withNvlinkEdgeDown(sys::dgx1(), 5); },
                     "MLPf_XFMR_Py", 8});
    cases.push_back(
        {"DSS 8440 pcie x0.5",
         [] { return sys::withPcieDowntrained(sys::dss8440(), 0.5); },
         "MLPf_Res50_MX", 8});
    cases.push_back(
        {"C4140 (K) pcie x0.25",
         [] { return sys::withPcieDowntrained(sys::c4140K(), 0.25); },
         "MLPf_NCF_Py", 2});
    return cases;
}

/** case label -> (system fingerprint, request key), as hex. */
std::map<std::string, std::pair<std::string, std::string>>
readGoldens()
{
    std::ifstream in(std::string(MLPSIM_GOLDEN_DIR) + "/fingerprints.txt");
    std::map<std::string, std::pair<std::string, std::string>> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string system, key, label;
        std::getline(fields, system, '\t');
        std::getline(fields, key, '\t');
        std::getline(fields, label);
        out[label] = {system, key};
    }
    return out;
}

exec::RunRequest
requestFor(const GoldenCase &c, const sys::SystemConfig &system)
{
    core::Suite suite(system);
    train::RunOptions opts;
    opts.num_gpus = c.gpus;
    return suite.request(c.workload, opts);
}

// Journals written before copies shared a graph are keyed by these
// values. Every case builds a new machine, so its graph's memo starts
// empty: the first call of each order below misses it and the repeat
// hits it.
TEST(FingerprintGolden, MatchesUnmemoizedBuildOnMissAndHit)
{
    const auto goldens = readGoldens();
    const std::vector<GoldenCase> cases = goldenCases();
    ASSERT_EQ(goldens.size(), cases.size());
    for (const GoldenCase &c : cases) {
        ASSERT_EQ(goldens.count(c.label), 1u) << c.label;
        const auto &[system_hex, key_hex] = goldens.at(c.label);

        // System fingerprint first, then the key.
        sys::SystemConfig system = c.build();
        EXPECT_EQ(exec::toHex(exec::fingerprintOf(system)), system_hex)
            << c.label << " (miss)";
        EXPECT_EQ(exec::toHex(exec::fingerprintOf(system)), system_hex)
            << c.label << " (hit)";
        EXPECT_EQ(exec::toHex(requestFor(c, system).key()), key_hex)
            << c.label << " (hit)";

        // The key first, on a new graph.
        sys::SystemConfig fresh = c.build();
        exec::RunRequest req = requestFor(c, fresh);
        EXPECT_EQ(exec::toHex(req.key()), key_hex) << c.label << " (miss)";
        EXPECT_EQ(exec::toHex(req.key()), key_hex) << c.label << " (hit)";
        EXPECT_EQ(exec::toHex(reference::fingerprintOf(fresh)), system_hex)
            << c.label << " (reference)";
    }
}

// 1k seeded link-state steps on a 128-GPU pod, over six copies that
// share its graph (the memo keeps four entries per graph).
TEST(FingerprintMemo, PodTopologyMutationStressMatchesReference)
{
    const sys::SystemConfig pod = sys::withPod(sys::c4140M(), 4, 8);
    ASSERT_EQ(pod.num_gpus, 128);
    reference::expectMemoMatchesReferenceOnWalk(
        std::vector<sys::SystemConfig>(6, pod), 17, 1000);
}

// The pass runs over the incoming state, so machines that differ
// before the topology (here only by name) memoize separately on one
// graph.
TEST(FingerprintMemo, KeyedOnTheIncomingState)
{
    sys::SystemConfig a = sys::c4140M();
    sys::SystemConfig b = a;
    b.name += " (renamed)";
    for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(exec::fingerprintOf(a), reference::fingerprintOf(a));
        EXPECT_EQ(exec::fingerprintOf(b), reference::fingerprintOf(b));
    }
    EXPECT_NE(exec::fingerprintOf(a), exec::fingerprintOf(b));
}

TEST(TopologyGraph, BuildersAndLinkChangesOnACopyLeaveTheOriginal)
{
    const sys::SystemConfig original = sys::c4140M();
    const exec::Fingerprint fp = exec::fingerprintOf(original);
    const int nodes = original.topo.nodeCount();
    const int edges = original.topo.edgeCount();
    std::vector<std::optional<net::Path>> routes;
    for (net::NodeId a : original.gpu_nodes)
        for (net::NodeId b : original.gpu_nodes)
            routes.push_back(original.topo.route(a, b));

    sys::SystemConfig copy = original;
    net::NodeId gpu = copy.topo.addGpu("GPU-extra");
    copy.topo.connect(gpu, copy.gpu_nodes[0], net::nvlink(2));
    copy.topo.connect(gpu, copy.gpu_nodes[1], net::nvlink(2));
    copy.topo.setLinkDown(copy.topo.incidentEdges(copy.gpu_nodes[0])[0],
                          true);
    EXPECT_EQ(copy.topo.nodeCount(), nodes + 1);
    EXPECT_EQ(copy.topo.edgeCount(), edges + 2);
    EXPECT_EQ(exec::fingerprintOf(copy), reference::fingerprintOf(copy));

    EXPECT_EQ(original.topo.nodeCount(), nodes);
    EXPECT_EQ(original.topo.edgeCount(), edges);
    EXPECT_FALSE(original.topo.degraded());
    std::size_t i = 0;
    for (net::NodeId a : original.gpu_nodes) {
        for (net::NodeId b : original.gpu_nodes) {
            auto r = original.topo.route(a, b);
            ASSERT_EQ(r.has_value(), routes[i].has_value());
            if (r) {
                EXPECT_EQ(r->nodes, routes[i]->nodes);
                EXPECT_EQ(r->edges, routes[i]->edges);
            }
            ++i;
        }
    }
    EXPECT_EQ(exec::fingerprintOf(original), fp);
    EXPECT_EQ(exec::fingerprintOf(original),
              reference::fingerprintOf(original));

    // A second copy of the (now fingerprinted) original grows too.
    sys::SystemConfig grown = original;
    grown.topo.addCpu("CPU-extra");
    EXPECT_EQ(grown.topo.nodeCount(), nodes + 1);
    EXPECT_EQ(exec::fingerprintOf(grown), reference::fingerprintOf(grown));
    EXPECT_EQ(original.topo.nodeCount(), nodes);
    EXPECT_EQ(exec::fingerprintOf(original), fp);
}

TEST(TopologyGraph, MovedFromIsEmptyAndValid)
{
    sys::SystemConfig system = sys::c4140M();
    net::Topology topo = system.topo;
    ASSERT_TRUE(topo.route(system.gpu_nodes[0], system.gpu_nodes[3]));
    ASSERT_FALSE(topo.gpus().empty()); // warms the per-kind cache
    const std::string described = topo.describe();

    net::Topology moved = std::move(topo);
    EXPECT_EQ(moved.describe(), described);
    EXPECT_TRUE(moved.route(system.gpu_nodes[0], system.gpu_nodes[3]));

    EXPECT_EQ(topo.nodeCount(), 0);
    EXPECT_EQ(topo.edgeCount(), 0);
    EXPECT_TRUE(topo.gpus().empty());
    EXPECT_FALSE(topo.degraded());
    EXPECT_EQ(topo.describe(), "");
    // Still usable: it builds like a new topology.
    net::NodeId c = topo.addCpu("CPU0");
    net::NodeId g = topo.addGpu("GPU0");
    topo.connect(c, g, net::pcie3(16));
    EXPECT_EQ(topo.nodeCount(), 2);
    EXPECT_EQ(topo.gpus(), std::vector<net::NodeId>{g});
    EXPECT_NO_THROW(topo.validate());

    net::Topology assigned;
    assigned = std::move(moved);
    EXPECT_EQ(moved.nodeCount(), 0);
    EXPECT_TRUE(moved.gpus().empty());
    EXPECT_EQ(assigned.describe(), described);
}

// Threads fingerprint and route their own copies of a healthy and a
// spine-degraded pod, and one shared copy each, on a graph nobody has
// fingerprinted yet; every answer must equal the serial one.
TEST(TopologyGraph, ThreadsSharingOneGraphMatchSerial)
{
    const sys::SystemConfig healthy = sys::withPod(sys::c4140M(), 4, 4);
    const sys::SystemConfig spine = sys::withSpineDegraded(healthy, 0.25);
    const std::vector<std::pair<net::NodeId, net::NodeId>> pairs = {
        {healthy.gpu_nodes[0], healthy.gpu_nodes[63]},
        {healthy.gpu_nodes[5], healthy.gpu_nodes[20]},
        {healthy.cpu_nodes[1], healthy.gpu_nodes[40]},
        {healthy.gpu_nodes[62], healthy.cpu_nodes[0]},
    };
    auto bandwidths = [&](const net::Topology &t) {
        std::vector<double> out;
        for (const auto &[a, b] : pairs)
            out.push_back(t.pathBandwidth(*t.route(a, b)));
        return out;
    };
    const exec::Fingerprint want_healthy = reference::fingerprintOf(healthy);
    const exec::Fingerprint want_spine = reference::fingerprintOf(spine);
    const std::vector<double> bw_healthy =
        bandwidths(net::Topology(healthy.topo));
    const std::vector<double> bw_spine =
        bandwidths(net::Topology(spine.topo));
    ASSERT_NE(want_healthy, want_spine);

    constexpr int kThreads = 4;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 20; ++round) {
                const bool degraded = (t + round) % 2 == 1;
                const sys::SystemConfig &shared = degraded ? spine : healthy;
                const sys::SystemConfig own = shared;
                const exec::Fingerprint want =
                    degraded ? want_spine : want_healthy;
                const std::vector<double> &bw =
                    degraded ? bw_spine : bw_healthy;
                if (exec::fingerprintOf(own) != want ||
                    exec::fingerprintOf(shared) != want ||
                    bandwidths(own.topo) != bw ||
                    bandwidths(shared.topo) != bw)
                    ++mismatches[t];
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
}

} // namespace
