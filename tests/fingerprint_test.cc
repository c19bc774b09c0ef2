/**
 * @file
 * Tests of the shared topology graph, the shared op-graph block and
 * the memoized machine and workload fingerprints.
 *
 * Copies of a net::Topology share one immutable graph and own their
 * link state; exec::fingerprintOf(system) memoizes its topology pass
 * on that graph. Copies of a wl::OpGraph share one block (name, ops,
 * totals) and copy it before a write; exec::fingerprintOf(workload)
 * memoizes its graph pass on that block. These tests pin the
 * fingerprints and request keys to values the unmemoized build wrote
 * (so journals keyed by them stay warm), compare the memos with the
 * unmemoized references over long mutation walks, and check that
 * writes on a copy leave the original, that a moved-from topology or
 * graph is empty, and that threads sharing one graph or block agree
 * with a serial run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
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
#include "models/zoo.h"
#include "sys/machines.h"
#include "wl/import/importer.h"

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

/** An mlpsim-graph-v1 document whose workload is not a built-in. */
constexpr const char *kImportedDoc = R"({
  "format": "mlpsim-graph-v1",
  "workload": {"abbrev": "FP_Imp", "suite": "MLPerf", "mode": "training"},
  "graph": {"name": "fp-tiny", "ops": [
    {"name": "conv", "kind": "conv2d", "shape": {"h": 32, "w": 32, "c_in": 3, "c_out": 16, "k": 3}},
    {"name": "fc1", "kind": "gemm", "shape": {"m": 64, "k": 128, "n": 256}},
    {"name": "act", "kind": "elementwise", "shape": {"elements": 16384}}
  ]},
  "dataset": {"name": "synth", "num_samples": 1000}
})";

/** The workloads of tests/golden/fingerprints.txt: label -> builder. */
std::map<std::string, std::function<wl::WorkloadSpec()>>
workloadCases()
{
    std::map<std::string, std::function<wl::WorkloadSpec()>> cases;
    for (const wl::WorkloadSpec &w : models::allWorkloads())
        cases["workload " + w.abbrev] = [abbrev = w.abbrev] {
            return *models::findWorkload(abbrev);
        };
    cases["workload FP_Imp (imported)"] = [] {
        wl::import::ImportResult r = wl::import::importWorkload(kImportedDoc);
        EXPECT_TRUE(r.ok) << wl::import::renderDiagnostics("doc", r);
        return r.spec;
    };
    return cases;
}

/**
 * label -> (first, second field) of the golden lines whose label
 * starts with "workload " (workloads) or does not (machines: system
 * fingerprint and request key, as hex).
 */
std::map<std::string, std::pair<std::string, std::string>>
readGoldens(bool workloads = false)
{
    std::ifstream in(std::string(MLPSIM_GOLDEN_DIR) + "/fingerprints.txt");
    std::map<std::string, std::pair<std::string, std::string>> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string first, second, label;
        std::getline(fields, first, '\t');
        std::getline(fields, second, '\t');
        std::getline(fields, label);
        if ((label.rfind("workload ", 0) == 0) == workloads)
            out[label] = {first, second};
    }
    return out;
}

/** OpGraph::totals() as the unmemoized build summed it. */
wl::GraphTotals
summedTotals(const wl::OpGraph &g)
{
    wl::GraphTotals t;
    for (const wl::Op &op : g.ops()) {
        t.fwd_flops += op.flops;
        t.bwd_flops += op.flops * wl::backwardFlopScale(op.kind);
        t.fwd_bytes += op.bytes;
        t.bwd_bytes += op.bytes * wl::backwardFlopScale(op.kind);
        t.param_bytes += op.param_bytes;
        t.activation_bytes += op.activation_bytes;
        ++t.op_count;
    }
    return t;
}

/** Every field equal, bit for bit. */
bool
sameTotals(const wl::GraphTotals &a, const wl::GraphTotals &b)
{
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    return bits(a.fwd_flops) == bits(b.fwd_flops) &&
           bits(a.bwd_flops) == bits(b.bwd_flops) &&
           bits(a.fwd_bytes) == bits(b.fwd_bytes) &&
           bits(a.bwd_bytes) == bits(b.bwd_bytes) &&
           bits(a.param_bytes) == bits(b.param_bytes) &&
           bits(a.activation_bytes) == bits(b.activation_bytes) &&
           a.op_count == b.op_count;
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

// The pass mixes the machine's CPU, GPU and switch node-id lists after
// the topology, so machines that share one graph and link state but
// list other nodes memoize separately, and lists equal by value hit.
TEST(FingerprintMemo, KeyedOnTheNodeLists)
{
    const sys::SystemConfig a = sys::withPod(sys::c4140M(), 2, 4);
    sys::SystemConfig reversed = a;
    std::reverse(reversed.gpu_nodes.begin(), reversed.gpu_nodes.end());
    sys::SystemConfig moved = a; // one id moves to the next list
    moved.gpu_nodes.push_back(moved.cpu_nodes.back());
    moved.cpu_nodes.pop_back();
    sys::SystemConfig extra = a;
    extra.switch_nodes.push_back(extra.cpu_nodes.front());
    const std::vector<const sys::SystemConfig *> machines = {
        &a, &reversed, &moved, &extra};
    for (int round = 0; round < 2; ++round) {
        for (const sys::SystemConfig *m : machines)
            EXPECT_EQ(exec::fingerprintOf(*m), reference::fingerprintOf(*m))
                << m->gpu_nodes.size() << " GPUs, round " << round;
    }
    for (std::size_t i = 1; i < machines.size(); ++i)
        EXPECT_NE(exec::fingerprintOf(a), exec::fingerprintOf(*machines[i]))
            << i;

    sys::SystemConfig restored = reversed;
    std::reverse(restored.gpu_nodes.begin(), restored.gpu_nodes.end());
    EXPECT_EQ(exec::fingerprintOf(restored), exec::fingerprintOf(a));
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

// Journals written before copies of an OpGraph shared one block are
// keyed by these values. Every case builds a new workload, so its
// block's memo starts empty: the first call misses it, the repeat and
// a copy hit it.
TEST(FingerprintGolden, WorkloadsMatchUnmemoizedBuildOnMissAndHit)
{
    const auto goldens = readGoldens(true);
    const auto cases = workloadCases();
    ASSERT_EQ(goldens.size(), 14u);
    ASSERT_EQ(goldens.size(), cases.size());
    for (const auto &[label, build] : cases) {
        ASSERT_EQ(goldens.count(label), 1u) << label;
        const std::string &want = goldens.at(label).first;
        const wl::WorkloadSpec spec = build();
        EXPECT_EQ(exec::toHex(exec::fingerprintOf(spec)), want)
            << label << " (miss)";
        EXPECT_EQ(exec::toHex(exec::fingerprintOf(spec)), want)
            << label << " (hit)";
        const wl::WorkloadSpec copy = spec;
        EXPECT_EQ(exec::toHex(exec::fingerprintOf(copy)), want)
            << label << " (copy)";
        EXPECT_EQ(exec::toHex(reference::fingerprintOf(spec)), want)
            << label << " (reference)";
        EXPECT_TRUE(sameTotals(spec.graph.totals(), summedTotals(spec.graph)))
            << label;
    }
}

// The graph pass runs over the incoming state (the identity strings
// are mixed in first), so specs that share one graph but differ in
// abbrev memoize separately on its block.
TEST(FingerprintMemo, WorkloadKeyedOnTheIncomingState)
{
    const wl::WorkloadSpec a = *models::findWorkload("MLPf_Res50_MX");
    wl::WorkloadSpec b = a;
    b.abbrev += " (renamed)";
    ASSERT_EQ(&a.graph.ops(), &b.graph.ops()); // one shared block
    for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(exec::fingerprintOf(a), reference::fingerprintOf(a))
            << "round " << round;
        EXPECT_EQ(exec::fingerprintOf(b), reference::fingerprintOf(b))
            << "round " << round;
    }
    EXPECT_NE(exec::fingerprintOf(a), exec::fingerprintOf(b));
}

// 1k seeded steps over eight specs that share one graph under five
// abbrevs (the memo keeps four entries per block, so it evicts). Each
// step scales, grows or appends to one copy's graph, renames it,
// overwrites it with another copy or restores the original; then the
// memoized fingerprint must equal the unmemoized pass and the cached
// totals a fresh sum, on a miss and a hit, for that copy and a random
// other.
TEST(FingerprintMemo, WorkloadGraphMutationStressMatchesReference)
{
    const wl::WorkloadSpec original = *models::findWorkload("MLPf_SSD_Py");
    wl::OpGraph tail("tail");
    tail.add(wl::gemm("tail.fc", 4, 8, 16));
    tail.add(wl::Op{"tail.relu", wl::OpKind::Elementwise, 3.0, 5.0, 0.0,
                    7.0});
    std::vector<wl::WorkloadSpec> copies(8, original);
    sim::Rng rng(23);
    for (int step = 0; step < 1000; ++step) {
        wl::WorkloadSpec &w = copies[rng.below(copies.size())];
        switch (rng.below(8)) {
          case 0:
            w = copies[rng.below(copies.size())];
            break;
          case 1:
            w = original;
            break;
          case 2:
            w.abbrev = "FP_" + std::to_string(rng.below(5));
            break;
          case 3:
            w.graph.add(wl::gemm("g" + std::to_string(step), 2, 2, 2));
            break;
          case 4:
            w.graph.append(tail);
            break;
          default:
            w.graph.scaleWork(rng.chance(0.5) ? 0.5 : 2.0);
            break;
        }
        for (const wl::WorkloadSpec *c :
             {&w, &copies[rng.below(copies.size())]}) {
            const exec::Fingerprint want = reference::fingerprintOf(*c);
            ASSERT_EQ(exec::fingerprintOf(*c), want) << "step " << step;
            ASSERT_EQ(exec::fingerprintOf(*c), want)
                << "step " << step << " (repeat)";
            ASSERT_TRUE(sameTotals(c->graph.totals(), summedTotals(c->graph)))
                << "step " << step;
        }
    }
    EXPECT_EQ(exec::fingerprintOf(original),
              reference::fingerprintOf(original));
}

TEST(OpGraphBlock, WritesOnACopyLeaveTheOriginalAndItsMemo)
{
    const wl::WorkloadSpec original = *models::findWorkload("MLPf_GNMT_Py");
    const exec::Fingerprint fp = exec::fingerprintOf(original);
    const wl::GraphTotals totals = original.graph.totals();
    const std::size_t size = original.graph.size();
    using Write = std::function<void(wl::OpGraph &)>;
    const std::vector<std::pair<std::string, Write>> writes = {
        {"scaleWork", [](wl::OpGraph &g) { g.scaleWork(1.5); }},
        {"add", [](wl::OpGraph &g) { g.add(wl::gemm("extra", 8, 8, 8)); }},
        {"append", [&](wl::OpGraph &g) { g.append(original.graph); }},
        {"append itself", [](wl::OpGraph &g) { g.append(g); }},
    };
    for (const auto &[label, write] : writes) {
        wl::WorkloadSpec copy = original;
        EXPECT_EQ(exec::fingerprintOf(copy), fp) << label << " (before)";
        write(copy.graph);
        const exec::Fingerprint want = reference::fingerprintOf(copy);
        EXPECT_NE(want, fp) << label;
        EXPECT_EQ(exec::fingerprintOf(copy), want) << label << " (miss)";
        EXPECT_EQ(exec::fingerprintOf(copy), want) << label << " (hit)";
        EXPECT_TRUE(
            sameTotals(copy.graph.totals(), summedTotals(copy.graph)))
            << label;

        EXPECT_EQ(original.graph.size(), size) << label;
        EXPECT_TRUE(sameTotals(original.graph.totals(), totals)) << label;
        EXPECT_EQ(exec::fingerprintOf(original), fp) << label;
        EXPECT_EQ(reference::fingerprintOf(original), fp) << label;

        // The other direction: a write on the graph a copy was taken
        // from leaves the copy. The source owns its block alone until
        // the copy.
        wl::WorkloadSpec source = original;
        source.graph = wl::OpGraph(original.graph.name());
        source.graph.append(original.graph);
        const wl::WorkloadSpec kept = source;
        write(source.graph);
        EXPECT_EQ(exec::fingerprintOf(source), want) << label << " (source)";
        EXPECT_EQ(reference::fingerprintOf(kept), fp) << label << " (kept)";
        EXPECT_EQ(exec::fingerprintOf(kept), fp) << label << " (kept)";
    }
}

// A write on a graph nobody else holds changes it in place and must
// drop the memo its block already has.
TEST(OpGraphBlock, WritesOnAnUnsharedGraphDropItsMemo)
{
    wl::WorkloadSpec w;
    w.abbrev = "FP_Own";
    w.graph = wl::OpGraph("own");
    w.graph.add(wl::gemm("fc", 16, 32, 64));
    exec::Fingerprint last = exec::fingerprintOf(w);
    for (int step = 0; step < 3; ++step) {
        if (step == 0)
            w.graph.add(wl::gemm("fc2", 16, 64, 8));
        else if (step == 1)
            w.graph.scaleWork(3.0);
        else
            w.graph.append(wl::OpGraph("empty"));
        const exec::Fingerprint want = reference::fingerprintOf(w);
        EXPECT_EQ(exec::fingerprintOf(w), want) << "step " << step;
        EXPECT_EQ(exec::fingerprintOf(w), want) << "step " << step;
        EXPECT_TRUE(sameTotals(w.graph.totals(), summedTotals(w.graph)));
        if (step < 2) {
            EXPECT_NE(want, last) << "step " << step;
        }
        last = want;
    }
}

TEST(OpGraphBlock, MovedFromIsEmptyAndValid)
{
    wl::OpGraph g("g");
    g.add(wl::gemm("fc", 4, 4, 4));
    wl::OpGraph moved = std::move(g);
    EXPECT_EQ(moved.size(), 1u);
    EXPECT_EQ(moved.name(), "g");

    EXPECT_TRUE(g.empty());
    EXPECT_EQ(g.name(), "");
    EXPECT_EQ(g.totals().op_count, 0);
    EXPECT_EQ(g.describe(), " (0 ops)\n");
    // Still usable: it builds like a new graph.
    g.add(wl::gemm("fc2", 2, 2, 2));
    EXPECT_EQ(g.size(), 1u);
    EXPECT_EQ(g.totals().op_count, 1);

    wl::OpGraph assigned;
    assigned = std::move(moved);
    EXPECT_TRUE(moved.empty());
    EXPECT_EQ(assigned.ops().front().name, "fc");
}

// Threads fingerprint their own copies (some scaled) of one workload
// under two abbrevs, and the shared specs themselves, on a block
// nobody has fingerprinted yet; every answer must equal the serial
// one.
TEST(OpGraphBlock, ThreadsFingerprintingCopiesOfOneGraphMatchSerial)
{
    const wl::WorkloadSpec a = *models::findWorkload("MLPf_MRCNN_Py");
    wl::WorkloadSpec b = a;
    b.abbrev = "FP_Twin";
    wl::WorkloadSpec scaled = a;
    scaled.graph.scaleWork(2.0);
    const exec::Fingerprint want_a = reference::fingerprintOf(a);
    const exec::Fingerprint want_b = reference::fingerprintOf(b);
    const exec::Fingerprint want_scaled = reference::fingerprintOf(scaled);
    const wl::GraphTotals totals_scaled = summedTotals(scaled.graph);

    constexpr int kThreads = 4;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 20; ++round) {
                const bool twin = (t + round) % 2 == 1;
                const wl::WorkloadSpec &shared = twin ? b : a;
                const exec::Fingerprint want = twin ? want_b : want_a;
                wl::WorkloadSpec own = shared;
                if (exec::fingerprintOf(own) != want ||
                    exec::fingerprintOf(shared) != want)
                    ++mismatches[t];
                if (round % 4 == 3) {
                    own = a;
                    own.graph.scaleWork(2.0);
                    if (exec::fingerprintOf(own) != want_scaled ||
                        !sameTotals(own.graph.totals(), totals_scaled))
                        ++mismatches[t];
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
    EXPECT_EQ(exec::fingerprintOf(a), want_a);
}

} // namespace
