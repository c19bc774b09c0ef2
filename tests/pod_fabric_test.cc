/**
 * @file
 * Hierarchical datacenter fabric tests: pod composition and
 * validation, hierarchical collectives (per-tier byte conservation,
 * exact degenerate delegation, emergent degradation ordering), the
 * pod-scale fault classes, the pod spec grammar and machine
 * vocabulary shared by the CLI and serve, request-fingerprint
 * coverage of the hierarchy, multi-node training on N x 1 pods of
 * DSS 8440 hosts, and a 128-GPU link-state mutation stress with
 * seeded-replay determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/fingerprint.h"
#include "fault/link_fault.h"
#include "models/zoo.h"
#include "net/allreduce.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "net/transfer.h"
#include "obs/registry.h"
#include "serve/protocol.h"
#include "sim/logger.h"
#include "sim/rng.h"
#include "sys/machines.h"
#include "train/trainer.h"

namespace {

using namespace mlps;
using mlps::sim::FatalError;

// ------------------------------------------------ pod composition

TEST(PodTopology, ComposesRacksOfBoxes)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 4, 4);
    EXPECT_EQ(pod.name, "C4140 (M) pod 4x4");
    EXPECT_EQ(pod.num_gpus, 64);
    EXPECT_EQ(pod.num_cpus, 32);
    EXPECT_EQ(pod.topo.nodesOfKind(net::NodeKind::TorSwitch).size(),
              4u);
    EXPECT_EQ(pod.topo.nodesOfKind(net::NodeKind::SpineSwitch).size(),
              2u);
    EXPECT_EQ(pod.topo.nodesOfKind(net::NodeKind::Nic).size(), 16u);
    pod.validate(); // must hold all SystemConfig + graph invariants

    net::FabricShape shape =
        net::fabricShape(pod.topo, pod.gpu_nodes);
    EXPECT_EQ(shape.node_groups.size(), 16u);
    EXPECT_EQ(shape.rack_groups.size(), 4u);
    EXPECT_TRUE(shape.uniform());
}

TEST(PodTopology, SingleRackPodHasNoSpineLayer)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 1, 4);
    EXPECT_TRUE(
        pod.topo.nodesOfKind(net::NodeKind::SpineSwitch).empty());
    pod.validate();
}

// ---------------------------------------------- validate() rules

/** Expect validate() to throw (CLI exit code 3) with a hint. */
void
expectInvalid(const net::Topology &topo, const std::string &hint)
{
    try {
        topo.validate();
        FAIL() << "validate() accepted a malformed hierarchy "
               << "(expected hint: " << hint << ")";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(hint), std::string::npos)
            << "got: " << e.what();
    }
}

TEST(PodValidation, RejectsGpuWiredToSpine)
{
    net::Topology topo;
    net::NodeId cpu = topo.addCpu("CPU0");
    net::NodeId gpu = topo.addGpu("GPU0");
    net::NodeId spine = topo.addSpineSwitch("spine0");
    topo.connect(cpu, gpu, net::pcie3(16));
    topo.connect(gpu, spine,
                 net::ethernet(100.0, net::FabricTier::CrossRack));
    expectInvalid(topo, "behind a NIC");
}

TEST(PodValidation, RejectsNicWithoutUplink)
{
    net::Topology topo;
    net::NodeId cpu = topo.addCpu("CPU0");
    net::NodeId gpu = topo.addGpu("GPU0");
    net::NodeId nic = topo.addNic("NIC0");
    topo.connect(cpu, gpu, net::pcie3(16));
    topo.connect(cpu, nic, net::pcie3(16));
    expectInvalid(topo, "zero uplinks");
}

TEST(PodValidation, RejectsRackStrandedFromSpineLayer)
{
    net::Topology topo;
    net::NodeId tor0 = topo.addTorSwitch("tor0");
    net::NodeId tor1 = topo.addTorSwitch("tor1");
    net::NodeId spine = topo.addSpineSwitch("spine0");
    topo.connect(tor0, spine,
                 net::ethernet(100.0, net::FabricTier::CrossRack));
    // tor1 reaches the pod only through tor0 — not a spine uplink.
    topo.connect(tor1, tor0,
                 net::ethernet(100.0, net::FabricTier::IntraRack));
    expectInvalid(topo, "disconnected from the pod");
}

/** The "<case>\t<error>" lines of tests/golden/topology_errors.txt. */
std::vector<std::pair<std::string, std::string>>
topologyErrors()
{
    std::ifstream in(std::string(MLPSIM_GOLDEN_DIR) +
                     "/topology_errors.txt");
    std::vector<std::pair<std::string, std::string>> cases;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t tab = line.find('\t');
        if (tab == std::string::npos) {
            ADD_FAILURE() << "golden line without a tab: " << line;
            continue;
        }
        cases.emplace_back(line.substr(0, tab), line.substr(tab + 1));
    }
    return cases;
}

/** The topology of a golden case, which validate() must reject. */
net::Topology
invalidTopology(const std::string &name)
{
    net::Topology topo;
    if (name == "no_nodes")
        return topo;
    if (name == "pod_host_cut_off") {
        // A validated pod whose last host loses its NIC uplink.
        sys::SystemConfig pod = sys::withPod(sys::c4140M(), 2, 2);
        net::NodeId nic = -1;
        for (net::NodeId n = 0; n < pod.topo.nodeCount(); ++n) {
            if (pod.topo.name(n) == "r1n1.NIC0")
                nic = n;
        }
        for (int e = 0; e < pod.topo.edgeCount(); ++e) {
            auto [a, b] = pod.topo.endpoints(e);
            if ((a == nic || b == nic) &&
                pod.topo.link(e).tier == net::FabricTier::IntraRack)
                pod.topo.setLinkDown(e, true);
        }
        return pod.topo;
    }
    net::NodeId cpu = topo.addCpu("CPU0");
    net::NodeId gpu = topo.addGpu("GPU0");
    if (name == "zero_bandwidth" || name == "zero_efficiency") {
        net::LinkSpec link = net::pcie3(16);
        (name == "zero_bandwidth" ? link.gbps : link.efficiency) = 0.0;
        topo.connect(cpu, gpu, net::pcie3(16));
        topo.connect(gpu, cpu, link);
    } else if (name == "gpu_to_spine") {
        net::NodeId spine = topo.addSpineSwitch("spine0");
        topo.connect(cpu, gpu, net::pcie3(16));
        topo.connect(gpu, spine,
                     net::ethernet(100.0, net::FabricTier::CrossRack));
    } else if (name == "nic_without_uplink") {
        net::NodeId nic = topo.addNic("NIC0");
        topo.connect(cpu, gpu, net::pcie3(16));
        topo.connect(cpu, nic, net::pcie3(16));
    } else if (name == "tor_stranded") {
        net::NodeId nic = topo.addNic("NIC0");
        net::NodeId tor0 = topo.addTorSwitch("tor0");
        net::NodeId tor1 = topo.addTorSwitch("tor1");
        net::NodeId spine = topo.addSpineSwitch("spine0");
        topo.connect(cpu, gpu, net::pcie3(16));
        topo.connect(cpu, nic, net::pcie3(16));
        topo.connect(nic, tor0,
                     net::ethernet(100.0, net::FabricTier::IntraRack));
        topo.connect(tor0, spine,
                     net::ethernet(100.0, net::FabricTier::CrossRack));
        topo.connect(tor1, tor0,
                     net::ethernet(100.0, net::FabricTier::IntraRack));
    } else if (name == "isolated_node") {
        topo.addGpu("GPU1");
        topo.connect(cpu, gpu, net::pcie3(16));
        topo.connect(topo.addGpu("GPU2"), cpu, net::pcie3(16));
    } else {
        ADD_FAILURE() << "no topology for golden case " << name;
    }
    return topo;
}

// The full text of every validate() rejection stays byte for byte:
// each check runs in a fixed order and names the first node by id
// that fails it.
TEST(PodValidation, ErrorTextsMatchGolden)
{
    const auto cases = topologyErrors();
    ASSERT_EQ(cases.size(), 8u);
    for (const auto &[name, want] : cases) {
        const net::Topology topo = invalidTopology(name);
        try {
            topo.validate();
            ADD_FAILURE() << name << ": validate() accepted it";
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()), want) << name;
        }
        // A copy of a graph that failed checks again, with the same
        // text.
        const net::Topology copy = topo;
        try {
            copy.validate();
            ADD_FAILURE() << name << ": a copy passed validate()";
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()), want) << name << " (copy)";
        }
    }
}

// ------------------------------------- hierarchical collectives

TEST(HierarchicalAllReduce, PerTierBytesPartitionKindTotals)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 4, 4);
    const double bytes = 64.0 * 1024 * 1024;
    net::AllReduceResult r = net::autoHierarchicalAllReduce(
        pod.topo, pod.gpu_nodes, bytes);
    ASSERT_GT(r.seconds, 0.0);

    double kinds = r.nvlink_bytes + r.pcie_bytes + r.upi_bytes +
                   r.eth_bytes;
    double tiers = 0.0;
    for (int t = 0; t < net::kNumFabricTiers; ++t)
        tiers += r.tier_bytes[t];
    // Two partitions of the same traffic.
    EXPECT_NEAR(kinds, tiers, 1e-6 * kinds);
    EXPECT_GT(kinds, 0.0);
    // A multi-rack collective must touch all three tiers.
    for (int t = 0; t < net::kNumFabricTiers; ++t)
        EXPECT_GT(r.tier_bytes[t], 0.0) << "tier " << t;
}

TEST(HierarchicalAllReduce, SingleHostPodMatchesFlatRingExactly)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 1, 1, 0);
    const double bytes = 16.0 * 1024 * 1024;
    net::AllReduceResult hier = net::hierarchicalRingAllReduce(
        pod.topo, pod.gpu_nodes, bytes);
    net::AllReduceResult flat =
        net::ringAllReduce(pod.topo, pod.gpu_nodes, bytes);
    // Bit-identical delegation, not merely close.
    EXPECT_EQ(hier.seconds, flat.seconds);
    EXPECT_EQ(hier.fabric, flat.fabric);
    EXPECT_EQ(hier.nvlink_bytes, flat.nvlink_bytes);
    EXPECT_EQ(hier.pcie_bytes, flat.pcie_bytes);
    EXPECT_EQ(hier.upi_bytes, flat.upi_bytes);
    EXPECT_EQ(hier.eth_bytes, flat.eth_bytes);
    EXPECT_EQ(hier.reroutes, flat.reroutes);

    net::AllReduceResult chosen = net::autoHierarchicalAllReduce(
        pod.topo, pod.gpu_nodes, bytes);
    EXPECT_EQ(chosen.seconds, flat.seconds);
}

TEST(HierarchicalAllReduce, DegradationOrderingIsEmergent)
{
    sys::SystemConfig healthy = sys::withPod(sys::c4140M(), 4, 4);
    sys::SystemConfig tor = sys::withTorDegraded(healthy, 0, 0.25);
    sys::SystemConfig spine = sys::withSpineDegraded(healthy, 0.25);
    const double bytes = 64.0 * 1024 * 1024;

    double t_h = net::autoHierarchicalAllReduce(
                     healthy.topo, healthy.gpu_nodes, bytes)
                     .seconds;
    double t_t = net::autoHierarchicalAllReduce(tor.topo,
                                                tor.gpu_nodes, bytes)
                     .seconds;
    double t_s = net::autoHierarchicalAllReduce(
                     spine.topo, spine.gpu_nodes, bytes)
                     .seconds;
    // One slow ToR paces the barrier steps it participates in, an
    // oversubscribed spine paces them all; the ordering emerges from
    // the flow model, it is not asserted anywhere in net/.
    EXPECT_LE(t_h, t_t);
    EXPECT_LE(t_t, t_s);
    EXPECT_LT(t_h, t_s);
}

// -------------------------------------------- pod fault classes

TEST(PodFaults, PodScaleClassesFireOnPodsWithEligibleTargets)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 2, 2);
    fault::LinkFaultModel model(
        fault::LinkFaultConfig::datacenterProfile(0.25), 7);
    auto trace = model.generate(96 * 3600.0, pod.topo);
    ASSERT_FALSE(trace.empty());

    bool saw_flap = false, saw_tor = false, saw_spine = false;
    for (const auto &ev : trace) {
        switch (ev.kind) {
          case fault::LinkFaultKind::NicFlap:
            saw_flap = true;
            ASSERT_GE(ev.edge, 0);
            EXPECT_EQ(pod.topo.link(ev.edge).kind, net::LinkKind::Eth);
            EXPECT_EQ(pod.topo.link(ev.edge).tier,
                      net::FabricTier::IntraRack);
            EXPECT_DOUBLE_EQ(ev.bandwidth_scale, 0.0);
            break;
          case fault::LinkFaultKind::TorDown:
            saw_tor = true;
            ASSERT_GE(ev.node, 0);
            EXPECT_EQ(pod.topo.kind(ev.node),
                      net::NodeKind::TorSwitch);
            EXPECT_EQ(ev.edge, -1);
            break;
          case fault::LinkFaultKind::SpineOversubscribed:
            saw_spine = true;
            EXPECT_EQ(ev.edge, -1);
            EXPECT_EQ(ev.node, -1);
            EXPECT_EQ(ev.gpu, -1);
            EXPECT_GT(ev.bandwidth_scale, 0.0);
            EXPECT_LT(ev.bandwidth_scale, 1.0);
            break;
          default:
            break;
        }
    }
    EXPECT_TRUE(saw_flap);
    EXPECT_TRUE(saw_tor);
    EXPECT_TRUE(saw_spine);
}

TEST(PodFaults, ApplySemanticsPerClass)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 2, 2);
    net::Topology &topo = pod.topo;
    net::NodeId tor0 = topo.nodesOfKind(net::NodeKind::TorSwitch)[0];

    std::vector<fault::LinkFaultEvent> trace;
    fault::LinkFaultEvent down;
    down.kind = fault::LinkFaultKind::TorDown;
    down.start_s = 10.0;
    down.duration_s = 50.0;
    down.bandwidth_scale = 0.0;
    down.node = tor0;
    trace.push_back(down);
    fault::LinkFaultEvent spine;
    spine.kind = fault::LinkFaultKind::SpineOversubscribed;
    spine.start_s = 10.0;
    spine.duration_s = 50.0;
    spine.bandwidth_scale = 0.4;
    trace.push_back(spine);

    fault::applyLinkFaults(topo, trace, 30.0);
    for (int e : topo.incidentEdges(tor0))
        EXPECT_TRUE(topo.linkDown(e));
    for (int e = 0; e < topo.edgeCount(); ++e) {
        if (topo.link(e).tier == net::FabricTier::CrossRack) {
            EXPECT_DOUBLE_EQ(topo.linkBandwidthScale(e), 0.4);
        } else if (!topo.linkDown(e)) {
            EXPECT_DOUBLE_EQ(topo.linkBandwidthScale(e), 1.0);
        }
    }

    // Past both windows the fabric heals completely.
    fault::applyLinkFaults(topo, trace, 120.0);
    EXPECT_FALSE(topo.anyLinkDown());
    EXPECT_FALSE(topo.degraded());
}

TEST(PodFaults, EnablingPodClassesNeverPerturbsBoxClassStreams)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 2, 2);
    fault::LinkFaultConfig full =
        fault::LinkFaultConfig::datacenterProfile(0.5);
    fault::LinkFaultConfig box_only = full;
    box_only.nic_flap.mttf_hours = 0.0;
    box_only.tor_down.mttf_hours = 0.0;
    box_only.spine_oversubscribed.mttf_hours = 0.0;

    auto a = fault::LinkFaultModel(box_only, 99)
                 .generate(48 * 3600.0, pod.topo);
    auto b = fault::LinkFaultModel(full, 99)
                 .generate(48 * 3600.0, pod.topo);
    std::vector<fault::LinkFaultEvent> b_box;
    for (const auto &ev : b) {
        switch (ev.kind) {
          case fault::LinkFaultKind::NvLinkLaneDegrade:
          case fault::LinkFaultKind::PcieDowntrain:
          case fault::LinkFaultKind::LinkDown:
          case fault::LinkFaultKind::ThermalThrottle:
            b_box.push_back(ev);
            break;
          default:
            break;
        }
    }
    ASSERT_EQ(a.size(), b_box.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b_box[i].kind);
        EXPECT_DOUBLE_EQ(a[i].start_s, b_box[i].start_s);
        EXPECT_DOUBLE_EQ(a[i].duration_s, b_box[i].duration_s);
        EXPECT_DOUBLE_EQ(a[i].bandwidth_scale,
                         b_box[i].bandwidth_scale);
        EXPECT_EQ(a[i].edge, b_box[i].edge);
        EXPECT_EQ(a[i].gpu, b_box[i].gpu);
    }
}

// ------------------------------------------------- spec grammar

TEST(PodGrammar, ParsesPodSpecsAndAliases)
{
    sys::SystemConfig out;
    std::string error;
    ASSERT_TRUE(
        sys::systemFromSpec("pod(C4140 (M),4x4)", &out, &error))
        << error;
    EXPECT_EQ(out.name, "C4140 (M) pod 4x4");
    EXPECT_EQ(out.num_gpus, 64);

    ASSERT_TRUE(sys::systemFromSpec("pod(C4140 (M),2x2,spines=4)",
                                    &out, &error))
        << error;
    EXPECT_EQ(
        out.topo.nodesOfKind(net::NodeKind::SpineSwitch).size(), 4u);

    ASSERT_TRUE(sys::systemFromSpec("reference", &out, &error));
    EXPECT_EQ(out.name, sys::mlperfReference().name);
    ASSERT_TRUE(sys::systemFromSpec("DSS 8440", &out, &error));
    EXPECT_EQ(out.name, "DSS 8440");
}

/** The "<spec>\t<error>" lines of tests/golden/vocabulary_errors.txt. */
std::vector<std::pair<std::string, std::string>>
vocabularyErrors()
{
    std::ifstream in(std::string(MLPSIM_GOLDEN_DIR) +
                     "/vocabulary_errors.txt");
    std::vector<std::pair<std::string, std::string>> cases;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t tab = line.find('\t');
        if (tab == std::string::npos) {
            ADD_FAILURE() << "golden line without a tab: " << line;
            continue;
        }
        cases.emplace_back(line.substr(0, tab), line.substr(tab + 1));
    }
    return cases;
}

TEST(PodGrammar, RejectsWithDidYouMean)
{
    const auto cases = vocabularyErrors();
    ASSERT_EQ(cases.size(), 4u);
    serve::Catalog catalog;
    for (const auto &[spec, want] : cases) {
        sys::SystemConfig out;
        std::string cli_error;
        EXPECT_FALSE(sys::systemFromSpec(spec, &out, &cli_error)) << spec;
        EXPECT_EQ(cli_error, want) << spec;
        std::string serve_error;
        EXPECT_EQ(catalog.findMachine(spec, &serve_error), nullptr)
            << spec;
        EXPECT_EQ(serve_error, want) << spec;
    }
}

TEST(PodGrammar, ServeCatalogSharesTheCliVocabulary)
{
    serve::Catalog catalog;
    std::string serve_error;
    EXPECT_EQ(catalog.findMachine("DSS 8441", &serve_error), nullptr);
    sys::SystemConfig out;
    std::string cli_error;
    EXPECT_FALSE(sys::systemFromSpec("DSS 8441", &out, &cli_error));
    // Byte-identical diagnostics: one resolver serves both paths.
    EXPECT_EQ(serve_error, cli_error);

    const sys::SystemConfig *pod =
        catalog.findMachine("pod(C4140 (M),2x2)", &serve_error);
    ASSERT_NE(pod, nullptr);
    EXPECT_EQ(pod->name, "C4140 (M) pod 2x2");
    EXPECT_EQ(pod->num_gpus, 16);
    // Cached: the same spec resolves to the same object.
    EXPECT_EQ(catalog.findMachine("pod(C4140 (M),2x2)", nullptr),
              pod);
}

// ---------------------------------------------- machine vocabulary

TEST(MachineVocabulary, EveryNameBuildsTheMachineItNames)
{
    const std::vector<std::string> table_iii = {
        "T640", "C4140 (B)", "C4140 (K)", "C4140 (M)", "R940xa",
        "DSS 8440"};
    std::vector<std::string> listed;
    for (const sys::SystemConfig &m : sys::allMachines())
        listed.push_back(m.name);
    EXPECT_EQ(listed, table_iii);

    std::vector<std::string> names = table_iii;
    names.push_back(sys::mlperfReference().name);
    for (const std::string &name : names) {
        sys::SystemConfig out;
        std::string error;
        ASSERT_TRUE(sys::systemFromSpec(name, &out, &error)) << error;
        EXPECT_EQ(out.name, name);
    }
}

TEST(MachineVocabulary, BothReferenceNamesResolveToTheReference)
{
    const exec::Fingerprint want =
        exec::fingerprintOf(sys::mlperfReference());
    serve::Catalog catalog;
    for (const std::string name : {"reference", "MLPerf reference (P100)"}) {
        sys::SystemConfig out;
        std::string error;
        ASSERT_TRUE(sys::systemFromSpec(name, &out, &error)) << error;
        EXPECT_TRUE(exec::fingerprintOf(out) == want) << name;
        const sys::SystemConfig *served = catalog.findMachine(name, &error);
        ASSERT_NE(served, nullptr) << error;
        EXPECT_TRUE(exec::fingerprintOf(*served) == want) << name;
    }
}

TEST(MachineVocabulary, ConcurrentLookupsShareOneMachinePerSpec)
{
    const std::vector<std::string> specs = {
        "DSS 8440", "pod(C4140 (M),2x2)", "reference", "C4140 (K)",
        "pod(T640,1x2)"};
    serve::Catalog catalog;
    constexpr int kThreads = 4;
    // Each thread's pointer per spec; null if a repeat lookup moved.
    std::vector<std::vector<const sys::SystemConfig *>> seen(
        kThreads,
        std::vector<const sys::SystemConfig *>(specs.size(), nullptr));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int round = 0; round < 4; ++round) {
                for (std::size_t k = 0; k < specs.size(); ++k) {
                    std::size_t i = (k + t) % specs.size();
                    const sys::SystemConfig *m =
                        catalog.findMachine(specs[i], nullptr);
                    if (round == 0)
                        seen[t][i] = m;
                    else if (m != seen[t][i])
                        seen[t][i] = nullptr;
                }
            }
        });
    for (std::thread &th : threads)
        th.join();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_NE(seen[0][i], nullptr) << specs[i];
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(seen[t][i], seen[0][i]) << specs[i];
    }
    EXPECT_EQ(seen[0][1]->name, "C4140 (M) pod 2x2");
    EXPECT_EQ(seen[0][2]->name, sys::mlperfReference().name);
    EXPECT_EQ(seen[0][4]->name, "T640 pod 1x2");
}

// -------------------------------------------------- fingerprints

TEST(PodFingerprint, RackLayoutAloneChangesTheFingerprint)
{
    // Same box, same GPU count (64), different rack/node split.
    sys::SystemConfig a = sys::withPod(sys::c4140M(), 8, 2);
    sys::SystemConfig b = sys::withPod(sys::c4140M(), 4, 4);
    ASSERT_EQ(a.num_gpus, b.num_gpus);
    // Names differ by construction; equalise them so only the graph
    // distinguishes the two.
    a.name = b.name = "pod64";
    EXPECT_NE(exec::fingerprintOf(a), exec::fingerprintOf(b));
}

TEST(PodFingerprint, FabricTierAloneChangesTheFingerprint)
{
    // Two systems identical except for one link's fabric tier.
    auto build = [](net::FabricTier tier) {
        sys::SystemConfig s = sys::c4140M();
        s.name = "tiertest";
        net::NodeId a = s.topo.addNic("NIC0");
        s.topo.connect(s.cpu_nodes[0], a, net::pcie3(16));
        net::NodeId tor = s.topo.addTorSwitch("tor0");
        s.topo.connect(a, tor, net::ethernet(100.0, tier));
        return s;
    };
    sys::SystemConfig x = build(net::FabricTier::IntraRack);
    sys::SystemConfig y = build(net::FabricTier::CrossRack);
    EXPECT_NE(exec::fingerprintOf(x), exec::fingerprintOf(y));
}

TEST(PodFingerprint, SpineDegradationChangesTheFingerprint)
{
    sys::SystemConfig healthy = sys::withPod(sys::c4140M(), 2, 2);
    sys::SystemConfig degraded =
        sys::withSpineDegraded(healthy, 0.5);
    degraded.name = healthy.name;
    EXPECT_NE(exec::fingerprintOf(healthy),
              exec::fingerprintOf(degraded));
}

// ------------------------------------------------ route cache

TEST(RouteCache, HitCounterFeedsTheObsRegistry)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 2, 2);
    net::NodeId a = pod.gpu_nodes.front();
    net::NodeId b = pod.gpu_nodes.back();

    ASSERT_TRUE(pod.topo.route(a, b).has_value()); // prime
    double hits_before = reg.value("net.topology.route_cache.hits");
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(pod.topo.route(a, b).has_value());
    double hits_after = reg.value("net.topology.route_cache.hits");
    EXPECT_GE(hits_after, hits_before + 5.0);

    // A link-state change invalidates: the next lookup is a miss.
    double misses_before =
        reg.value("net.topology.route_cache.misses");
    pod.topo.setLinkDown(0, true);
    ASSERT_TRUE(pod.topo.route(a, b).has_value());
    EXPECT_GE(reg.value("net.topology.route_cache.misses"),
              misses_before + 1.0);
    pod.topo.resetLinkState();
}

/** Route-cache hits and misses so far. */
std::pair<double, double>
routeCacheCounts()
{
    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    return {reg.value("net.topology.route_cache.hits"),
            reg.value("net.topology.route_cache.misses")};
}

// However a route is assembled, one public lookup is one hit or one
// miss, so the hit ratio means the same across routing changes.
TEST(RouteCache, OneLookupCountsOnce)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 4, 2);
    net::Topology topo = pod.topo; // a copy starts with no routes
    const std::vector<net::NodeId> &gpus = pod.gpu_nodes;
    ASSERT_TRUE(topo.route(gpus[0], gpus[1]).has_value()); // registers
    for (std::size_t i = 0; i + 1 < gpus.size(); i += 3) {
        const net::NodeId a = gpus[i], b = gpus[gpus.size() - 1 - i];
        for (int lookup = 0; lookup < 2; ++lookup) {
            auto [hits, misses] = routeCacheCounts();
            ASSERT_TRUE(topo.route(a, b).has_value());
            auto [hits_after, misses_after] = routeCacheCounts();
            EXPECT_EQ(hits_after - hits, lookup == 0 ? 0.0 : 1.0)
                << topo.name(a) << " -> " << topo.name(b);
            EXPECT_EQ(misses_after - misses, lookup == 0 ? 1.0 : 0.0)
                << topo.name(a) << " -> " << topo.name(b);
        }
    }
}

// A healthy pod's racks are copies of the first rack: pricing the
// tree's intra-rack rank-ring round prices every other rack's flows as
// unrouted copies of the first rack's. Within the first rack, the
// flows from host j to host j+1 are copies of the first pair's (r0n0
// to r0n1), so a fresh copy of the pod makes one route lookup per flow
// of the first pair and of the wrap pair (r0n7 to r0n0).
TEST(RouteCache, RackRingRoundRoutesOnlyTheFirstRack)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 16, 8);
    const std::vector<net::NodeId> &gpus = pod.gpu_nodes;
    ASSERT_TRUE(pod.topo.route(gpus[0], gpus[1]).has_value()); // registers
    net::Topology topo = pod.topo; // a copy starts with no routes
    const net::FabricShape shape = net::fabricShape(topo, gpus);
    const std::vector<std::vector<net::NodeId>> &hosts = shape.node_groups;
    ASSERT_EQ(shape.rack_groups.size(), 16u);
    // Rank i of host j to rank i of host j+1, around each rack.
    net::FlowSimulator fsim(topo);
    const int per_host = static_cast<int>(hosts[0].size());
    const int per_rack = static_cast<int>(shape.rack_groups[0].size());
    auto [hits, misses] = routeCacheCounts();
    for (const std::vector<int> &rack : shape.rack_groups) {
        for (int i = 0; i < per_host; ++i) {
            for (int j = 0; j < per_rack; ++j)
                fsim.addFlow(hosts[rack[j]][i],
                             hosts[rack[(j + 1) % per_rack]][i], 2e6);
        }
    }
    EXPECT_GT(fsim.run(), 0.0);
    auto [hits_after, misses_after] = routeCacheCounts();
    EXPECT_EQ(hits_after - hits + misses_after - misses,
              static_cast<double>(2 * per_host));
}

/** Route lookups made by pricing the 2D ring's cross-node round, rank
 *  i of host j to rank i of host j+1 around every host, on a fresh
 *  copy of 'pod'. */
double
crossNodeRoundLookups(const sys::SystemConfig &pod)
{
    const std::vector<net::NodeId> &gpus = pod.gpu_nodes;
    EXPECT_TRUE(pod.topo.route(gpus[0], gpus[1]).has_value()); // registers
    net::Topology topo = pod.topo; // a copy starts with no routes
    const net::FabricShape shape = net::fabricShape(topo, gpus);
    const std::vector<std::vector<net::NodeId>> &hosts = shape.node_groups;
    EXPECT_EQ(hosts.size(), 128u);
    net::FlowSimulator fsim(topo);
    const int per_host = static_cast<int>(hosts[0].size());
    const int m = static_cast<int>(hosts.size());
    auto [hits, misses] = routeCacheCounts();
    for (int i = 0; i < per_host; ++i) {
        for (int j = 0; j < m; ++j)
            fsim.addFlow(hosts[j][i], hosts[(j + 1) % m][i], 2e6);
    }
    EXPECT_GT(fsim.run(), 0.0);
    auto [hits_after, misses_after] = routeCacheCounts();
    return hits_after - hits + misses_after - misses;
}

// The 2D ring's cross-node round is host pairs: the flows from host j
// to host j+1 are the first pair's shifted, within a rack (r0n0 to
// r0n1) or across a rack boundary (r0n7 to r1n0). Pricing it on a
// fresh copy of a healthy pod routes those two pairs and the wrap pair
// (r15n7 to r0n0), and prices every other pair's flows as unrouted
// copies: one route lookup per flow of three pairs.
TEST(RouteCache, CrossNodeRoundRoutesOnlyTheFirstPairs)
{
    EXPECT_EQ(crossNodeRoundLookups(sys::withPod(sys::c4140M(), 16, 8)),
              12.0);
}

// The same round with the first host's NIC uplink at half bandwidth.
// r0n0 and rack 0 match no other block, so the pairs from r0n0 and
// from rack 0 price on their own; every other pair's twin is the
// lowest pair of healthy blocks, r0n1 to r0n2 for a host pair and
// rack 1 to rack 2 for a rack pair. Those four pairs and the wrap pair
// are routed: one lookup per flow of five pairs, where comparing every
// block with the first routed all 512 flows.
TEST(RouteCache, CrossNodeRoundWithADegradedFirstHost)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 16, 8);
    sys::applyDegradedLinks(pod, "r0n0.NIC0-tor0:0.5");
    EXPECT_EQ(crossNodeRoundLookups(pod), 20.0);
}

// Routes read only which links are down: scaling a link's bandwidth
// keeps every cached route, taking one down does not.
TEST(RouteCache, BandwidthScaleKeepsRoutes)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 2, 2);
    net::Topology warm = pod.topo;
    const std::vector<net::NodeId> &gpus = pod.gpu_nodes;
    auto routeAll = [&gpus](const net::Topology &topo) {
        std::vector<std::optional<net::Path>> out;
        for (net::NodeId a : gpus) {
            for (net::NodeId b : gpus)
                out.push_back(topo.route(a, b));
        }
        return out;
    };
    auto same = [](const std::vector<std::optional<net::Path>> &x,
                   const std::vector<std::optional<net::Path>> &y) {
        if (x.size() != y.size())
            return false;
        for (std::size_t i = 0; i < x.size(); ++i) {
            if (x[i].has_value() != y[i].has_value() ||
                (x[i] && (x[i]->nodes != y[i]->nodes ||
                          x[i]->edges != y[i]->edges)))
                return false;
        }
        return true;
    };
    routeAll(warm);

    const auto route = warm.route(gpus.front(), gpus.back());
    ASSERT_TRUE(route.has_value());
    const int spine_edge = route->edges[route->edges.size() / 2];
    const std::uint64_t epoch = warm.epoch();
    const double misses = routeCacheCounts().second;
    warm.setLinkBandwidthScale(spine_edge, 0.25);
    EXPECT_GT(warm.epoch(), epoch);
    const auto scaled = routeAll(warm);
    EXPECT_EQ(routeCacheCounts().second, misses);
    EXPECT_TRUE(same(scaled, routeAll(net::Topology(warm))));

    warm.setLinkDown(spine_edge, true);
    const auto rerouted = routeAll(warm);
    EXPECT_GT(routeCacheCounts().second, misses);
    EXPECT_TRUE(same(rerouted, routeAll(net::Topology(warm))));
    EXPECT_FALSE(same(rerouted, scaled));
}

// ------------------------------------------- scale-out on pods

/** DSS 8440 hosts for an n-node run: the box itself at n == 1, else
 *  an n x 1 pod — one host per rack, so each host's only path off
 *  the box is its ToR's spine uplinks. */
sys::SystemConfig
dssNodes(int nodes)
{
    return nodes == 1 ? sys::dss8440()
                      : sys::withPod(sys::dss8440(), nodes, 1);
}

/** A workload at the system's full width. */
train::TrainResult
runFullWidth(const sys::SystemConfig &system, const std::string &workload)
{
    train::RunOptions opts;
    opts.num_gpus = system.num_gpus;
    return train::Trainer(system).run(*models::findWorkload(workload),
                                      opts);
}

TEST(MultiNode, SingleNodeMatchesTrainerPlusNoInterComm)
{
    sys::SystemConfig pod = dssNodes(2);
    auto spec = *models::findWorkload("MLPf_SSD_Py");
    // Eight GPUs of a pod fill one host: no byte leaves the box.
    net::AllReduceResult ar =
        train::gradientAllReduce(pod, spec, hw::Precision::Mixed, 8);
    EXPECT_DOUBLE_EQ(
        ar.tier_bytes[static_cast<int>(net::FabricTier::IntraRack)] +
            ar.tier_bytes[static_cast<int>(net::FabricTier::CrossRack)],
        0.0);
    train::RunOptions opts;
    opts.num_gpus = 8;
    auto r = train::Trainer(pod).run(spec, opts);
    auto single = runFullWidth(sys::dss8440(), "MLPf_SSD_Py");
    EXPECT_NEAR(r.total_seconds, single.total_seconds,
                single.total_seconds * 0.01);
}

TEST(MultiNode, ScalableWorkloadKeepsScaling)
{
    double t1 = runFullWidth(dssNodes(1), "MLPf_Res50_TF").total_seconds;
    double t4 = runFullWidth(dssNodes(4), "MLPf_Res50_TF").total_seconds;
    EXPECT_GT(t1 / t4, 2.0);
}

TEST(MultiNode, NcfSaturatesAcrossNodes)
{
    double t1 = runFullWidth(dssNodes(1), "MLPf_NCF_Py").total_seconds;
    double t8 = runFullWidth(dssNodes(8), "MLPf_NCF_Py").total_seconds;
    // The batch cap + inter-node overhead leave no speedup.
    EXPECT_GT(t8, 0.75 * t1);
}

TEST(MultiNode, SlowNicHurtsCommHeavyWorkloads)
{
    // A quarter-speed spine is a quarter-speed path off every host.
    sys::SystemConfig fast = dssNodes(4);
    sys::SystemConfig slow = sys::withSpineDegraded(fast, 0.25);
    double t_slow = runFullWidth(slow, "MLPf_XFMR_Py").total_seconds;
    double t_fast = runFullWidth(fast, "MLPf_XFMR_Py").total_seconds;
    EXPECT_GT(t_slow, 1.3 * t_fast);
}

TEST(MultiNode, GlobalBatchCapDividesAcrossCluster)
{
    auto spec = *models::findWorkload("MLPf_NCF_Py");
    auto r = runFullWidth(dssNodes(4), "MLPf_NCF_Py");
    EXPECT_NEAR(r.global_batch, spec.convergence.global_batch_cap,
                spec.convergence.global_batch_cap * 0.01);
    EXPECT_NEAR(r.per_gpu_batch,
                spec.convergence.global_batch_cap / 32.0, 1.0);
}

/** Node-count sweep: every pod width yields a finite, positive run
 *  over all of its hosts. */
class MultiNodeSweepTest : public ::testing::TestWithParam<int>
{
};

TEST_P(MultiNodeSweepTest, IterationFiniteAndPositive)
{
    auto r = runFullWidth(dssNodes(GetParam()), "MLPf_GNMT_Py");
    EXPECT_GT(r.iter.iteration_s, 0.0);
    EXPECT_TRUE(std::isfinite(r.total_seconds));
    EXPECT_EQ(r.num_gpus, 8 * GetParam());
}

INSTANTIATE_TEST_SUITE_P(Nodes, MultiNodeSweepTest,
                         ::testing::Values(1, 2, 4, 8));

// ------------------------------------------- mutation stress

/**
 * 1000 random link-state mutations on a 128-GPU pod: downs (only
 * when the fabric survives them), bandwidth degradations and heals,
 * with route sanity checked each step, a full hierarchical
 * all-reduce sampled every 100 steps, and the whole history replayed
 * from the same seed expecting bit-identical timings and reroutes.
 */
TEST(PodStress, TopologyMutationStressIsDeterministic)
{
    auto episode = [](std::uint64_t seed, std::vector<double> &seconds,
                      std::vector<int> &reroutes) {
        sys::SystemConfig pod = sys::withPod(sys::c4140M(), 4, 8);
        EXPECT_EQ(pod.num_gpus, 128);
        net::Topology &topo = pod.topo;
        sim::Rng rng(seed);
        const double bytes = 8.0 * 1024 * 1024;

        for (int step = 0; step < 1000; ++step) {
            int e = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(topo.edgeCount())));
            double roll = rng.uniform();
            if (roll < 0.30) {
                // Down the edge only if the fabric survives it.
                topo.setLinkDown(e, true);
                try {
                    topo.validate();
                } catch (const FatalError &) {
                    topo.setLinkDown(e, false);
                }
            } else if (roll < 0.60) {
                topo.setLinkBandwidthScale(
                    e, 0.25 + 0.7 * rng.uniform());
            } else if (roll < 0.70) {
                topo.resetLinkState();
            } else {
                topo.setLinkDown(e, false);
            }

            // Cheap invariants every step: the surviving fabric
            // still routes between representative GPU pairs.
            net::NodeId a = pod.gpu_nodes[rng.below(128)];
            net::NodeId b = pod.gpu_nodes[rng.below(128)];
            auto p = topo.route(a, b);
            ASSERT_TRUE(p.has_value())
                << "step " << step << ": fabric disconnected";
            for (int edge : p->edges)
                ASSERT_FALSE(topo.linkDown(edge))
                    << "step " << step << ": routed over a down link";

            if (step % 100 == 99) {
                net::AllReduceResult r =
                    net::autoHierarchicalAllReduce(
                        topo, pod.gpu_nodes, bytes);
                ASSERT_GT(r.seconds, 0.0) << "step " << step;
                seconds.push_back(r.seconds);
                reroutes.push_back(r.reroutes);
            }
        }
    };

    std::vector<double> sec_a, sec_b;
    std::vector<int> rr_a, rr_b;
    episode(2026, sec_a, rr_a);
    episode(2026, sec_b, rr_b);
    ASSERT_EQ(sec_a.size(), 10u);
    ASSERT_EQ(sec_a.size(), sec_b.size());
    for (std::size_t i = 0; i < sec_a.size(); ++i) {
        EXPECT_EQ(sec_a[i], sec_b[i]) << "sample " << i;
        EXPECT_EQ(rr_a[i], rr_b[i]) << "sample " << i;
    }
}

} // namespace
