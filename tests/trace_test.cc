/**
 * @file
 * Tests for the chrome-trace exporter.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "models/zoo.h"
#include "obs/attrib/attribution.h"
#include "obs/trace_json.h"
#include "prof/trace.h"
#include "sim/logger.h"
#include "sys/machines.h"
#include "train/trainer.h"

namespace {

using namespace mlps;
using mlps::sim::FatalError;

TEST(Trace, AddAndSerialize)
{
    prof::TraceBuilder t;
    t.add("GPU0", "forward", 0.0, 100.0);
    t.add("GPU0", "backward", 100.0, 200.0);
    ASSERT_EQ(t.events().size(), 2u);
    std::string json = t.toJson();
    EXPECT_NE(json.find("\"forward\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    // Spans carry a numeric tid; the track name lives in the
    // thread_name metadata event.
    EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
    EXPECT_EQ(json.find("\"tid\": \"GPU0\""), std::string::npos);
    // Valid array delimiters.
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json[json.size() - 2], ']');
}

TEST(Trace, MetadataPrologueNamesAndSortsTracks)
{
    prof::TraceBuilder t;
    t.add("Host", "preprocess", 0.0, 1.0);
    t.add("GPU0", "forward", 0.0, 2.0);
    t.add("Host", "preprocess", 5.0, 1.0);
    std::string json = t.toJson();
    std::string error;
    ASSERT_TRUE(obs::jsonValid(json, &error)) << error;

    // One process_name, one thread_name + sort_index per track.
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    // First-appearance order: Host is tid 1, GPU0 tid 2 — and the
    // sort index pins that order in the viewer.
    std::size_t host_meta = json.find(
        "\"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
        "\"args\": {\"name\": \"Host\"}");
    std::size_t gpu_meta = json.find(
        "\"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 2, "
        "\"args\": {\"name\": \"GPU0\"}");
    EXPECT_NE(host_meta, std::string::npos);
    EXPECT_NE(gpu_meta, std::string::npos);
    EXPECT_LT(host_meta, gpu_meta);
    EXPECT_NE(json.find("\"thread_sort_index\""), std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"sort_index\": 1}"),
              std::string::npos);

    // Re-serialising is byte-identical (deterministic tid assignment).
    EXPECT_EQ(json, t.toJson());
}

TEST(Trace, EscapesQuotes)
{
    prof::TraceBuilder t;
    t.add("GPU0", "say \"hi\"", 0.0, 1.0);
    std::string json = t.toJson();
    EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos);
}

// Hostile names and tracks must survive the shared emitter
// (obs::appendTraceEvent) and still produce parseable JSON — the same
// escaping path serves the harness self-trace (see obs_test.cc).
TEST(Trace, HostileNamesRoundTripThroughSharedEmitter)
{
    const std::string hostile[] = {
        "quote \" backslash \\",
        "newline\nand\ttab",
        "carriage\rreturn",
        std::string("nul\x01") + "ctrl",
        "unicode: désolé 模型 🙂",
    };
    prof::TraceBuilder t;
    for (const std::string &s : hostile)
        t.add("track " + s, "name " + s, 0.0, 1.0);
    std::string json = t.toJson();
    std::string error;
    EXPECT_TRUE(obs::jsonValid(json, &error)) << error;
    // Escapes present, raw specials absent from the payload.
    EXPECT_NE(json.find("\\\""), std::string::npos);
    EXPECT_NE(json.find("\\\\"), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_NE(json.find("\\t"), std::string::npos);
    EXPECT_NE(json.find("\\r"), std::string::npos);
    EXPECT_NE(json.find("\\u0001"), std::string::npos);
    // Non-ASCII passes through verbatim (UTF-8); no raw control bytes
    // survive inside any emitted string.
    EXPECT_NE(json.find("désolé 模型 🙂"), std::string::npos);
    EXPECT_EQ(json.find('\x01'), std::string::npos);
    EXPECT_EQ(json.find("newline\n"), std::string::npos);
}

TEST(Trace, EmitterJsonParses)
{
    prof::TraceBuilder t;
    t.add("GPU0", "fwd", 0.5, 10.25);
    t.add("Host", "load", 1.0, 2.0);
    std::string error;
    EXPECT_TRUE(obs::jsonValid(t.toJson(), &error)) << error;
}

TEST(Trace, NegativeSpanIsFatal)
{
    prof::TraceBuilder t;
    EXPECT_THROW(t.add("GPU0", "x", -1.0, 1.0), FatalError);
    EXPECT_THROW(t.add("GPU0", "x", 0.0, -1.0), FatalError);
}

TEST(Trace, IterationsCoverTracksAndGpus)
{
    sys::SystemConfig k = sys::c4140K();
    train::Trainer trainer(k);
    auto spec = *models::findWorkload("MLPf_GNMT_Py");
    train::RunOptions opts;
    opts.num_gpus = 4;
    auto r = trainer.run(spec, opts);

    prof::TraceBuilder t;
    t.addIterations(r, 3);
    int host = 0, gpu3 = 0, collective = 0;
    for (const auto &e : t.events()) {
        host += e.track == "Host";
        gpu3 += e.track == "GPU3";
        collective += e.name == "allreduce (exposed)";
    }
    EXPECT_EQ(host, 3);
    EXPECT_GE(gpu3, 3 * 3); // fwd+bwd+opt per iteration at least
    EXPECT_GT(collective, 0);
    EXPECT_THROW(t.addIterations(r, 0), FatalError);
}

TEST(Trace, SpansStayInsideIterationBudget)
{
    sys::SystemConfig dss = sys::dss8440();
    train::Trainer trainer(dss);
    auto spec = *models::findWorkload("MLPf_SSD_Py");
    train::RunOptions opts;
    opts.num_gpus = 2;
    auto r = trainer.run(spec, opts);

    prof::TraceBuilder t;
    int iters = 5;
    t.addIterations(r, iters);
    double horizon = iters * r.iter.iteration_s * 1e6 * 1.001;
    for (const auto &e : t.events())
        EXPECT_LE(e.start_us + e.duration_us, horizon) << e.name;
}

// Satellite: a 512-GPU pod trace must stay viewer-sized. Per-GPU
// lanes are bounded at kMaxGpuLanes plus one aggregate lane; every
// span lands on a declared track; fault/reroute markers survive the
// hierarchical-collective path.
TEST(Trace, PodScaleTraceStaysBounded)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 16, 8);
    ASSERT_EQ(pod.num_gpus, 512);
    train::Trainer trainer(pod);
    auto spec = *models::findWorkload("MLPf_Res50_MX");
    train::RunOptions opts;
    opts.num_gpus = 512;
    auto r = trainer.run(spec, opts);

    prof::TraceBuilder t;
    int iters = 3;
    t.addIterations(r, iters);

    // Bounded: lanes don't scale with GPU count. At most host + H2D +
    // kMaxGpuLanes + 1 aggregate lane, <= 6 spans per lane per iter.
    std::size_t max_events = static_cast<std::size_t>(iters) *
                             (2 + (prof::TraceBuilder::kMaxGpuLanes + 1) * 6);
    EXPECT_LE(t.events().size(), max_events);

    // Every span lands on a declared track.
    std::set<std::string> declared{"Host", "H2D"};
    for (int g = 0; g < prof::TraceBuilder::kMaxGpuLanes; ++g)
        declared.insert("GPU" + std::to_string(g));
    declared.insert("GPU8..511 (x504)");
    int aggregate = 0;
    for (const auto &e : t.events()) {
        EXPECT_TRUE(declared.count(e.track)) << e.track;
        aggregate += e.track == "GPU8..511 (x504)";
    }
    EXPECT_GT(aggregate, 0);

    // Fault and reroute markers survive the hierarchical path.
    fault::LinkFaultModel model(
        fault::LinkFaultConfig::datacenterProfile(1.0), 7);
    auto faults = model.generate(24 * 3600.0, pod.topo);
    ASSERT_FALSE(faults.empty());
    t.addLinkFaultTrace(faults, pod.topo);
    int fabric = 0, reroutes = 0;
    for (const auto &e : t.events()) {
        fabric += e.track.rfind("Fabric", 0) == 0;
        reroutes += e.name == "reroute";
    }
    EXPECT_GT(fabric, 0);
    EXPECT_GT(reroutes, 0);

    std::string error;
    EXPECT_TRUE(obs::jsonValid(t.toJson(), &error)) << error;
}

// Attribution lanes: every span of the graph renders, and critical
// spans are duplicated onto the highlighted CriticalPath lane.
TEST(Trace, AttributionLanesHighlightCriticalPath)
{
    sys::SystemConfig k = sys::c4140K();
    train::Trainer trainer(k);
    auto spec = *models::findWorkload("MLPf_GNMT_Py");
    train::RunOptions opts;
    opts.num_gpus = 4;
    auto r = trainer.run(spec, opts);
    auto a = obs::attrib::attributeRun(spec, r);

    prof::TraceBuilder t;
    t.addAttribution(a, 2);
    int critical = 0, gpu_chain = 0;
    for (const auto &e : t.events()) {
        critical += e.track == "CriticalPath";
        gpu_chain += e.track == "GPU[0..4)";
    }
    // Two iterations: the critical lane repeats the critical spans.
    EXPECT_EQ(critical % 2, 0);
    EXPECT_GT(critical, 0);
    EXPECT_GT(gpu_chain, 0);
    EXPECT_THROW(t.addAttribution(a, 0), FatalError);

    std::string error;
    EXPECT_TRUE(obs::jsonValid(t.toJson(), &error)) << error;
}

TEST(Trace, LinkFaultTracksAndRerouteMarkers)
{
    sys::SystemConfig box = sys::c4140M();
    std::vector<fault::LinkFaultEvent> faults;
    faults.push_back({fault::LinkFaultKind::LinkDown, 1.0, 5.0, 0.0,
                      0, -1});
    faults.push_back({fault::LinkFaultKind::NvLinkLaneDegrade, 2.0,
                      10.0, 0.5, 1, -1});
    faults.push_back({fault::LinkFaultKind::ThermalThrottle, 3.0, 4.0,
                      0.7, -1, 2});

    prof::TraceBuilder t;
    t.addLinkFaultTrace(faults, box.topo);

    auto [a0, b0] = box.topo.endpoints(0);
    std::string edge_track =
        "Fabric/" + box.topo.name(a0) + "-" + box.topo.name(b0);
    int on_edge = 0, on_gpu = 0, reroutes = 0, heals = 0,
        scaled = 0;
    for (const auto &e : t.events()) {
        on_edge += e.track == edge_track;
        on_gpu += e.track == "Fabric/GPU2";
        reroutes += e.track == "Fabric/reroutes" && e.name == "reroute";
        heals += e.name == "reroute (heal)";
        scaled += e.name.find("(x0.50)") != std::string::npos;
    }
    EXPECT_EQ(on_edge, 1);
    EXPECT_EQ(on_gpu, 1);
    // The hard-down link marks a reroute at onset and at healing.
    EXPECT_EQ(reroutes, 1);
    EXPECT_EQ(heals, 1);
    EXPECT_EQ(scaled, 1);
}

TEST(Trace, GeneratedLinkTraceSerializes)
{
    sys::SystemConfig box = sys::c4140M();
    fault::LinkFaultModel model(
        fault::LinkFaultConfig::datacenterProfile(1.0), 11);
    auto faults = model.generate(24 * 3600.0, box.topo);
    ASSERT_FALSE(faults.empty());
    prof::TraceBuilder t;
    t.addLinkFaultTrace(faults, box.topo);
    EXPECT_GE(t.events().size(), faults.size());
    std::string json = t.toJson();
    EXPECT_NE(json.find("Fabric/"), std::string::npos);
}

TEST(Trace, WritesFile)
{
    prof::TraceBuilder t;
    t.add("Host", "x", 0.0, 1.0);
    std::string path = ::testing::TempDir() + "/mlpsim_trace_test.json";
    ASSERT_TRUE(t.writeFile(path));
    std::ifstream in(path);
    std::string first;
    std::getline(in, first);
    EXPECT_EQ(first, "[");
    std::remove(path.c_str());
}

} // namespace
