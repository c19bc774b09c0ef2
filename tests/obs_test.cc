/**
 * @file
 * Tests for the observability layer: the shared trace-JSON emitter
 * and checker, the metric registry (RAII registration, exports), the
 * harness self-tracer, structured logging, the run manifest, and the
 * end-to-end TelemetrySession artifact set.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/report.h"
#include "exec/engine.h"
#include "models/zoo.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "obs/trace_json.h"
#include "sim/counters.h"
#include "sim/json.h"
#include "sim/logger.h"
#include "sys/machines.h"

namespace {

using namespace mlps;
using mlps::sim::FatalError;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ------------------------------------------------------- trace JSON

TEST(TraceJson, EscapesSpecials)
{
    EXPECT_EQ(sim::jsonEscape("plain"), "plain");
    EXPECT_EQ(sim::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(sim::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(sim::jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(sim::jsonEscape(std::string("x\x01y")), "x\\u0001y");
    EXPECT_EQ(sim::jsonEscape("héllo"), "héllo"); // UTF-8 verbatim
}

TEST(TraceJson, EventFormatIsStable)
{
    std::ostringstream os;
    obs::appendTraceEvent(os, "fwd", "GPU0", "model", 1.5, 2.0);
    EXPECT_EQ(os.str(),
              "{\"name\": \"fwd\", \"cat\": \"model\", \"ph\": \"X\", "
              "\"ts\": 1.5, \"dur\": 2, \"pid\": 1, \"tid\": \"GPU0\"}");
}

TEST(TraceJson, ValidatorAcceptsAndRejects)
{
    std::string error;
    EXPECT_TRUE(sim::jsonValid("{}", &error)) << error;
    EXPECT_TRUE(sim::jsonValid("[1, 2.5, -3e4, \"x\", true, null]",
                               &error))
        << error;
    EXPECT_TRUE(sim::jsonValid(
        "{\"a\": {\"b\": [\"\\\"\\\\\\n\\u0041\"]}}", &error))
        << error;

    EXPECT_FALSE(sim::jsonValid("", &error));
    EXPECT_FALSE(sim::jsonValid("{", &error));
    EXPECT_FALSE(sim::jsonValid("{} trailing", &error));
    EXPECT_FALSE(sim::jsonValid("{\"a\": }", &error));
    EXPECT_FALSE(sim::jsonValid("\"unterminated", &error));
    EXPECT_FALSE(sim::jsonValid("[1,]", &error));
    EXPECT_FALSE(sim::jsonValid("01", &error));
    EXPECT_FALSE(sim::jsonValid("\"bad \\x escape\"", &error));

    // Numbers follow the JSON grammar, not strtod's.
    EXPECT_TRUE(sim::jsonValid("[0, -0, 0.5, -1.25e+3, 1E2, 1e-7]", &error))
        << error;
    for (const char *bad : {"1.", "1e", "1e+", ".5", "+1", "-", "-01",
                            "0x10", "1.e3", "NaN", "inf", "1e999"})
        EXPECT_FALSE(sim::jsonValid(bad, &error)) << bad;
}

// ---------------------------------------------------------- registry

TEST(Registry, CounterGaugeSamplerExport)
{
    obs::MetricRegistry reg;
    sim::Counter c("c");
    c.add(2.0);
    c.add(3.0);
    sim::Sampler s("s");
    s.record(1.0);
    s.record(5.0);
    auto r1 = reg.registerCounter("unit.counter", &c);
    auto r2 = reg.registerSampler("unit.sampler", &s);
    auto r3 = reg.registerGauge("unit.gauge", [] { return 42.0; });

    EXPECT_EQ(reg.size(), 3u);
    bool found = false;
    EXPECT_DOUBLE_EQ(reg.value("unit.counter", &found), 5.0);
    EXPECT_TRUE(found);
    EXPECT_DOUBLE_EQ(reg.value("unit.gauge"), 42.0);
    EXPECT_DOUBLE_EQ(reg.value("unit.sampler"), 6.0);
    EXPECT_DOUBLE_EQ(reg.value("unit.absent", &found), 0.0);
    EXPECT_FALSE(found);

    auto rows = reg.snapshot();
    ASSERT_EQ(rows.size(), 3u);
    // std::map order: counter < gauge < sampler.
    EXPECT_EQ(rows[0].name, "unit.counter");
    EXPECT_EQ(rows[0].kind, "counter");
    EXPECT_EQ(rows[0].events, 2u);
    EXPECT_EQ(rows[2].kind, "sampler");
    EXPECT_DOUBLE_EQ(rows[2].min, 1.0);
    EXPECT_DOUBLE_EQ(rows[2].max, 5.0);
    EXPECT_DOUBLE_EQ(rows[2].mean, 3.0);

    std::string prom = reg.toPrometheus();
    EXPECT_NE(prom.find("mlpsim_unit_counter_total 5"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE mlpsim_unit_gauge gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("mlpsim_unit_sampler_count 2"),
              std::string::npos);

    std::string json = reg.toJson();
    std::string error;
    EXPECT_TRUE(sim::jsonValid(json, &error)) << error;
    EXPECT_NE(json.find("\"mlpsim-metrics-v1\""), std::string::npos);
}

TEST(Registry, RegistrationRetiresAndFreezesValue)
{
    obs::MetricRegistry reg;
    sim::Counter c("c");
    {
        auto r = reg.registerCounter("scoped.counter", &c);
        c.add(4.0);
        EXPECT_EQ(reg.size(), 1u);
    }
    // Retired: no live registration, but the final value is frozen
    // into the snapshot — a telemetry flush that runs after the
    // owning engine died still reports what it did.
    EXPECT_EQ(reg.size(), 0u);
    bool found = false;
    EXPECT_DOUBLE_EQ(reg.value("scoped.counter", &found), 4.0);
    EXPECT_TRUE(found);
    auto rows = reg.snapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].name, "scoped.counter");
    EXPECT_EQ(rows[0].events, 1u);

    // Re-registering the name revives it (last writer wins over the
    // frozen row).
    sim::Counter c2("c2");
    c2.add(9.0);
    auto r2 = reg.registerCounter("scoped.counter", &c2);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_DOUBLE_EQ(reg.value("scoped.counter"), 9.0);
}

TEST(Registry, LastRegistrationWins)
{
    obs::MetricRegistry reg;
    sim::Counter old_c("old"), new_c("new");
    old_c.add(1.0);
    new_c.add(7.0);
    auto r_old = reg.registerCounter("dup.name", &old_c);
    auto r_new = reg.registerCounter("dup.name", &new_c);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_DOUBLE_EQ(reg.value("dup.name"), 7.0);
    // The stale handle's death must not tear down the live entry.
    r_old.release();
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_DOUBLE_EQ(reg.value("dup.name"), 7.0);
    r_new.release();
    EXPECT_EQ(reg.size(), 0u);
}

TEST(Registry, MalformedNamesAreFatal)
{
    obs::MetricRegistry reg;
    sim::Counter c("c");
    EXPECT_THROW((void)reg.registerCounter("", &c), FatalError);
    EXPECT_THROW((void)reg.registerCounter(".leading", &c), FatalError);
    EXPECT_THROW((void)reg.registerCounter("trailing.", &c), FatalError);
    EXPECT_THROW((void)reg.registerCounter("a..b", &c), FatalError);
    EXPECT_THROW((void)reg.registerCounter("Upper.case", &c),
                 FatalError);
    EXPECT_THROW((void)reg.registerCounter("sp ace", &c), FatalError);
}

TEST(Registry, VolatileMetricsSortAfterDeterministic)
{
    obs::MetricRegistry reg;
    sim::Counter c("c");
    auto r1 = reg.registerCounter("zz.deterministic", &c);
    auto r2 = reg.registerCounter("aa.volatile", &c,
                                  obs::Volatility::Volatile);
    std::string json = reg.toJson();
    // Despite the name sort, the volatile metric lands in the
    // "volatile" array, after every deterministic one.
    EXPECT_LT(json.find("zz.deterministic"), json.find("aa.volatile"));
    EXPECT_LT(json.find("\"deterministic\""), json.find("zz.deterministic"));
    EXPECT_LT(json.find("zz.deterministic"), json.find("\"volatile\""));
}

TEST(Registry, GlobalRegistrySeesLiveEngineCounters)
{
    exec::Engine engine{exec::ExecOptions(1)};
    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    bool found = false;
    reg.value("exec.run_cache.hits", &found);
    EXPECT_TRUE(found);
    reg.value("exec.engine.requests", &found);
    EXPECT_TRUE(found);
    reg.value("exec.executor.jobs", &found);
    EXPECT_TRUE(found);

    exec::RunRequest req;
    req.system = sys::dss8440();
    req.workload = *models::findWorkload("MLPf_NCF_Py");
    req.options.num_gpus = 1;
    engine.runOne(req);
    engine.runOne(req); // second request is a cache hit

    EXPECT_DOUBLE_EQ(reg.value("exec.run_cache.hits"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("exec.run_cache.misses"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("exec.engine.requests"), 2.0);
    EXPECT_DOUBLE_EQ(reg.value("exec.run_cache.size"), 1.0);
}

// -------------------------------------------------------- self-trace

TEST(SelfTrace, DisabledSpansRecordNothing)
{
    obs::SelfTracer &t = obs::SelfTracer::global();
    t.setEnabled(false);
    t.clear();
    {
        obs::Span span("unit", "ignored");
    }
    EXPECT_TRUE(t.events().empty());
}

TEST(SelfTrace, EnabledSpansNestAndSerialize)
{
    obs::SelfTracer &t = obs::SelfTracer::global();
    t.clear();
    t.setEnabled(true);
    {
        obs::Span outer("unit", "outer");
        obs::Span inner("unit", "inner \"quoted\"");
    }
    t.setEnabled(false);
    auto events = t.events();
    ASSERT_EQ(events.size(), 2u);
    // Destruction order: inner closes first.
    EXPECT_EQ(events[0].name, "inner \"quoted\"");
    EXPECT_EQ(events[1].name, "outer");
    EXPECT_LE(events[0].duration_us, events[1].duration_us);
    EXPECT_GE(events[0].start_us, events[1].start_us);

    std::string json = t.toJson();
    std::string error;
    EXPECT_TRUE(sim::jsonValid(json, &error)) << error;
    EXPECT_NE(json.find("\"cat\": \"harness\""), std::string::npos);
    EXPECT_NE(json.find("inner \\\"quoted\\\""), std::string::npos);
    t.clear();
}

TEST(SelfTrace, ThreadsGetDistinctTracks)
{
    obs::SelfTracer &t = obs::SelfTracer::global();
    t.clear();
    t.setEnabled(true);
    {
        obs::Span main_span("unit", "main");
    }
    std::thread([&] { obs::Span worker_span("unit", "worker"); }).join();
    t.setEnabled(false);
    auto events = t.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_NE(events[0].track, events[1].track);
    // The off-main thread carries a /t<k> suffix.
    bool suffixed = events[0].track.find("/t") != std::string::npos ||
                    events[1].track.find("/t") != std::string::npos;
    EXPECT_TRUE(suffixed);
    t.clear();
}

/** A report with telemetry off records no span: tracing disabled and no
 *  structured log, as for every run without --telemetry-dir. The same
 *  report with tracing on records some, so the check is not vacuous. */
TEST(SelfTrace, ReportWithTelemetryOffRecordsNothing)
{
    core::ReportOptions opts;
    opts.include_mixed_precision = false;
    opts.include_topology = false;
    opts.include_scheduling = false;
    opts.include_characterization = false;
    opts.include_faults = false;
    opts.include_degraded_fabric = false;
    opts.include_attribution = false;
    opts.include_pod_scale = false;
    ASSERT_FALSE(sim::structuredLogEnabled());

    obs::SelfTracer &t = obs::SelfTracer::global();
    t.setEnabled(false);
    t.clear();
    {
        exec::Engine engine(exec::ExecOptions{1});
        EXPECT_FALSE(core::generateStudyReport(opts, engine).empty());
    }
    EXPECT_EQ(t.events().size(), 0u);

    t.setEnabled(true);
    {
        exec::Engine engine(exec::ExecOptions{1});
        core::generateStudyReport(opts, engine);
    }
    t.setEnabled(false);
    EXPECT_GT(t.events().size(), 0u);
    t.clear();
}

// ---------------------------------------------------- structured log

TEST(StructuredLog, MirrorsLinesAsJson)
{
    std::string path =
        ::testing::TempDir() + "/mlpsim_obs_structured.jsonl";
    std::remove(path.c_str());
    sim::LogLevel prev = sim::logLevel();
    sim::setLogLevel(sim::LogLevel::Info);
    sim::setStructuredLogFile(path);
    EXPECT_TRUE(sim::structuredLogEnabled());
    sim::inform("telemetry: wrote snapshot bytes=123 kind=metrics");
    sim::warn("engine: run overran deadline=2.5");
    sim::setStructuredLogFile("");
    sim::setLogLevel(prev);
    EXPECT_FALSE(sim::structuredLogEnabled());

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int lines = 0;
    std::string error;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_TRUE(sim::jsonValid(line, &error))
            << line << ": " << error;
    }
    EXPECT_EQ(lines, 2);

    std::string all = slurp(path);
    EXPECT_NE(all.find("\"level\": \"info\""), std::string::npos);
    EXPECT_NE(all.find("\"level\": \"warn\""), std::string::npos);
    EXPECT_NE(all.find("\"component\": \"telemetry\""),
              std::string::npos);
    EXPECT_NE(all.find("\"bytes\": \"123\""), std::string::npos);
    EXPECT_NE(all.find("\"deadline\": \"2.5\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(StructuredLog, FatalIsMirroredBeforeThrowing)
{
    std::string path =
        ::testing::TempDir() + "/mlpsim_obs_fatal.jsonl";
    std::remove(path.c_str());
    sim::setStructuredLogFile(path);
    EXPECT_THROW(sim::fatal("unit: boom code=7"), FatalError);
    sim::setStructuredLogFile("");
    std::string all = slurp(path);
    EXPECT_NE(all.find("\"level\": \"fatal\""), std::string::npos);
    EXPECT_NE(all.find("\"code\": \"7\""), std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------------- manifest

TEST(Manifest, SerializesDeterministicFirst)
{
    obs::RunManifest m;
    m.command = "report";
    m.argv = {"mlpsim", "report", "--jobs", "4"};
    m.journal_format_version = 2;
    m.requests = 10;
    m.request_digest = "deadbeefdeadbeefdeadbeefdeadbeef";
    m.config_digests = {"system:DSS 8440=0123456789abcdef0123456789abcdef"};
    m.degraded.push_back({"MLPf_NCF_Py", "DSS 8440", 4, "transient"});
    m.jobs = 4;
    m.cache_hits = 3;
    m.unique_runs = 7;
    m.cache_hit_ratio = 0.3;
    m.phases.emplace_back("report/scaling", 1.25);
    m.compiler = "test \"compiler\"";
    m.build = "release";

    std::string json = obs::manifestToJson(m);
    std::string error;
    EXPECT_TRUE(sim::jsonValid(json, &error)) << error;
    EXPECT_LT(json.find("\"deterministic\""), json.find("\"volatile\""));
    EXPECT_NE(json.find("\"request_digest\": "
                        "\"deadbeefdeadbeefdeadbeefdeadbeef\""),
              std::string::npos);
    EXPECT_NE(json.find("\"reason\": \"transient\""), std::string::npos);
    EXPECT_NE(json.find("\"report/scaling\""), std::string::npos);
    EXPECT_NE(json.find("test \\\"compiler\\\""), std::string::npos);
    // argv (it names --jobs) must live in the volatile object.
    EXPECT_GT(json.find("\"argv\""), json.find("\"volatile\""));
}

// ------------------------------------------------- telemetry session

TEST(Telemetry, SessionWritesAllArtifacts)
{
    std::string dir = ::testing::TempDir() + "/mlpsim_obs_session";
    {
        obs::TelemetrySession session(dir, "unit",
                                      {"mlpsim", "unit"});
        ASSERT_EQ(obs::TelemetrySession::current(), &session);
        {
            obs::Span phase("phase", "unit/work");
            exec::Engine engine{exec::ExecOptions(1)};
            exec::RunRequest req;
            req.system = sys::dss8440();
            req.workload = *models::findWorkload("MLPf_NCF_Py");
            req.options.num_gpus = 1;
            engine.runOne(req);
            exec::fillManifest(engine, &session.manifest());
        }
        EXPECT_TRUE(session.finish());
        EXPECT_EQ(obs::TelemetrySession::current(), nullptr);
        EXPECT_TRUE(session.finish()); // idempotent
    }

    std::string error;
    for (const char *f : {"run_manifest.json", "metrics.json",
                          "self_trace.json"}) {
        std::string text = slurp(dir + "/" + f);
        ASSERT_FALSE(text.empty()) << f;
        EXPECT_TRUE(sim::jsonValid(text, &error)) << f << ": " << error;
    }
    std::string manifest = slurp(dir + "/run_manifest.json");
    EXPECT_NE(manifest.find("\"command\": \"unit\""), std::string::npos);
    EXPECT_NE(manifest.find("\"requests\": 1"), std::string::npos);
    EXPECT_NE(manifest.find("\"unit/work\""), std::string::npos);
    // One engine request -> a 32-hex-digit digest, never all zeros.
    EXPECT_EQ(manifest.find("\"request_digest\": "
                            "\"00000000000000000000000000000000\""),
              std::string::npos);
    std::string prom = slurp(dir + "/metrics.prom");
    EXPECT_NE(prom.find("mlpsim_exec_engine_requests_total 1"),
              std::string::npos);
    std::string trace = slurp(dir + "/self_trace.json");
    EXPECT_NE(trace.find("\"unit/work\""), std::string::npos);
}

TEST(Telemetry, RequestDigestIgnoresWorkerCountAndWarmth)
{
    exec::RunRequest req;
    req.system = sys::dss8440();
    req.workload = *models::findWorkload("MLPf_NCF_Py");
    req.options.num_gpus = 1;
    exec::RunRequest req2 = req;
    req2.options.num_gpus = 2;

    auto digestAfter = [&](int jobs) {
        exec::Engine engine{exec::ExecOptions(jobs)};
        engine.run({req, req2, req}); // duplicate exercises dedupe
        engine.run({req2});           // warm second batch
        return engine.requestDigest();
    };
    exec::Fingerprint a = digestAfter(1);
    exec::Fingerprint b = digestAfter(4);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(a.hi != 0 || a.lo != 0);
}

} // namespace
