/**
 * @file
 * Tests for the serve tier: wire protocol round trips (bit-exact
 * doubles across encode/decode), request validation parity with the
 * CLI, line framing, token-bucket admission, weighted round-robin
 * fairness, and the transport-free ServeCore — dedupe across
 * clients, overload rejection, drain semantics and disconnect
 * cancellation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/engine.h"
#include "obs/attrib/attribution.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"

namespace {

using namespace mlps;

// ---- JSON -----------------------------------------------------------

TEST(ServeJson, ParsesNestedDocument)
{
    serve::Json doc;
    std::string err;
    ASSERT_TRUE(serve::Json::parse(
        "{\"a\": 1.5, \"b\": [true, null, \"x\\n\"], "
        "\"c\": {\"d\": -2e3}}",
        &doc, &err))
        << err;
    ASSERT_TRUE(doc.isObject());
    EXPECT_DOUBLE_EQ(doc.find("a")->number, 1.5);
    ASSERT_EQ(doc.find("b")->array.size(), 3u);
    EXPECT_TRUE(doc.find("b")->array[0].boolean);
    EXPECT_EQ(doc.find("b")->array[2].str, "x\n");
    EXPECT_DOUBLE_EQ(doc.find("c")->find("d")->number, -2000.0);
}

TEST(ServeJson, RejectsJunk)
{
    serve::Json doc;
    std::string err;
    for (const char *bad :
         {"", "{", "{\"a\":}", "[1,]", "{\"a\":1}x", "\"unterminated",
          "{\"a\" 1}", "nul"}) {
        EXPECT_FALSE(serve::Json::parse(bad, &doc, &err))
            << "accepted: " << bad;
    }
}

TEST(ServeJson, SharedParserKeepsWireErrorStringsAndLimits)
{
    // The serve parser is now the shared sim/json.h parser under the
    // historical default limits. This pins the wire-visible contract:
    // the depth ceiling and the exact "<why> at byte N" error strings
    // the importer refactor must not drift.
    serve::Json doc;
    std::string err;

    std::string deep(34, '[');
    deep += std::string(34, ']');
    EXPECT_FALSE(serve::Json::parse(deep, &doc, &err));
    EXPECT_EQ(err, "nesting too deep at byte 33");

    std::string ok(33, '[');
    ok += std::string(33, ']');
    EXPECT_TRUE(serve::Json::parse(ok, &doc, &err)) << err;

    EXPECT_FALSE(serve::Json::parse("{\"a\":", &doc, &err));
    EXPECT_EQ(err, "unexpected end of input at byte 5");

    EXPECT_FALSE(serve::Json::parse("{\"a\" 1}", &doc, &err));
    EXPECT_EQ(err, "expected ':' at byte 5");

    EXPECT_FALSE(serve::Json::parse("{\"a\":1}x", &doc, &err));
    EXPECT_EQ(err, "trailing characters after document at byte 7");

    // The lenient wire grammar still takes strtod extensions (the
    // strict budgeted grammar is the importer's, not serve's).
    EXPECT_TRUE(serve::Json::parse("{\"v\": 0x10}", &doc, &err))
        << err;
    EXPECT_DOUBLE_EQ(doc.find("v")->number, 16.0);
}

TEST(ServeJson, DoubleRendersRoundTripBitExactly)
{
    for (double v :
         {83.832846955730147, 0.059026824119507229, 1.0 / 3.0,
          23932564079285.133, 5e-324, 0.1 + 0.2}) {
        serve::Json doc;
        std::string err;
        ASSERT_TRUE(serve::Json::parse(
            "{\"v\":" + serve::jsonDouble(v) + "}", &doc, &err));
        EXPECT_EQ(std::memcmp(&doc.find("v")->number, &v,
                              sizeof(double)),
                  0)
            << "double " << v << " did not round-trip";
    }
}

// ---- request validation ---------------------------------------------

const serve::Catalog &
catalog()
{
    static serve::Catalog c;
    return c;
}

TEST(ServeProtocol, ParsesValidRunRequest)
{
    serve::ParsedRequest req;
    std::string err;
    ASSERT_TRUE(serve::parseRequest(
        "{\"type\":\"run\",\"id\":\"r1\",\"workload\":"
        "\"MLPf_NCF_Py\",\"system\":\"DSS 8440\",\"gpus\":4,"
        "\"precision\":\"fp32\",\"deadline_s\":2.5}",
        catalog(), &req, &err))
        << err;
    EXPECT_EQ(req.kind, serve::ParsedRequest::Kind::Run);
    EXPECT_EQ(req.id, "r1");
    EXPECT_EQ(req.run.workload.abbrev, "MLPf_NCF_Py");
    EXPECT_EQ(req.run.system.name, "DSS 8440");
    EXPECT_EQ(req.run.options.num_gpus, 4);
    EXPECT_EQ(req.run.options.precision, hw::Precision::FP32);
    EXPECT_DOUBLE_EQ(req.deadline_s, 2.5);
}

TEST(ServeProtocol, ValidatesLikeTheCli)
{
    struct Case {
        const char *line;
        const char *expect; ///< substring of the diagnostic
    };
    for (const Case &c : std::vector<Case>{
             {"{\"type\":\"run\",\"workload\":\"MLPf_NCF_Pyy\"}",
              "did you mean"},
             {"{\"type\":\"run\",\"workload\":\"MLPf_NCF_Py\","
              "\"system\":\"DSS 844\"}",
              "unknown system"},
             {"{\"type\":\"run\",\"workload\":\"MLPf_NCF_Py\","
              "\"gpus\":3}",
              "power of two"},
             {"{\"type\":\"run\",\"workload\":\"MLPf_NCF_Py\","
              "\"gpus\":16}",
              "only has 8"},
             {"{\"type\":\"run\",\"workload\":\"MLPf_NCF_Py\","
              "\"precision\":\"fp64\"}",
              "unknown precision"},
             {"{\"type\":\"run\",\"workload\":\"MLPf_NCF_Py\","
              "\"deadline_s\":-1}",
              "deadline_s"},
             {"{\"type\":\"run\"}", "workload"},
             {"{\"type\":\"nope\"}", "unknown request type"},
             {"not json", "bad JSON"},
         }) {
        serve::ParsedRequest req;
        std::string err;
        EXPECT_FALSE(
            serve::parseRequest(c.line, catalog(), &req, &err))
            << "accepted: " << c.line;
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << "diagnostic for " << c.line << " was: " << err;
    }
}

TEST(ServeProtocol, InlineWorkloadGraphRunsThroughTheImporter)
{
    const std::string graph =
        "{\"format\":\"mlpsim-graph-v1\","
        "\"workload\":{\"abbrev\":\"T_Wire\"},"
        "\"graph\":{\"ops\":[{\"name\":\"fc\",\"kind\":\"gemm\","
        "\"shape\":{\"m\":8,\"k\":8,\"n\":8}}]},"
        "\"dataset\":{\"num_samples\":100}}";

    serve::ParsedRequest req;
    std::string err;
    ASSERT_TRUE(serve::parseRequest(
        "{\"type\":\"run\",\"id\":\"g1\",\"workload_graph\":" +
            graph + ",\"gpus\":2}",
        catalog(), &req, &err))
        << err;
    EXPECT_EQ(req.run.workload.abbrev, "T_Wire");
    EXPECT_EQ(req.run.options.num_gpus, 2);

    // A rejected inline graph answers with the importer's diagnostic
    // vocabulary — same code a CLI validate of the file would print.
    EXPECT_FALSE(serve::parseRequest(
        "{\"type\":\"run\",\"workload_graph\":{\"format\":\"nope\"}}",
        catalog(), &req, &err));
    EXPECT_NE(err.find("workload_graph rejected:"), std::string::npos)
        << err;
    EXPECT_NE(err.find("[bad-format]"), std::string::npos) << err;

    // Name and inline graph are mutually exclusive.
    EXPECT_FALSE(serve::parseRequest(
        "{\"type\":\"run\",\"workload\":\"MLPf_NCF_Py\","
        "\"workload_graph\":" + graph + "}",
        catalog(), &req, &err));
    EXPECT_NE(err.find("give one"), std::string::npos) << err;
}

TEST(ServeProtocol, ReferenceAliasResolvesToReferenceBox)
{
    serve::ParsedRequest req;
    std::string err;
    ASSERT_TRUE(serve::parseRequest(
        "{\"type\":\"run\",\"workload\":\"MLPf_NCF_Py\","
        "\"system\":\"reference\"}",
        catalog(), &req, &err))
        << err;
    EXPECT_EQ(req.run.system.name, "MLPerf reference (P100)");
}

TEST(ServeProtocol, ResultResponseRoundTripsBitExactly)
{
    exec::RunRequest base;
    base.system = *catalog().findMachine("DSS 8440", nullptr);
    base.workload =
        catalog().registry.find("MLPf_NCF_Py")->spec();
    base.options.num_gpus = 2;
    exec::Engine engine{exec::ExecOptions(1)};
    exec::RunResult result = engine.runOne(base);

    std::string line = serve::encodeResult("r9", result);
    serve::Response resp;
    std::string err;
    ASSERT_TRUE(serve::decodeResponse(line, &resp, &err)) << err;
    EXPECT_EQ(resp.type, "result");
    EXPECT_EQ(resp.id, "r9");
    EXPECT_EQ(resp.status, "ok");
    EXPECT_EQ(serve::canonicalResultLine(resp.train),
              serve::canonicalResultLine(result.train));
}

// A decoded result must explain exactly like the engine's: the
// per-tier all-reduce bytes cross the wire bit-exactly, so the
// attribution's tier split is the same on both sides.
TEST(ServeProtocol, DecodedPodResultAttributesLikeTheEngine)
{
    exec::RunRequest req;
    req.system = *catalog().findMachine("pod(C4140 (M),16x8)", nullptr);
    req.workload = catalog().registry.find("MLPf_Res50_MX")->spec();
    req.options.num_gpus = 512;
    exec::Engine engine{exec::ExecOptions(1)};
    exec::RunResult result = engine.runOne(req);

    serve::Response resp;
    std::string err;
    ASSERT_TRUE(serve::decodeResponse(serve::encodeResult("p", result),
                                      &resp, &err))
        << err;
    EXPECT_EQ(std::memcmp(resp.train.iter.comm_tier_bytes,
                          result.train.iter.comm_tier_bytes,
                          sizeof(result.train.iter.comm_tier_bytes)),
              0);
    EXPECT_GT(result.train.iter.comm_tier_bytes[2], 0.0);
    EXPECT_EQ(obs::attrib::toJson(
                  obs::attrib::attributeRun(req, resp.train)),
              obs::attrib::toJson(
                  obs::attrib::attributeRun(req, result.train)));
}

TEST(ServeProtocol, ErrorAndRejectResponsesCarryDiagnostics)
{
    exec::RunResult failed;
    auto err = std::make_shared<exec::RunError>();
    err->reason = "deadline";
    err->what = "run took 2.000 s, past the 1.000 s deadline";
    failed.error = err;
    serve::Response resp;
    std::string derr;
    ASSERT_TRUE(serve::decodeResponse(
        serve::encodeResult("r1", failed), &resp, &derr));
    EXPECT_EQ(resp.status, "error");
    EXPECT_EQ(resp.reason, "deadline");

    ASSERT_TRUE(serve::decodeResponse(
        serve::encodeReject("r2", "overloaded", "queue full", 0.75),
        &resp, &derr));
    EXPECT_EQ(resp.status, "overloaded");
    EXPECT_DOUBLE_EQ(resp.retry_after_s, 0.75);
}

// Integers and enums arrive as JSON numbers; one that is not an
// integer in range (1e300 would overflow the cast to int) or names no
// enum value fails the decode instead of being cast.
TEST(ServeProtocol, DecoderRejectsNonIntegralAndOutOfRangeMembers)
{
    const std::string head =
        "{\"type\":\"result\",\"id\":\"x\",\"status\":\"ok\",\"result\":{";
    serve::Response resp;
    std::string err;
    for (const char *member :
         {"\"gpus\":1e300", "\"gpus\":2.5", "\"gpus\":\"8\"",
          "\"kernel_launches\":-1e10", "\"micro_batches\":1e19",
          "\"reroutes\":NaN", "\"fabric\":3", "\"fabric\":-1",
          "\"fabric\":1.5", "\"precision\":\"fp64\"",
          "\"intra-node_bytes\":true"}) {
        err.clear();
        EXPECT_FALSE(serve::decodeResponse(head + member + "}}", &resp,
                                           &err))
            << member;
        EXPECT_NE(err.find("bad result member"), std::string::npos)
            << member << ": " << err;
    }
    EXPECT_FALSE(serve::decodeResponse(
        "{\"type\":\"hello\",\"proto\":1e300}", &resp, &err));

    // In range: decoded; absent members keep their TrainResult{} value.
    ASSERT_TRUE(serve::decodeResponse(
        head + "\"gpus\":8,\"fabric\":2,\"precision\":\"fp16\"}}", &resp,
        &err))
        << err;
    EXPECT_EQ(resp.train.num_gpus, 8);
    EXPECT_EQ(resp.train.fabric, net::CollectiveFabric::HostStaged);
    EXPECT_EQ(resp.train.precision, hw::Precision::FP16);
    EXPECT_EQ(resp.train.iter.micro_batches, 1);

    // Run requests read "gpus" the same way.
    serve::ParsedRequest req;
    for (const char *gpus : {"1e300", "2.5", "\"8\""}) {
        EXPECT_FALSE(serve::parseRequest(
            std::string("{\"type\":\"run\",\"workload\":\"MLPf_NCF_Py\","
                        "\"gpus\":") +
                gpus + "}",
            catalog(), &req, &err))
            << gpus;
        EXPECT_NE(err.find("\"gpus\" must be an integer"),
                  std::string::npos)
            << gpus << ": " << err;
    }
}

// ---- line framing ---------------------------------------------------

TEST(ServeSession, SplitsLinesAcrossFeeds)
{
    serve::LineBuffer buf(64);
    std::vector<std::string> lines;
    EXPECT_TRUE(buf.feed("hel", 3, &lines));
    EXPECT_TRUE(buf.feed("lo\nwor", 6, &lines));
    EXPECT_TRUE(buf.feed("ld\r\n\n", 5, &lines));
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "hello");
    EXPECT_EQ(lines[1], "world"); // CR stripped
    EXPECT_EQ(lines[2], "");
}

TEST(ServeSession, OverflowLatchTripsOnLongLines)
{
    serve::LineBuffer buf(8);
    std::vector<std::string> lines;
    std::string long_line(32, 'x');
    EXPECT_FALSE(buf.feed(long_line.data(), long_line.size(),
                          &lines));
    EXPECT_TRUE(buf.overflowed());
    // Poisoned: even a short line is refused now.
    EXPECT_FALSE(buf.feed("a\n", 2, &lines));
    EXPECT_TRUE(lines.empty());
}

// ---- admission ------------------------------------------------------

TEST(ServeAdmission, TokenBucketRefillsAtRate)
{
    serve::TokenBucket bucket(/*rate=*/2.0, /*burst=*/2.0);
    EXPECT_TRUE(bucket.tryTake(0.0));
    EXPECT_TRUE(bucket.tryTake(0.0));
    EXPECT_FALSE(bucket.tryTake(0.0)); // burst exhausted
    EXPECT_NEAR(bucket.retryAfter(0.0), 0.5, 1e-9);
    EXPECT_FALSE(bucket.tryTake(0.25)); // half a token matured
    EXPECT_NEAR(bucket.retryAfter(0.25), 0.25, 1e-9);
    EXPECT_TRUE(bucket.tryTake(0.5));
    // Refill caps at burst, not beyond.
    EXPECT_TRUE(bucket.tryTake(100.0));
    EXPECT_TRUE(bucket.tryTake(100.0));
    EXPECT_FALSE(bucket.tryTake(100.0));
}

TEST(ServeAdmission, QueueFullRejectsWithHint)
{
    serve::AdmissionConfig cfg;
    cfg.max_queued = 2;
    cfg.rate = 1000.0;
    cfg.burst = 1000.0;
    serve::AdmissionQueue q(cfg);
    std::uint64_t seq = 0;
    EXPECT_EQ(q.offer("a", 0.0, &seq).outcome,
              serve::Admission::Outcome::Admitted);
    EXPECT_EQ(q.offer("b", 0.0, &seq).outcome,
              serve::Admission::Outcome::Admitted);
    serve::Admission third = q.offer("c", 0.0, &seq);
    EXPECT_EQ(third.outcome,
              serve::Admission::Outcome::QueueFull);
    EXPECT_GT(third.retry_after_s, 0.0);
    EXPECT_EQ(q.pending(), 2u);
    EXPECT_EQ(q.rejectedFull(), 1u);
}

TEST(ServeAdmission, WeightedRoundRobinInterleavesClients)
{
    serve::AdmissionConfig cfg;
    cfg.weight = 2;
    cfg.rate = 1000.0;
    cfg.burst = 1000.0;
    serve::AdmissionQueue q(cfg);
    std::uint64_t seq = 0;
    // Client a floods 6 requests; b and c submit 2 each.
    for (int i = 0; i < 6; ++i)
        q.offer("a", 0.0, &seq);
    for (int i = 0; i < 2; ++i) {
        q.offer("b", 0.0, &seq);
        q.offer("c", 0.0, &seq);
    }
    auto batch = q.takeBatch(10);
    ASSERT_EQ(batch.size(), 10u);
    std::vector<std::string> order;
    for (const auto &t : batch)
        order.push_back(t.client);
    // Quantum 2, lexicographic cycle: a cannot starve b or c.
    std::vector<std::string> want = {"a", "a", "b", "b", "c", "c",
                                     "a", "a", "a", "a"};
    EXPECT_EQ(order, want);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(ServeAdmission, CancelClientDropsOnlyThatClient)
{
    serve::AdmissionQueue q;
    std::uint64_t seq = 0;
    q.offer("a", 0.0, &seq);
    q.offer("b", 0.0, &seq);
    q.offer("a", 0.0, &seq);
    auto dropped = q.cancelClient("a");
    EXPECT_EQ(dropped.size(), 2u);
    EXPECT_EQ(q.pending(), 1u);
    auto batch = q.takeBatch(10);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].client, "b");
}

// ---- ServeCore ------------------------------------------------------

/** Emit sink collecting (client, decoded response) pairs. */
struct Collector {
    std::vector<std::pair<std::string, serve::Response>> responses;

    serve::ServeCore::Emit
    sink()
    {
        return [this](const std::string &client,
                      const std::string &line) {
            serve::Response r;
            std::string err;
            ASSERT_TRUE(serve::decodeResponse(line, &r, &err))
                << err << ": " << line;
            responses.emplace_back(client, std::move(r));
        };
    }

    const serve::Response *
    byId(const std::string &id) const
    {
        for (const auto &[c, r] : responses)
            if (r.id == id)
                return &r;
        return nullptr;
    }
};

serve::ServeConfig
coreConfig()
{
    serve::ServeConfig cfg;
    cfg.exec = exec::ExecOptions(1);
    cfg.admission.rate = 1000.0;
    cfg.admission.burst = 1000.0;
    return cfg;
}

std::string
runLine(const std::string &id, int gpus)
{
    return "{\"type\":\"run\",\"id\":\"" + id +
           "\",\"workload\":\"MLPf_NCF_Py\",\"gpus\":" +
           std::to_string(gpus) + "}";
}

TEST(ServeCore, DuplicateRequestsAcrossClientsDedupeToOneRun)
{
    Collector out;
    serve::ServeCore core(coreConfig(), out.sink());
    core.clientConnected("c1");
    core.clientConnected("c2");
    core.handleLine("c1", runLine("a", 2), 0.0);
    core.handleLine("c2", runLine("b", 2), 0.0);
    EXPECT_TRUE(core.hasPending());
    EXPECT_EQ(core.dispatchBatch(), 2u);

    const serve::Response *ra = out.byId("a");
    const serve::Response *rb = out.byId("b");
    ASSERT_TRUE(ra && rb);
    EXPECT_EQ(ra->status, "ok");
    EXPECT_EQ(rb->status, "ok");
    // One simulation, byte-identical answers to both clients.
    EXPECT_EQ(core.engine().stats().unique_runs, 1u);
    EXPECT_EQ(serve::canonicalResultLine(ra->train),
              serve::canonicalResultLine(rb->train));
}

TEST(ServeCore, InvalidRequestCostsNoSimulation)
{
    Collector out;
    serve::ServeCore core(coreConfig(), out.sink());
    core.clientConnected("c1");
    core.handleLine("c1", "{\"type\":\"run\",\"id\":\"x\","
                          "\"workload\":\"Nope\"}",
                    0.0);
    const serve::Response *r = out.byId("x");
    ASSERT_TRUE(r);
    EXPECT_EQ(r->status, "invalid");
    EXPECT_FALSE(core.hasPending());
    EXPECT_EQ(core.engine().stats().requests, 0u);
}

TEST(ServeCore, OverloadedWhenQueueFills)
{
    serve::ServeConfig cfg = coreConfig();
    cfg.admission.max_queued = 1;
    Collector out;
    serve::ServeCore core(cfg, out.sink());
    core.clientConnected("c1");
    core.handleLine("c1", runLine("a", 1), 0.0);
    core.handleLine("c1", runLine("b", 2), 0.0);
    const serve::Response *r = out.byId("b");
    ASSERT_TRUE(r);
    EXPECT_EQ(r->status, "overloaded");
    EXPECT_GT(r->retry_after_s, 0.0);
}

TEST(ServeCore, RateLimitRejectsWithRetryAfter)
{
    serve::ServeConfig cfg = coreConfig();
    cfg.admission.rate = 1.0;
    cfg.admission.burst = 1.0;
    Collector out;
    serve::ServeCore core(cfg, out.sink());
    core.clientConnected("c1");
    core.handleLine("c1", runLine("a", 1), 0.0);
    core.handleLine("c1", runLine("b", 2), 0.0);
    const serve::Response *r = out.byId("b");
    ASSERT_TRUE(r);
    EXPECT_EQ(r->status, "overloaded");
    EXPECT_NEAR(r->retry_after_s, 1.0, 1e-6);
}

TEST(ServeCore, DrainRejectsNewRunsAndCancelsQueued)
{
    Collector out;
    serve::ServeCore core(coreConfig(), out.sink());
    core.clientConnected("c1");
    core.handleLine("c1", runLine("a", 1), 0.0);
    core.beginDrain();
    core.handleLine("c1", runLine("b", 2), 0.0);
    const serve::Response *rb = out.byId("b");
    ASSERT_TRUE(rb);
    EXPECT_EQ(rb->status, "draining");
    // Ping/stats still answer during the drain.
    core.handleLine("c1", "{\"type\":\"ping\",\"id\":\"p\"}", 0.0);
    EXPECT_TRUE(out.byId("p"));

    EXPECT_EQ(core.cancelPending(), 1u);
    const serve::Response *ra = out.byId("a");
    ASSERT_TRUE(ra);
    EXPECT_EQ(ra->status, "draining");
    EXPECT_FALSE(core.hasPending());
}

TEST(ServeCore, DisconnectCancelsQueuedRunsSilently)
{
    Collector out;
    serve::ServeCore core(coreConfig(), out.sink());
    core.clientConnected("c1");
    core.clientConnected("c2");
    core.handleLine("c1", runLine("a", 1), 0.0);
    core.handleLine("c2", runLine("b", 2), 0.0);
    core.clientDisconnected("c1");
    EXPECT_EQ(core.dispatchBatch(), 1u);
    EXPECT_FALSE(out.byId("a")); // never answered, never simulated
    ASSERT_TRUE(out.byId("b"));
    EXPECT_EQ(core.engine().stats().unique_runs, 1u);
}

TEST(ServeCore, PerRequestDeadlineBecomesStructuredError)
{
    Collector out;
    serve::ServeCore core(coreConfig(), out.sink());
    core.clientConnected("c1");
    // An impossible deadline: every simulation takes > 1 ns of host
    // wall time, so the watchdog must capture it.
    core.handleLine("c1",
                    "{\"type\":\"run\",\"id\":\"d\",\"workload\":"
                    "\"MLPf_NCF_Py\",\"deadline_s\":1e-9}",
                    0.0);
    core.dispatchBatch();
    const serve::Response *r = out.byId("d");
    ASSERT_TRUE(r);
    EXPECT_EQ(r->status, "error");
    EXPECT_EQ(r->reason, "deadline");
    // Deadline errors are never cached: a retry without the deadline
    // simulates fresh and succeeds.
    core.handleLine("c1", runLine("d2", 1), 1.0);
    core.dispatchBatch();
    const serve::Response *r2 = out.byId("d2");
    ASSERT_TRUE(r2);
    EXPECT_EQ(r2->status, "ok");
}

TEST(ServeCore, StatsReportCountsTheTraffic)
{
    Collector out;
    serve::ServeCore core(coreConfig(), out.sink());
    core.clientConnected("c1");
    core.handleLine("c1", runLine("a", 1), 0.0);
    core.dispatchBatch();
    core.handleLine("c1", "{\"type\":\"stats\",\"id\":\"s\"}", 0.0);
    const serve::Response *s = out.byId("s");
    ASSERT_TRUE(s);
    EXPECT_EQ(s->type, "stats");
    serve::Json doc;
    std::string err;
    ASSERT_TRUE(serve::Json::parse(s->metrics_json, &doc, &err))
        << err << ": " << s->metrics_json;
    EXPECT_DOUBLE_EQ(doc.find("served")->number, 1.0);
    EXPECT_DOUBLE_EQ(doc.find("admitted")->number, 1.0);
    EXPECT_DOUBLE_EQ(
        doc.find("engine")->find("unique_runs")->number, 1.0);
}

// Satellite: the stats latency block's JSON shape is pinned — count
// plus p50/p95/p99 — and survives an encode/decode round trip.
TEST(ServeCore, StatsLatencyPercentilesPinTheJsonShape)
{
    Collector out;
    serve::ServeCore core(coreConfig(), out.sink());
    core.clientConnected("c1");

    // Before any served run: present, zeroed.
    core.handleLine("c1", "{\"type\":\"stats\",\"id\":\"s0\"}", 0.0);
    const serve::Response *s0 = out.byId("s0");
    ASSERT_TRUE(s0);
    serve::Json doc;
    std::string err;
    ASSERT_TRUE(serve::Json::parse(s0->metrics_json, &doc, &err))
        << err << ": " << s0->metrics_json;
    const serve::Json *lat = doc.find("latency_ms");
    ASSERT_TRUE(lat && lat->isObject());
    EXPECT_DOUBLE_EQ(lat->find("count")->number, 0.0);
    EXPECT_DOUBLE_EQ(lat->find("p50")->number, 0.0);
    EXPECT_DOUBLE_EQ(lat->find("p95")->number, 0.0);
    EXPECT_DOUBLE_EQ(lat->find("p99")->number, 0.0);

    // After served runs: count matches, percentiles ordered.
    core.handleLine("c1", runLine("a", 1), 0.0);
    core.handleLine("c1", runLine("b", 2), 0.0);
    core.dispatchBatch();
    core.handleLine("c1", "{\"type\":\"stats\",\"id\":\"s1\"}", 0.0);
    const serve::Response *s1 = out.byId("s1");
    ASSERT_TRUE(s1);
    serve::Json doc1;
    ASSERT_TRUE(serve::Json::parse(s1->metrics_json, &doc1, &err))
        << err;
    lat = doc1.find("latency_ms");
    ASSERT_TRUE(lat && lat->isObject());
    EXPECT_DOUBLE_EQ(lat->find("count")->number, 2.0);
    double p50 = lat->find("p50")->number;
    double p95 = lat->find("p95")->number;
    double p99 = lat->find("p99")->number;
    EXPECT_GE(p50, 0.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
}

// Tentpole surface 4: the metrics verb streams the registry snapshot
// over the wire, in both formats, and works while draining.
TEST(ServeCore, MetricsVerbStreamsRegistrySnapshot)
{
    Collector out;
    serve::ServeCore core(coreConfig(), out.sink());
    core.clientConnected("c1");
    core.handleLine("c1", runLine("a", 1), 0.0);
    core.dispatchBatch();

    core.handleLine("c1", "{\"type\":\"metrics\",\"id\":\"m1\"}", 0.0);
    const serve::Response *json_r = out.byId("m1");
    ASSERT_TRUE(json_r);
    EXPECT_EQ(json_r->type, "metrics");
    EXPECT_EQ(json_r->format, "json");
    serve::Json doc;
    std::string err;
    ASSERT_TRUE(serve::Json::parse(json_r->metrics_json, &doc, &err))
        << err << ": " << json_r->metrics_json;
    EXPECT_EQ(doc.find("schema")->str, "mlpsim-metrics-v1");

    core.handleLine(
        "c1",
        "{\"type\":\"metrics\",\"id\":\"m2\","
        "\"format\":\"prometheus\"}",
        0.0);
    const serve::Response *prom_r = out.byId("m2");
    ASSERT_TRUE(prom_r);
    EXPECT_EQ(prom_r->format, "prometheus");
    EXPECT_NE(prom_r->metrics_text.find("mlpsim_"),
              std::string::npos);

    // Unknown formats cost one invalid line, never a snapshot.
    core.handleLine(
        "c1",
        "{\"type\":\"metrics\",\"id\":\"m3\",\"format\":\"xml\"}",
        0.0);
    const serve::Response *bad = out.byId("m3");
    ASSERT_TRUE(bad);
    EXPECT_EQ(bad->status, "invalid");
    EXPECT_NE(bad->what.find("expected json or prometheus"),
              std::string::npos);

    // Still served during drain, like stats.
    core.beginDrain();
    core.handleLine("c1", "{\"type\":\"metrics\",\"id\":\"m4\"}", 0.0);
    const serve::Response *drained = out.byId("m4");
    ASSERT_TRUE(drained);
    EXPECT_EQ(drained->type, "metrics");
}

// ---- client helpers -------------------------------------------------

TEST(ServeClient, ParsesEndpoints)
{
    std::string host, err;
    int port = 0;
    EXPECT_TRUE(
        serve::parseEndpoint("10.0.0.1:8080", &host, &port, &err));
    EXPECT_EQ(host, "10.0.0.1");
    EXPECT_EQ(port, 8080);
    EXPECT_TRUE(serve::parseEndpoint(":9000", &host, &port, &err));
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 9000);
    EXPECT_TRUE(serve::parseEndpoint("7000", &host, &port, &err));
    EXPECT_EQ(port, 7000);
    EXPECT_FALSE(
        serve::parseEndpoint("host:notaport", &host, &port, &err));
    EXPECT_FALSE(serve::parseEndpoint("host:0", &host, &port, &err));
    EXPECT_FALSE(serve::parseEndpoint("", &host, &port, &err));
}

} // namespace
