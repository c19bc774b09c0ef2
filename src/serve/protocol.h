/**
 * @file
 * Wire protocol of `mlpsim serve`: line-delimited JSON over TCP.
 *
 * Every message is one JSON object on one line, newline-terminated.
 * The server greets with a `hello` carrying the protocol version,
 * then answers each client request with exactly one response line
 * (responses to concurrent requests may interleave in completion
 * order; the echoed `id` correlates them).
 *
 * Requests:
 *   {"type":"run","id":"r1","workload":"MLPf_NCF_Py",
 *    "system":"DSS 8440","gpus":2,"precision":"mixed",
 *    "reference":false,"deadline_s":5.0}
 *   {"type":"stats","id":"s1"}
 *   {"type":"metrics","id":"m1","format":"json"}   (or "prometheus")
 *   {"type":"ping","id":"p1"}
 *
 * Responses:
 *   {"type":"hello","proto":1}
 *   {"type":"result","id":"r1","status":"ok","cache_hit":true,
 *    "result":{...the full deterministic result record...}}
 *   {"type":"result","id":"r1","status":"error","reason":"deadline",
 *    "what":"..."}
 *   {"type":"result","id":"r1","status":"overloaded",
 *    "retry_after_s":0.5}   (also status "draining" during shutdown)
 *   {"type":"result","id":"r1","status":"invalid","what":"..."}
 *   {"type":"stats","id":"s1","metrics":{...registry snapshot...}}
 *   {"type":"metrics","id":"m1","format":"json",
 *    "metrics":{...mlpsim-metrics-v1 snapshot...}}
 *   {"type":"metrics","id":"m1","format":"prometheus",
 *    "text":"...Prometheus exposition text, JSON-escaped..."}
 *   {"type":"pong","id":"p1"}
 *
 * Run requests are validated exactly like the CLI path (unknown
 * workload/system get a did-you-mean, GPU counts must be a power of
 * two the machine owns), so a malformed request costs one `invalid`
 * line, never a simulation. Instead of a registry "workload" name, a
 * run request may carry "workload_graph": an inline mlpsim-graph-v1
 * object (docs/WORKLOAD_IR.md) that runs through the same hardened
 * importer as `--workload-file`; a rejected graph answers with the
 * CLI's diagnostic vocabulary. The whole request still has to fit
 * one kMaxLineBytes line. Result doubles are rendered with %.17g,
 * which round-trips IEEE doubles exactly: a decoded result is
 * bit-identical to the simulated one, extending the byte-determinism
 * guarantee across the wire (see canonicalResultLine).
 */

#ifndef MLPSIM_SERVE_PROTOCOL_H
#define MLPSIM_SERVE_PROTOCOL_H

#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "core/registry.h"
#include "exec/run_request.h"
#include "sim/json.h"
#include "sys/system_config.h"

namespace mlps::serve {

/** Protocol version announced in the hello line. */
constexpr int kProtocolVersion = 1;

/** Ceiling on one request line; longer lines are a protocol error. */
constexpr std::size_t kMaxLineBytes = 64 * 1024;

// ---- minimal JSON ---------------------------------------------------

/**
 * The protocol's JSON vocabulary is the shared bounded parser in
 * sim/json.h; the historical serve::Json spelling is kept as an
 * alias. The default parse() limits (depth 32) and error strings are
 * those of the parser that used to live here; numbers follow the JSON
 * grammar only.
 */
using Json = sim::JsonValue;

/** JSON string escaping (quotes not included). */
using sim::jsonEscape;

/** Round-trip rendering of a double (%.17g, bit-exact). */
using sim::jsonDouble;

// ---- requests -------------------------------------------------------

/**
 * Validation context, built once per server: the workload registry
 * every run request is resolved against, and the machines requests
 * have named so far. It builds no machine up front.
 */
struct Catalog {
    core::Registry registry;

    /**
     * Machine by spec — a Table III name, "reference", or the pod
     * grammar `pod(<box>,<racks>x<nodes>[,spines=S])`, all resolved
     * by sys::systemFromSpec, so the error vocabulary matches the
     * CLI; null + did-you-mean error when unknown. Each spec is built
     * once and cached, so repeat lookups return the same pointer;
     * safe to call from concurrent connections.
     */
    const sys::SystemConfig *findMachine(const std::string &name,
                                         std::string *error) const;

  private:
    mutable std::mutex machines_mu_;
    mutable std::map<std::string, sys::SystemConfig> machines_;
};

/** One parsed-and-validated client request. */
struct ParsedRequest {
    enum class Kind { Run, Stats, Metrics, Ping };

    Kind kind = Kind::Ping;
    std::string id;          ///< client correlation id (echoed back)
    exec::RunRequest run;    ///< populated for Kind::Run
    double deadline_s = 0.0; ///< per-request deadline; 0 = none
    /** Kind::Metrics only: "json" (default) or "prometheus". */
    std::string metrics_format = "json";
};

/** "fp32", "fp16" or "mixed"; false for anything else. The request
 *  grammar and the CLI's --precision share this vocabulary. */
bool precisionFromToken(const std::string &token, hw::Precision *out);

/**
 * Parse and validate one request line the way the CLI validates its
 * flags. @return false with a one-line diagnostic (including
 * did-you-mean suggestions) on any structural or semantic problem.
 */
bool parseRequest(const std::string &line, const Catalog &catalog,
                  ParsedRequest *out, std::string *error);

// ---- responses ------------------------------------------------------

/** Server greeting. */
std::string encodeHello();

/** Successful (or error-carrying) evaluation of a run request. */
std::string encodeResult(const std::string &id,
                         const exec::RunResult &result);

/** Rejection: status is "overloaded", "draining" or "invalid". */
std::string encodeReject(const std::string &id,
                         const std::string &status,
                         const std::string &what,
                         double retry_after_s = 0.0);

/** Stats response embedding a pre-rendered metrics JSON document. */
std::string encodeStats(const std::string &id,
                        const std::string &metrics_json);

/**
 * Metrics response. `format` is "json" (payload embedded raw, an
 * mlpsim-metrics-v1 document) or "prometheus" (payload carried as an
 * escaped JSON string under "text").
 */
std::string encodeMetrics(const std::string &id,
                          const std::string &format,
                          const std::string &payload);

/** Ping acknowledgement. */
std::string encodePong(const std::string &id);

/** Client-side view of one decoded response line. */
struct Response {
    std::string type;   ///< hello | result | stats | metrics | pong
    std::string id;
    std::string status; ///< ok | error | invalid | overloaded | draining
    std::string reason; ///< error class, for status "error"
    std::string what;   ///< human diagnostic
    double retry_after_s = 0.0;
    int proto = 0;      ///< hello only
    bool cache_hit = false;
    bool from_journal = false;
    train::TrainResult train;  ///< status "ok" only
    std::string metrics_json;  ///< stats / metrics-json (raw JSON)
    std::string format;        ///< metrics only: json | prometheus
    std::string metrics_text;  ///< metrics-prometheus exposition text
};

/**
 * Decode one response line. @return false + error on junk, or on a
 * result member that is mistyped or out of range (docs/SERVICE.md).
 */
bool decodeResponse(const std::string &line, Response *out,
                    std::string *error);

/**
 * Canonical single-line rendering of the deterministic result cells
 * (every field the journal persists, doubles as %.17g). The serve
 * smoke test byte-compares this line between a served response and a
 * locally simulated batch run: equal lines prove the service returned
 * bit-identical numbers. Volatile fields (cache hit, wall time,
 * attempts) are deliberately excluded.
 */
std::string canonicalResultLine(const train::TrainResult &t);

} // namespace mlps::serve

#endif // MLPSIM_SERVE_PROTOCOL_H
