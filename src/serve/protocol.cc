#include "serve/protocol.h"

#include <cctype>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "hw/precision.h"
#include "net/link.h"
#include "sys/machines.h"
#include "wl/import/diagnostics.h"
#include "wl/import/importer.h"

namespace mlps::serve {

namespace {

/** Result key of one tier's all-reduce bytes: "<tier>_bytes". */
std::string
tierBytesKey(int tier)
{
    return net::toString(static_cast<net::FabricTier>(tier)) + "_bytes";
}

std::string
precisionToken(hw::Precision p)
{
    switch (p) {
    case hw::Precision::FP32: return "fp32";
    case hw::Precision::FP16: return "fp16";
    default: return "mixed";
    }
}

} // namespace

bool
precisionFromToken(const std::string &token, hw::Precision *out)
{
    if (token == "fp32")
        *out = hw::Precision::FP32;
    else if (token == "fp16")
        *out = hw::Precision::FP16;
    else if (token == "mixed")
        *out = hw::Precision::Mixed;
    else
        return false;
    return true;
}

namespace {

/** `v` as an int when it is integral and in range. */
bool
intFrom(double v, int *out)
{
    if (!(v >= INT_MIN && v <= INT_MAX) || v != std::trunc(v))
        return false;
    *out = static_cast<int>(v);
    return true;
}

/**
 * Read member `key` of `obj` into `out`. An absent member keeps
 * `out`; a mistyped, non-integral or out-of-range one returns false
 * and keeps it too.
 */
template <class T>
bool
readMember(const Json &obj, const std::string &key, T *out)
{
    const Json *m = obj.find(key);
    auto take = [out](bool ok, const auto &v) {
        if (ok)
            *out = v;
        return ok;
    };
    if (!m)
        return true;
    if constexpr (std::is_same_v<T, std::string>)
        return take(m->isString(), m->str);
    else if constexpr (std::is_same_v<T, bool>)
        return take(m->isBool(), m->boolean);
    else if constexpr (std::is_same_v<T, double>)
        return take(m->isNumber(), m->number);
    else if constexpr (std::is_same_v<T, hw::Precision>)
        return m->isString() && precisionFromToken(m->str, out);
    else if constexpr (std::is_same_v<T, int>)
        return m->isNumber() && intFrom(m->number, out);
    else { // net::CollectiveFabric
        int v = 0;
        return m->isNumber() && intFrom(m->number, &v) && v >= 0 &&
               v <= static_cast<int>(net::CollectiveFabric::HostStaged) &&
               take(true, static_cast<T>(v));
    }
}

/** Member `key` of `obj`; `fallback` when absent or mistyped. */
template <class T>
T
memberOr(const Json &obj, const std::string &key, T fallback)
{
    readMember(obj, key, &fallback);
    return fallback;
}

/** The deterministic cells of one TrainResult, as a JSON object. */
std::string
encodeTrainResult(const train::TrainResult &t)
{
    std::string b = "{";
    auto key = [&b](std::string_view name) {
        if (b.size() > 1)
            b += ',';
        b += '"';
        b += name;
        b += "\":";
    };
    train::forEachField(t, [&](const char *name, const auto &v) {
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_array_v<T>) {
            for (int k = 0; k < net::kNumFabricTiers; ++k) {
                key(tierBytesKey(k));
                b += jsonDouble(v[k]);
            }
        } else {
            key(name);
            if constexpr (std::is_same_v<T, std::string>)
                b += '"' + jsonEscape(v) + '"';
            else if constexpr (std::is_same_v<T, bool>)
                b += v ? "true" : "false";
            else if constexpr (std::is_same_v<T, double>)
                b += jsonDouble(v);
            else if constexpr (std::is_same_v<T, hw::Precision>)
                b += '"' + precisionToken(v) + '"';
            else // int and the fabric enum
                b += std::to_string(static_cast<int>(v));
        }
    });
    b += "}";
    return b;
}

/**
 * Decode a result object into `t`. @return false naming the first
 * bad member in `bad`.
 */
bool
decodeTrainResult(const Json &r, train::TrainResult *t, std::string *bad)
{
    train::forEachField(*t, [&](const char *name, auto &v) {
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_array_v<T>) {
            for (int k = 0; k < net::kNumFabricTiers && bad->empty(); ++k)
                if (!readMember(r, tierBytesKey(k), &v[k]))
                    *bad = tierBytesKey(k);
        } else if (bad->empty() && !readMember(r, name, &v)) {
            *bad = name;
        }
    });
    return bad->empty();
}

} // namespace

// ---- Catalog --------------------------------------------------------

const sys::SystemConfig *
Catalog::findMachine(const std::string &name, std::string *error) const
{
    // std::map nodes are pointer-stable across inserts.
    std::lock_guard<std::mutex> lock(machines_mu_);
    auto it = machines_.find(name);
    if (it != machines_.end())
        return &it->second;
    sys::SystemConfig built;
    std::string err;
    if (!sys::systemFromSpec(name, &built, &err)) {
        if (error)
            *error = err;
        return nullptr;
    }
    return &machines_.emplace(name, std::move(built)).first->second;
}

// ---- requests -------------------------------------------------------

bool
parseRequest(const std::string &line, const Catalog &catalog,
             ParsedRequest *out, std::string *error)
{
    if (line.size() > kMaxLineBytes) {
        *error = "request line too long";
        return false;
    }
    Json doc;
    if (!Json::parse(line, &doc, error)) {
        *error = "bad JSON: " + *error;
        return false;
    }
    if (!doc.isObject()) {
        *error = "request must be a JSON object";
        return false;
    }
    out->id = memberOr<std::string>(doc, "id", {});
    std::string type = memberOr<std::string>(doc, "type", {});
    if (type == "stats") {
        out->kind = ParsedRequest::Kind::Stats;
        return true;
    }
    if (type == "ping") {
        out->kind = ParsedRequest::Kind::Ping;
        return true;
    }
    if (type == "metrics") {
        out->kind = ParsedRequest::Kind::Metrics;
        std::string format = memberOr<std::string>(doc, "format", {});
        if (format.empty())
            format = "json";
        if (format != "json" && format != "prometheus") {
            *error = "unknown metrics format '" + format +
                     "' (expected json or prometheus)";
            return false;
        }
        out->metrics_format = format;
        return true;
    }
    if (type != "run") {
        *error = "unknown request type '" + type +
                 "' (expected run, stats, metrics or ping)";
        return false;
    }

    out->kind = ParsedRequest::Kind::Run;
    std::string workload = memberOr<std::string>(doc, "workload", {});
    const Json *graph_doc = doc.find("workload_graph");
    wl::WorkloadSpec imported;
    if (graph_doc) {
        // An inline mlpsim-graph-v1 document instead of a registry
        // name. It runs through the same importer as --workload-file,
        // so a rejected graph costs one `invalid` line carrying the
        // CLI's diagnostic vocabulary, never a simulation.
        if (!workload.empty()) {
            *error = "request carries both \"workload\" and "
                     "\"workload_graph\" (give one)";
            return false;
        }
        if (!graph_doc->isObject()) {
            *error = "\"workload_graph\" must be a JSON object";
            return false;
        }
        wl::import::ImportResult imp =
            wl::import::importParsed(*graph_doc, line);
        if (!imp.ok) {
            *error = "workload_graph rejected: " +
                     wl::import::summaryLine(imp);
            return false;
        }
        imported = std::move(imp.spec);
    } else if (workload.empty()) {
        *error = "run request needs a \"workload\"";
        return false;
    }
    const core::Benchmark *b = nullptr;
    if (!graph_doc) {
        b = catalog.registry.find(workload);
        if (!b) {
            *error = "unknown workload '" + workload + "'" +
                     core::didYouMean(workload,
                                      catalog.registry.names());
            return false;
        }
    }
    std::string system = memberOr<std::string>(doc, "system", "DSS 8440");
    const sys::SystemConfig *machine =
        catalog.findMachine(system, error);
    if (!machine)
        return false;

    // The same envelope the CLI enforces via gpusFrom().
    int gpus = 1;
    if (!readMember(doc, "gpus", &gpus)) {
        *error = "\"gpus\" must be an integer";
        return false;
    }
    if (gpus <= 0 || (gpus & (gpus - 1)) != 0) {
        *error = "\"gpus\" must be a positive power of two (got " +
                 std::to_string(gpus) + ")";
        return false;
    }
    if (gpus > machine->num_gpus) {
        *error = "\"gpus\" " + std::to_string(gpus) + ": '" +
                 machine->name + "' only has " +
                 std::to_string(machine->num_gpus) + " GPUs";
        return false;
    }

    std::string precision = memberOr<std::string>(doc, "precision", "mixed");
    hw::Precision prec;
    if (!precisionFromToken(precision, &prec)) {
        *error = "unknown precision '" + precision +
                 "' (expected fp32, fp16 or mixed)";
        return false;
    }

    out->run.system = *machine;
    out->run.workload = graph_doc ? std::move(imported) : b->spec();
    out->run.options.num_gpus = gpus;
    out->run.options.precision = prec;
    out->run.options.reference_code =
        memberOr(doc, "reference", false);
    out->run.profiled = memberOr(doc, "profiled", false);
    out->deadline_s = memberOr(doc, "deadline_s", 0.0);
    if (out->deadline_s < 0.0) {
        *error = "\"deadline_s\" must be >= 0";
        return false;
    }
    return true;
}

// ---- responses ------------------------------------------------------

std::string
encodeHello()
{
    return "{\"type\":\"hello\",\"proto\":" +
           std::to_string(kProtocolVersion) + "}";
}

std::string
encodeResult(const std::string &id, const exec::RunResult &result)
{
    std::string b = "{\"type\":\"result\",\"id\":\"" +
                    jsonEscape(id) + "\"";
    if (result.error) {
        b += ",\"status\":\"error\",\"reason\":\"" +
             jsonEscape(result.error->reason) + "\",\"what\":\"" +
             jsonEscape(result.error->what) + "\"";
        b += ",\"attempts\":" +
             std::to_string(result.error->attempts);
        b += "}";
        return b;
    }
    b += ",\"status\":\"ok\"";
    b += ",\"cache_hit\":";
    b += result.cache_hit ? "true" : "false";
    b += ",\"from_journal\":";
    b += result.from_journal ? "true" : "false";
    b += ",\"wall_ms\":" + jsonDouble(result.wall_seconds * 1e3);
    b += ",\"result\":" + encodeTrainResult(result.train);
    b += "}";
    return b;
}

std::string
encodeReject(const std::string &id, const std::string &status,
             const std::string &what, double retry_after_s)
{
    std::string b = "{\"type\":\"result\",\"id\":\"" +
                    jsonEscape(id) + "\",\"status\":\"" +
                    jsonEscape(status) + "\"";
    if (!what.empty())
        b += ",\"what\":\"" + jsonEscape(what) + "\"";
    if (retry_after_s > 0.0)
        b += ",\"retry_after_s\":" + jsonDouble(retry_after_s);
    b += "}";
    return b;
}

std::string
encodeStats(const std::string &id, const std::string &metrics_json)
{
    return "{\"type\":\"stats\",\"id\":\"" + jsonEscape(id) +
           "\",\"metrics\":" + metrics_json + "}";
}

std::string
encodeMetrics(const std::string &id, const std::string &format,
              const std::string &payload)
{
    std::string b = "{\"type\":\"metrics\",\"id\":\"" +
                    jsonEscape(id) + "\",\"format\":\"" +
                    jsonEscape(format) + "\",";
    if (format == "prometheus")
        b += "\"text\":\"" + jsonEscape(payload) + "\"";
    else
        b += "\"metrics\":" + payload;
    b += "}";
    return b;
}

std::string
encodePong(const std::string &id)
{
    return "{\"type\":\"pong\",\"id\":\"" + jsonEscape(id) + "\"}";
}

bool
decodeResponse(const std::string &line, Response *out,
               std::string *error)
{
    Json doc;
    if (!Json::parse(line, &doc, error)) {
        *error = "bad JSON: " + *error;
        return false;
    }
    if (!doc.isObject()) {
        *error = "response must be a JSON object";
        return false;
    }
    out->type = memberOr<std::string>(doc, "type", {});
    out->id = memberOr<std::string>(doc, "id", {});
    out->status = memberOr<std::string>(doc, "status", {});
    out->reason = memberOr<std::string>(doc, "reason", {});
    out->what = memberOr<std::string>(doc, "what", {});
    out->retry_after_s = memberOr(doc, "retry_after_s", 0.0);
    out->proto = 0;
    if (!readMember(doc, "proto", &out->proto)) {
        *error = "bad \"proto\"";
        return false;
    }
    out->cache_hit = memberOr(doc, "cache_hit", false);
    out->from_journal = memberOr(doc, "from_journal", false);
    out->format = memberOr<std::string>(doc, "format", {});
    out->metrics_text = memberOr<std::string>(doc, "text", {});
    out->train = {};
    if (const Json *r = doc.find("result"); r && r->isObject()) {
        std::string bad;
        if (!decodeTrainResult(*r, &out->train, &bad)) {
            *error = "bad result member \"" + bad + "\"";
            return false;
        }
    }
    if (const Json *m = doc.find("metrics"); m && m->isObject()) {
        // Keep the raw text: stats consumers print it verbatim.
        std::size_t open = line.find("\"metrics\":");
        if (open != std::string::npos)
            out->metrics_json =
                line.substr(open + std::strlen("\"metrics\":"));
        if (!out->metrics_json.empty() &&
            out->metrics_json.back() == '}')
            out->metrics_json.pop_back(); // outer object's closer
    }
    return true;
}

std::string
canonicalResultLine(const train::TrainResult &t)
{
    std::string b = t.workload + "|" + t.system + "|g" +
                    std::to_string(t.num_gpus) + "|" +
                    precisionToken(t.precision) +
                    (t.reference_code ? "|ref" : "|sub");
    auto cell = [&b](const char *key, double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s=%.17g", key, v);
        b += buf;
    };
    cell("total_s", t.total_seconds);
    cell("iteration_s", t.iter.iteration_s);
    cell("fwd_s", t.iter.fwd_s);
    cell("bwd_s", t.iter.bwd_s);
    cell("optimizer_s", t.iter.optimizer_s);
    cell("comm_s", t.iter.comm_s);
    cell("exposed_comm_s", t.iter.exposed_comm_s);
    cell("h2d_s", t.iter.h2d_s);
    cell("host_s", t.iter.host_s);
    cell("overhead_s", t.iter.overhead_s);
    cell("gpu_busy_s", t.iter.gpu_busy_s);
    b += " launches=" + std::to_string(t.iter.kernel_launches);
    b += " micro=" + std::to_string(t.iter.micro_batches);
    b += " reroutes=" + std::to_string(t.iter.reroutes);
    for (int k = 0; k < net::kNumFabricTiers; ++k)
        cell(tierBytesKey(k).c_str(), t.iter.comm_tier_bytes[k]);
    cell("per_gpu_batch", t.per_gpu_batch);
    cell("global_batch", t.global_batch);
    cell("steps_per_epoch", t.steps_per_epoch);
    cell("epochs", t.epochs);
    cell("cpu_util_pct", t.usage.cpu_util_pct);
    cell("gpu_util_pct_sum", t.usage.gpu_util_pct_sum);
    cell("dram_mb", t.usage.dram_footprint_mb);
    cell("hbm_mb", t.usage.hbm_footprint_mb);
    cell("pcie_mbps", t.usage.pcie_mbps);
    cell("nvlink_mbps", t.usage.nvlink_mbps);
    b += " fabric=" + std::to_string(static_cast<int>(t.fabric));
    cell("achieved_flops", t.achieved_flops);
    cell("achieved_bps", t.achieved_bytes_per_sec);
    return b;
}

} // namespace mlps::serve
