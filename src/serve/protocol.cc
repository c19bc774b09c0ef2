#include "serve/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "hw/precision.h"
#include "net/link.h"
#include "sys/machines.h"
#include "wl/import/diagnostics.h"
#include "wl/import/importer.h"

namespace mlps::serve {

namespace {

/** Object member as string; fallback when absent or mistyped. */
std::string
memberString(const Json &obj, const char *key,
             const std::string &fallback = {})
{
    const Json *m = obj.find(key);
    return m && m->isString() ? m->str : fallback;
}

double
memberNumber(const Json &obj, const char *key, double fallback)
{
    const Json *m = obj.find(key);
    return m && m->isNumber() ? m->number : fallback;
}

bool
memberBool(const Json &obj, const char *key, bool fallback)
{
    const Json *m = obj.find(key);
    return m && m->isBool() ? m->boolean : fallback;
}

/** Result key of one tier's all-reduce bytes: "<tier>_bytes". */
std::string
tierBytesKey(int tier)
{
    return net::toString(static_cast<net::FabricTier>(tier)) + "_bytes";
}

void
appendField(std::string &b, const char *key, const std::string &value,
            bool *first)
{
    if (!*first)
        b += ",";
    *first = false;
    b += "\"";
    b += key;
    b += "\":\"";
    b += jsonEscape(value);
    b += "\"";
}

void
appendRaw(std::string &b, const char *key, const std::string &raw,
          bool *first)
{
    if (!*first)
        b += ",";
    *first = false;
    b += "\"";
    b += key;
    b += "\":";
    b += raw;
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

/** The deterministic cells of one TrainResult, as a JSON object. */
std::string
encodeTrainResult(const train::TrainResult &t)
{
    std::string b = "{";
    bool first = true;
    appendField(b, "workload", t.workload, &first);
    appendField(b, "system", t.system, &first);
    appendRaw(b, "gpus", std::to_string(t.num_gpus), &first);
    appendField(b, "precision", precisionToken(t.precision), &first);
    appendRaw(b, "reference", t.reference_code ? "true" : "false",
              &first);
    appendRaw(b, "per_gpu_batch", jsonDouble(t.per_gpu_batch), &first);
    appendRaw(b, "global_batch", jsonDouble(t.global_batch), &first);
    appendRaw(b, "steps_per_epoch", jsonDouble(t.steps_per_epoch),
              &first);
    appendRaw(b, "epochs", jsonDouble(t.epochs), &first);
    appendRaw(b, "fwd_s", jsonDouble(t.iter.fwd_s), &first);
    appendRaw(b, "bwd_s", jsonDouble(t.iter.bwd_s), &first);
    appendRaw(b, "optimizer_s", jsonDouble(t.iter.optimizer_s),
              &first);
    appendRaw(b, "comm_s", jsonDouble(t.iter.comm_s), &first);
    appendRaw(b, "exposed_comm_s", jsonDouble(t.iter.exposed_comm_s),
              &first);
    appendRaw(b, "h2d_s", jsonDouble(t.iter.h2d_s), &first);
    appendRaw(b, "host_s", jsonDouble(t.iter.host_s), &first);
    appendRaw(b, "overhead_s", jsonDouble(t.iter.overhead_s), &first);
    appendRaw(b, "gpu_busy_s", jsonDouble(t.iter.gpu_busy_s), &first);
    appendRaw(b, "iteration_s", jsonDouble(t.iter.iteration_s),
              &first);
    appendRaw(b, "kernel_launches",
              std::to_string(t.iter.kernel_launches), &first);
    appendRaw(b, "micro_batches",
              std::to_string(t.iter.micro_batches), &first);
    appendRaw(b, "reroutes", std::to_string(t.iter.reroutes), &first);
    for (int k = 0; k < net::kNumFabricTiers; ++k)
        appendRaw(b, tierBytesKey(k).c_str(),
                  jsonDouble(t.iter.comm_tier_bytes[k]), &first);
    appendRaw(b, "cpu_util_pct", jsonDouble(t.usage.cpu_util_pct),
              &first);
    appendRaw(b, "gpu_util_pct_sum",
              jsonDouble(t.usage.gpu_util_pct_sum), &first);
    appendRaw(b, "dram_footprint_mb",
              jsonDouble(t.usage.dram_footprint_mb), &first);
    appendRaw(b, "hbm_footprint_mb",
              jsonDouble(t.usage.hbm_footprint_mb), &first);
    appendRaw(b, "pcie_mbps", jsonDouble(t.usage.pcie_mbps), &first);
    appendRaw(b, "nvlink_mbps", jsonDouble(t.usage.nvlink_mbps),
              &first);
    appendRaw(b, "fabric",
              std::to_string(static_cast<int>(t.fabric)), &first);
    appendRaw(b, "total_seconds", jsonDouble(t.total_seconds), &first);
    appendRaw(b, "achieved_flops", jsonDouble(t.achieved_flops),
              &first);
    appendRaw(b, "achieved_bytes_per_sec",
              jsonDouble(t.achieved_bytes_per_sec), &first);
    b += "}";
    return b;
}

void
decodeTrainResult(const Json &r, train::TrainResult *t)
{
    t->workload = memberString(r, "workload");
    t->system = memberString(r, "system");
    t->num_gpus = static_cast<int>(memberNumber(r, "gpus", 1));
    precisionFromToken(memberString(r, "precision", "mixed"),
                       &t->precision);
    t->reference_code = memberBool(r, "reference", false);
    t->per_gpu_batch = memberNumber(r, "per_gpu_batch", 0);
    t->global_batch = memberNumber(r, "global_batch", 0);
    t->steps_per_epoch = memberNumber(r, "steps_per_epoch", 0);
    t->epochs = memberNumber(r, "epochs", 0);
    t->iter.fwd_s = memberNumber(r, "fwd_s", 0);
    t->iter.bwd_s = memberNumber(r, "bwd_s", 0);
    t->iter.optimizer_s = memberNumber(r, "optimizer_s", 0);
    t->iter.comm_s = memberNumber(r, "comm_s", 0);
    t->iter.exposed_comm_s = memberNumber(r, "exposed_comm_s", 0);
    t->iter.h2d_s = memberNumber(r, "h2d_s", 0);
    t->iter.host_s = memberNumber(r, "host_s", 0);
    t->iter.overhead_s = memberNumber(r, "overhead_s", 0);
    t->iter.gpu_busy_s = memberNumber(r, "gpu_busy_s", 0);
    t->iter.iteration_s = memberNumber(r, "iteration_s", 0);
    t->iter.kernel_launches =
        static_cast<int>(memberNumber(r, "kernel_launches", 0));
    t->iter.micro_batches =
        static_cast<int>(memberNumber(r, "micro_batches", 0));
    t->iter.reroutes =
        static_cast<int>(memberNumber(r, "reroutes", 0));
    for (int k = 0; k < net::kNumFabricTiers; ++k)
        t->iter.comm_tier_bytes[k] =
            memberNumber(r, tierBytesKey(k).c_str(), 0);
    t->usage.cpu_util_pct = memberNumber(r, "cpu_util_pct", 0);
    t->usage.gpu_util_pct_sum =
        memberNumber(r, "gpu_util_pct_sum", 0);
    t->usage.dram_footprint_mb =
        memberNumber(r, "dram_footprint_mb", 0);
    t->usage.hbm_footprint_mb =
        memberNumber(r, "hbm_footprint_mb", 0);
    t->usage.pcie_mbps = memberNumber(r, "pcie_mbps", 0);
    t->usage.nvlink_mbps = memberNumber(r, "nvlink_mbps", 0);
    t->fabric = static_cast<net::CollectiveFabric>(
        static_cast<int>(memberNumber(r, "fabric", 0)));
    t->total_seconds = memberNumber(r, "total_seconds", 0);
    t->achieved_flops = memberNumber(r, "achieved_flops", 0);
    t->achieved_bytes_per_sec =
        memberNumber(r, "achieved_bytes_per_sec", 0);
}

} // namespace

// ---- Catalog --------------------------------------------------------

Catalog::Catalog() : machines(sys::allMachines())
{
    // Same alias the CLI accepts; the config itself (and hence the
    // fingerprint) is exactly sys::mlperfReference().
    machines.push_back(sys::mlperfReference());
}

const sys::SystemConfig *
Catalog::findMachine(const std::string &name, std::string *error) const
{
    for (const auto &m : machines) {
        if (m.name == name)
            return &m;
    }
    if (name == "reference")
        return &machines.back(); // the mlperfReference() slot

    // Everything else — pod grammar or a typo — goes through the
    // shared resolver, so this error text is byte-identical to the
    // CLI's. Built pods are big; cache them per spec string
    // (std::map nodes are pointer-stable across inserts).
    std::lock_guard<std::mutex> lock(pods_mu_);
    auto it = pods_.find(name);
    if (it != pods_.end())
        return &it->second;
    sys::SystemConfig built;
    std::string err;
    if (!sys::systemFromSpec(name, &built, &err)) {
        if (error)
            *error = err;
        return nullptr;
    }
    return &pods_.emplace(name, std::move(built)).first->second;
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
    out->id = memberString(doc, "id");
    std::string type = memberString(doc, "type");
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
        std::string format = memberString(doc, "format");
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
    std::string workload = memberString(doc, "workload");
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
    std::string system = memberString(doc, "system", "DSS 8440");
    const sys::SystemConfig *machine =
        catalog.findMachine(system, error);
    if (!machine)
        return false;

    // The same envelope the CLI enforces via gpusFrom().
    int gpus = static_cast<int>(memberNumber(doc, "gpus", 1));
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

    std::string precision = memberString(doc, "precision", "mixed");
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
        memberBool(doc, "reference", false);
    out->run.profiled = memberBool(doc, "profiled", false);
    out->deadline_s = memberNumber(doc, "deadline_s", 0.0);
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
    out->type = memberString(doc, "type");
    out->id = memberString(doc, "id");
    out->status = memberString(doc, "status");
    out->reason = memberString(doc, "reason");
    out->what = memberString(doc, "what");
    out->retry_after_s = memberNumber(doc, "retry_after_s", 0.0);
    out->proto = static_cast<int>(memberNumber(doc, "proto", 0));
    out->cache_hit = memberBool(doc, "cache_hit", false);
    out->from_journal = memberBool(doc, "from_journal", false);
    out->format = memberString(doc, "format");
    out->metrics_text = memberString(doc, "text");
    if (const Json *r = doc.find("result"); r && r->isObject())
        decodeTrainResult(*r, &out->train);
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
