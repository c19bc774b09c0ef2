#include "obs/attrib/attribution.h"

#include <algorithm>
#include <utility>

#include "exec/run_request.h"
#include "sim/json.h"
#include "sim/logger.h"

namespace mlps::obs::attrib {

namespace {

/** Relative slack when matching a parent's end to a child's start. */
constexpr double kEdgeEps = 1e-12;

const char *
modeToken(wl::RunMode mode)
{
    switch (mode) {
      case wl::RunMode::Training: return "training";
      case wl::RunMode::KernelLoop: return "kernel-loop";
      case wl::RunMode::CollectiveLoop: return "collective-loop";
    }
    sim::panic("attrib: bad RunMode %d", static_cast<int>(mode));
}

int
addSpan(Attribution &a, std::string name, std::string lane,
        double start_s, double duration_s, Bucket bucket,
        std::vector<int> parents, int tier = -1, int replicas = 1)
{
    if (duration_s < 0.0)
        sim::fatal("attrib: negative span duration %g for '%s'",
                   duration_s, name.c_str());
    Span s;
    s.id = static_cast<int>(a.spans.size());
    s.name = std::move(name);
    s.lane = std::move(lane);
    s.start_s = start_s;
    s.duration_s = duration_s;
    s.bucket = bucket;
    s.tier = tier;
    s.replicas = replicas;
    s.parents = std::move(parents);
    a.spans.push_back(std::move(s));
    return a.spans.back().id;
}

/**
 * Split the exposed collective time across fabric tiers in proportion
 * to the bytes the trainer's all-reduce moved on each tier
 * (IterationBreakdown::comm_tier_bytes), and append one chained span
 * per active tier. Returns the id of the last span appended (or
 * `parent` when exposed_s == 0).
 */
int
addTierCommSpans(Attribution &a,
                 const double (&tier_bytes)[net::kNumFabricTiers],
                 double exposed_s, double start_s, int parent,
                 const char *name_prefix, const std::string &lane,
                 int replicas, double *cursor)
{
    *cursor = start_s;
    if (exposed_s <= 0.0)
        return parent;
    double total_bytes = 0.0;
    for (int t = 0; t < net::kNumFabricTiers; ++t)
        total_bytes += tier_bytes[t];
    int prev = parent;
    auto chain = [](int p) {
        return p >= 0 ? std::vector<int>{p} : std::vector<int>{};
    };
    if (total_bytes <= 0.0) {
        // No fabric traffic recorded (degenerate schedule): book the
        // whole exposure intra-node rather than dropping it.
        prev = addSpan(a,
                       std::string(name_prefix) + " (" +
                           net::toString(net::FabricTier::IntraNode) +
                           ")",
                       lane, *cursor, exposed_s, Bucket::ExposedComm,
                       chain(prev), 0, replicas);
        *cursor += exposed_s;
        return prev;
    }
    for (int t = 0; t < net::kNumFabricTiers; ++t) {
        if (tier_bytes[t] <= 0.0)
            continue;
        double dur = exposed_s * (tier_bytes[t] / total_bytes);
        prev = addSpan(a,
                       std::string(name_prefix) + " (" +
                           net::toString(
                               static_cast<net::FabricTier>(t)) +
                           ")",
                       lane, *cursor, dur, Bucket::ExposedComm,
                       chain(prev), t, replicas);
        *cursor += dur;
    }
    return prev;
}

/**
 * Longest-path pass: start from the span with the latest end (ties:
 * highest id, i.e. the downstream-most span of the construction) and
 * repeatedly step to the parent whose end coincides with the current
 * span's start — the parent that actually determined when it could
 * run. Marks Span::critical and fills critical_path source-first.
 */
void
extractCriticalPath(Attribution &a)
{
    if (a.spans.empty())
        return;
    int sink = 0;
    for (const Span &s : a.spans) {
        if (s.end_s() >= a.spans[sink].end_s())
            sink = s.id;
    }
    std::vector<int> rev;
    int cur = sink;
    while (cur >= 0) {
        a.spans[cur].critical = true;
        rev.push_back(cur);
        const Span &s = a.spans[cur];
        double slack = kEdgeEps * (1.0 + s.start_s);
        int next = -1;
        for (int p : s.parents) {
            if (a.spans[p].end_s() > s.start_s + slack)
                continue; // finished after we started: not the gate
            if (next < 0 || a.spans[p].end_s() > a.spans[next].end_s() ||
                (a.spans[p].end_s() == a.spans[next].end_s() && p > next))
                next = p;
        }
        cur = next;
    }
    a.critical_path.assign(rev.rbegin(), rev.rend());
}

/** Book every non-pipeline span into its bucket total. */
void
sumBuckets(Attribution &a)
{
    for (const Span &s : a.spans) {
        switch (s.bucket) {
          case Bucket::ExposedCompute:
            a.exposed_compute_s += s.duration_s;
            break;
          case Bucket::ExposedComm:
            a.exposed_comm_s[s.tier < 0 ? 0 : s.tier] += s.duration_s;
            break;
          case Bucket::Bubble: a.bubble_s += s.duration_s; break;
          case Bucket::Overhead: a.overhead_s += s.duration_s; break;
          case Bucket::Pipeline: break; // concurrent, not additive
        }
    }
}

} // namespace

const char *
toString(Bucket b)
{
    switch (b) {
      case Bucket::ExposedCompute: return "exposed-compute";
      case Bucket::ExposedComm: return "exposed-comm";
      case Bucket::Bubble: return "bubble";
      case Bucket::Overhead: return "overhead";
      case Bucket::Pipeline: return "pipeline";
    }
    sim::panic("attrib: bad Bucket %d", static_cast<int>(b));
}

double
Attribution::exposedCommTotal() const
{
    double total = 0.0;
    for (double t : exposed_comm_s)
        total += t;
    return total;
}

double
Attribution::bucketTotal() const
{
    return exposed_compute_s + exposedCommTotal() + bubble_s +
           overhead_s;
}

Attribution
attributeRun(const wl::WorkloadSpec &spec,
             const train::TrainResult &result)
{
    const train::IterationBreakdown &it = result.iter;
    Attribution a;
    a.workload = result.workload;
    a.system = result.system;
    a.num_gpus = result.num_gpus;
    a.precision = result.precision;
    a.reference_code = result.reference_code;
    a.mode = spec.mode;
    a.fabric = result.fabric;
    a.iteration_s = it.iteration_s;

    int n = result.num_gpus;
    std::string gpu_lane =
        n > 1 ? "GPU[0.." + std::to_string(n) + ")" : "GPU";

    // --- Input pipeline (software-pipelined, concurrent sources).
    // Only training mode races it against the GPU chain; the loop
    // modes ignore the host pipeline, exactly as Trainer does. ---
    int host = -1, h2d = -1;
    if (spec.mode == wl::RunMode::Training) {
        if (it.host_s > 0.0) {
            host = addSpan(a, "host preprocess", "Host", 0.0,
                           it.host_s, Bucket::Pipeline, {});
        }
        if (it.h2d_s > 0.0) {
            h2d = addSpan(a, "input copy (H2D)", "H2D", 0.0, it.h2d_s,
                          Bucket::Pipeline, {});
        }
    }

    // --- The GPU chain ---
    double cursor = 0.0;
    int prev = -1;
    if (spec.mode == wl::RunMode::Training ||
        spec.mode == wl::RunMode::KernelLoop) {
        double sync = spec.mode == wl::RunMode::Training
                          ? spec.syncPenalty(n)
                          : 1.0;
        prev = addSpan(a, "forward", gpu_lane, cursor, it.fwd_s * sync,
                       Bucket::ExposedCompute, {}, -1, n);
        cursor += it.fwd_s * sync;
        prev = addSpan(a, "backward", gpu_lane, cursor, it.bwd_s * sync,
                       Bucket::ExposedCompute, {prev}, -1, n);
        cursor += it.bwd_s * sync;
        if (spec.mode == wl::RunMode::Training) {
            if (n > 1 && it.exposed_comm_s > 0.0) {
                prev = addTierCommSpans(a, it.comm_tier_bytes,
                                        it.exposed_comm_s, cursor, prev,
                                        "allreduce exposed", gpu_lane,
                                        n, &cursor);
            }
            prev = addSpan(a, "optimizer", gpu_lane, cursor,
                           it.optimizer_s * sync,
                           Bucket::ExposedCompute, {prev}, -1, n);
            cursor += it.optimizer_s * sync;
        }
    } else { // CollectiveLoop
        if (n > 1) {
            prev = addTierCommSpans(a, it.comm_tier_bytes,
                                    it.exposed_comm_s, cursor, prev,
                                    "allreduce", gpu_lane, n, &cursor);
        } else {
            prev = addSpan(a, "local reduction kernel", gpu_lane,
                           cursor, it.comm_s, Bucket::ExposedCompute,
                           {}, -1, 1);
            cursor += it.comm_s;
        }
    }
    prev = addSpan(a, "framework overhead", "Runtime", cursor,
                   it.overhead_s, Bucket::Overhead,
                   prev >= 0 ? std::vector<int>{prev}
                             : std::vector<int>{});
    cursor += it.overhead_s;
    double gpu_end = cursor;

    // --- Pipeline bubble: the GPU waits for the slowest input stage
    // (training mode only; the loop modes ignore the host pipeline,
    // exactly as Trainer does). ---
    double pp_end = gpu_end;
    if (spec.mode == wl::RunMode::Training) {
        pp_end = std::max({gpu_end, it.host_s, it.h2d_s});
        if (pp_end > gpu_end) {
            a.gated_by = it.host_s >= it.h2d_s ? "host" : "h2d";
            std::vector<int> parents{prev};
            if (host >= 0)
                parents.push_back(host);
            if (h2d >= 0)
                parents.push_back(h2d);
            prev = addSpan(a,
                           std::string("pipeline bubble (waiting on ") +
                               a.gated_by + ")",
                           "Runtime", gpu_end, pp_end - gpu_end,
                           Bucket::Bubble, std::move(parents));
        }
    }

    // --- Staged-fabric iteration penalty (host-staged transports
    // serialize extra CPU work into every step). ---
    if (spec.mode == wl::RunMode::Training && n > 1 &&
        result.fabric == net::CollectiveFabric::HostStaged) {
        double penalty = std::max(0.0, it.iteration_s - pp_end);
        prev = addSpan(a, "staged fabric penalty", "Runtime", pp_end,
                       penalty, Bucket::Overhead, {prev});
    }

    sumBuckets(a);
    extractCriticalPath(a);
    return a;
}

Attribution
attributeRun(const exec::RunRequest &request,
             const train::TrainResult &result)
{
    return attributeRun(request.workload, result);
}

std::vector<const Span *>
topContributors(const Attribution &a, std::size_t k)
{
    std::vector<const Span *> path;
    for (int id : a.critical_path)
        path.push_back(&a.spans[id]);
    std::stable_sort(path.begin(), path.end(),
                     [](const Span *x, const Span *y) {
                         return x->duration_s > y->duration_s;
                     });
    if (path.size() > k)
        path.resize(k);
    return path;
}

std::string
toJson(const Attribution &a)
{
    std::string out;
    out.reserve(2048);
    auto field = [&out](const char *key) {
        out += '"';
        out += key;
        out += "\":";
    };
    auto str = [&out](const std::string &v) {
        out += '"';
        out += sim::jsonEscape(v);
        out += '"';
    };
    auto num = [&out](double v) { out += sim::jsonDouble(v); };

    out += "{";
    field("schema");
    str("mlpsim-attribution-v1");
    out += ",";
    field("workload");
    str(a.workload);
    out += ",";
    field("system");
    str(a.system);
    out += ",";
    field("gpus");
    out += std::to_string(a.num_gpus);
    out += ",";
    field("precision");
    str(hw::toString(a.precision));
    out += ",";
    field("reference");
    out += a.reference_code ? "true" : "false";
    out += ",";
    field("mode");
    str(modeToken(a.mode));
    out += ",";
    field("fabric");
    str(net::toString(a.fabric));
    out += ",";
    field("gated_by");
    str(a.gated_by);
    out += ",";
    field("iteration_s");
    num(a.iteration_s);
    out += ",";
    field("bucket_total_s");
    num(a.bucketTotal());
    out += ",";

    field("buckets");
    out += "{";
    field("exposed_compute_s");
    num(a.exposed_compute_s);
    out += ",";
    field("exposed_comm");
    out += "{";
    for (int t = 0; t < net::kNumFabricTiers; ++t) {
        field((net::toString(static_cast<net::FabricTier>(t)) + "_s")
                  .c_str());
        num(a.exposed_comm_s[t]);
        out += ",";
    }
    field("total_s");
    num(a.exposedCommTotal());
    out += "},";
    field("bubble_s");
    num(a.bubble_s);
    out += ",";
    field("overhead_s");
    num(a.overhead_s);
    out += "},";

    field("critical_path");
    out += "[";
    bool first = true;
    for (int id : a.critical_path) {
        const Span &s = a.spans[id];
        if (!first)
            out += ",";
        first = false;
        out += "{";
        field("span");
        out += std::to_string(s.id);
        out += ",";
        field("name");
        str(s.name);
        out += ",";
        field("bucket");
        str(toString(s.bucket));
        out += ",";
        field("duration_s");
        num(s.duration_s);
        out += ",";
        field("share");
        num(a.iteration_s > 0.0 ? s.duration_s / a.iteration_s : 0.0);
        out += "}";
    }
    out += "],";

    field("spans");
    out += "[";
    first = true;
    for (const Span &s : a.spans) {
        if (!first)
            out += ",";
        first = false;
        out += "{";
        field("id");
        out += std::to_string(s.id);
        out += ",";
        field("name");
        str(s.name);
        out += ",";
        field("lane");
        str(s.lane);
        out += ",";
        field("start_s");
        num(s.start_s);
        out += ",";
        field("duration_s");
        num(s.duration_s);
        out += ",";
        field("bucket");
        str(toString(s.bucket));
        out += ",";
        if (s.tier >= 0) {
            field("tier");
            str(net::toString(static_cast<net::FabricTier>(s.tier)));
            out += ",";
        }
        field("replicas");
        out += std::to_string(s.replicas);
        out += ",";
        field("parents");
        out += "[";
        for (std::size_t i = 0; i < s.parents.size(); ++i) {
            if (i)
                out += ",";
            out += std::to_string(s.parents[i]);
        }
        out += "],";
        field("critical");
        out += s.critical ? "true" : "false";
        out += "}";
    }
    out += "]}";
    return out;
}

} // namespace mlps::obs::attrib
