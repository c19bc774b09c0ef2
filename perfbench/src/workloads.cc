#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>

#include "core/report.h"
#include "exec/engine.h"
#include "models/zoo.h"
#include "obs/attrib/attribution.h"
#include "obs/registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/json.h"
#include "sys/machines.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace mlps;

exec::ExecOptions
engineOptions(int jobs, const std::string &cache_dir)
{
    exec::ExecOptions eo(jobs);
    eo.cache_dir = cache_dir;
    return eo;
}

namespace {

/** SplitMix64: the benchmark's only source of randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n)
    {
        return static_cast<std::size_t>(next() % n);
    }
    template <class T> void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t s_;
};

/** "<c><n>": request and client ids. */
std::string
tag(char c, std::size_t n)
{
    std::string s(1, c);
    s += std::to_string(n);
    return s;
}

/** The deterministic EngineStats fields, as counters. */
void
engineCounters(Result &r, const std::string &prefix,
               const exec::EngineStats &s)
{
    r.counter(prefix + ".requests", s.requests);
    r.counter(prefix + ".unique_runs", s.unique_runs);
    r.counter(prefix + ".cache_hits", s.cache_hits);
    r.counter(prefix + ".journal_loaded", s.journal_loaded);
    r.counter(prefix + ".degraded", s.degraded);
}

bool
sameCounts(const exec::EngineStats &a, const exec::EngineStats &b)
{
    return a.requests == b.requests && a.unique_runs == b.unique_runs &&
           a.cache_hits == b.cache_hits &&
           a.journal_loaded == b.journal_loaded &&
           a.degraded == b.degraded;
}

/** The registry's deterministic rows, as counters. */
void
registryCounters(Result &r)
{
    for (const obs::MetricRow &row :
         obs::MetricRegistry::global().snapshot()) {
        if (row.volatility != obs::Volatility::Deterministic)
            continue;
        r.counters["registry." + row.name] =
            sim::jsonDouble(row.value) + "/" + std::to_string(row.events);
    }
}

/**
 * The exec/ work counters of a workload (traced runs): what its cold
 * pass simulated, and the lookups its warm pass served from the cache.
 */
void
engineLayerMetrics(Result &r, const exec::EngineStats &cold,
                   const exec::EngineStats &warm)
{
    r.metric("exec.sim_ms_sum", "ms", cold.sim_seconds * 1e3);
    r.metric("exec.unique_runs", "count",
             static_cast<double>(cold.unique_runs));
    r.metric("exec.cache_hits", "count", static_cast<double>(warm.cache_hits));
}

/** One set-up + cold + warm pass of a pass-based workload. */
struct PassSample {
    double setup_ms = 0.0;
    double cold_ms = 0.0;
    double warm_ms = 0.0;
    // Tracer clock windows of the two passes (traced runs only).
    double cold_from = 0.0, cold_to = 0.0;
    double warm_from = 0.0, warm_to = 0.0;
};

std::vector<PassSample>
runPasses(const std::function<PassSample()> &pass, double budget_ms,
          int min_passes)
{
    std::vector<PassSample> out;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(out.size()) < min_passes ||
           msSince(start) < budget_ms)
        out.push_back(pass());
    return out;
}

/**
 * Note each layer's self time in one phase (cold or warm), summed over
 * the phase's traced windows: per operation (pass or request) and as a
 * share. Notes, not metrics: a layer a workload never calls reads 0.
 */
void
noteSelfTime(Result &r, const std::string &phase,
             const std::vector<std::pair<double, double>> &windows,
             double ops)
{
    std::vector<double> total(kNumLayers, 0.0);
    for (const auto &[from, to] : windows) {
        std::vector<double> s = Tracer::get().selfTimeByLayer(from, to);
        for (int l = 0; l < kNumLayers; ++l)
            total[l] += s[l];
    }
    double sum = 0.0;
    for (double v : total)
        sum += v;
    std::string line = "self time per operation, " + phase + ":";
    for (int l = 0; l < kNumLayers; ++l) {
        char buf[80];
        std::snprintf(buf, sizeof(buf), " %s %.4f ms (%.1f%%)",
                      layerName(static_cast<Layer>(l)), total[l] / 1e3 / ops,
                      sum > 0.0 ? 100.0 * total[l] / sum : 0.0);
        line += buf;
    }
    r.note(line);
}

/** "hit p50 X ms, tail pR X ms (G per group, N samples)". */
std::string
describe(const char *what, const Summary &s)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s p50 %.4f ms, tail p%.2f %.4f ms (%zu per group, "
                  "%zu samples)",
                  what, s.p50, s.tail_rank, s.tail, s.group, s.n);
    return buf;
}

/**
 * Shared tail of the pass-based workloads: end-to-end metrics from
 * untraced passes, or self-time notes and the tracing slowdown from
 * traced ones. The first pass warms the process (allocator, lazy
 * statics, page cache, clock frequency) and is not measured. Every
 * pass starts with its own set-up, so the set-up median spans the run
 * as the pass medians do. `hit_ms` and `miss_ms` receive the same
 * number of samples in every pass.
 */
void
drivePasses(const Options &o, Result &r,
            const std::function<PassSample()> &pass,
            std::vector<double> &hit_ms, std::vector<double> &miss_ms)
{
    auto passMs = [](const std::vector<PassSample> &v) {
        std::vector<double> ms;
        for (const PassSample &s : v)
            ms.push_back(s.cold_ms + s.warm_ms);
        return ms;
    };
    pass();
    hit_ms.clear();
    miss_ms.clear();
    if (!o.trace) {
        const std::uint64_t attempted = r.attempted;
        std::vector<PassSample> v = runPasses(pass, o.seconds * 1e3, 3);
        std::vector<double> setup, cold, warm;
        double busy_ms = 0.0;
        for (const PassSample &s : v) {
            setup.push_back(s.setup_ms);
            cold.push_back(s.cold_ms);
            warm.push_back(s.warm_ms);
            busy_ms += s.cold_ms + s.warm_ms;
        }
        const Summary hit = summarize(hit_ms, v.size());
        const Summary miss = summarize(miss_ms, v.size());
        r.metric("setup_s", "s", median(setup) / 1e3);
        r.metric("cold_ms", "ms", median(cold));
        r.metric("warm_ms", "ms", median(warm));
        r.metric("hit_p50_ms", "ms", hit.p50);
        r.metric("hit_tail_ms", "ms", hit.tail);
        r.metric("miss_p50_ms", "ms", miss.p50);
        r.metric("miss_tail_ms", "ms", miss.tail);
        r.metric("throughput_rps", "1/s",
                 static_cast<double>(r.attempted - attempted) /
                     (busy_ms / 1e3));
        r.note("passes " + std::to_string(v.size()) + "; " +
               describe("hit", hit) + "; " + describe("miss", miss));
        return;
    }
    const double budget = o.seconds * 1e3 * 0.2;
    std::vector<PassSample> plain = runPasses(pass, budget, 2);
    Tracer::get().setEnabled(true);
    std::vector<PassSample> traced = runPasses(pass, budget, 2);
    Tracer::get().setEnabled(false);
    Tracer::get().collect();
    std::vector<std::pair<double, double>> cold, warm;
    for (const PassSample &s : traced) {
        cold.emplace_back(s.cold_from, s.cold_to);
        warm.emplace_back(s.warm_from, s.warm_to);
    }
    const double n = static_cast<double>(traced.size());
    noteSelfTime(r, "cold", cold, n);
    noteSelfTime(r, "warm", warm, n);
    r.metric("trace.slowdown", "ratio",
             median(passMs(traced)) / median(passMs(plain)));
}

} // namespace

// ---- report -----------------------------------------------------------

void
runReport(const Options &o, Result &r)
{
    const std::string dir = o.work_dir + "/report";
    std::string reference;
    exec::EngineStats ref_cold{}, ref_warm{};
    std::vector<double> hit_ms, miss_ms;
    std::vector<exec::RunRequest> points;
    Tracer &tracer = Tracer::get();

    auto pass = [&]() -> PassSample {
        PassSample s;
        // Set-up is what precedes the cold report: an engine on a fresh
        // journal directory (executor threads, journal file and lock).
        fs::remove_all(dir);
        std::optional<exec::Engine> cold;
        const Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope span(Layer::Exec, "exec.Engine(cold)");
            cold.emplace(engineOptions(o.jobs, dir));
        }
        s.setup_ms = msSince(t0);

        // The first pass records the report's unique points, for the
        // per-point warm hits below.
        std::mutex points_mu;
        if (points.empty())
            cold->setEvalHook([&](const exec::RunRequest &req, int) {
                std::lock_guard<std::mutex> lock(points_mu);
                points.push_back(req);
            });

        s.cold_from = tracer.nowUs();
        const Clock::time_point t1 = Clock::now();
        std::string cold_text;
        {
            Tracer::Scope span(Layer::Core, "core.generateStudyReport");
            cold_text = core::generateStudyReport({}, *cold);
        }
        s.cold_ms = msSince(t1);
        s.cold_to = tracer.nowUs();
        const exec::EngineStats cs = cold->stats();
        for (const auto &entry : cold->cache().entriesLruOrder())
            miss_ms.push_back(entry.second.wall_seconds * 1e3);
        cold.reset();

        s.warm_from = tracer.nowUs();
        const Clock::time_point t2 = Clock::now();
        std::optional<exec::Engine> warm;
        {
            Tracer::Scope span(Layer::Exec, "exec.Engine(replay)");
            warm.emplace(engineOptions(o.jobs, dir));
        }
        std::string warm_text;
        {
            Tracer::Scope span(Layer::Core, "core.generateStudyReport");
            warm_text = core::generateStudyReport({}, *warm);
        }
        s.warm_ms = msSince(t2);
        s.warm_to = tracer.nowUs();
        const exec::EngineStats ws = warm->stats();

        // A warm hit on each of the report's points.
        for (const exec::RunRequest &req : points) {
            const Clock::time_point th = Clock::now();
            const bool hit = warm->runOne(req).cache_hit;
            hit_ms.push_back(msSince(th));
            if (!hit)
                r.fail("report: warm journal lost a point");
        }

        r.attempted += cs.requests + ws.requests;
        r.failed += cs.degraded + ws.degraded;
        if (reference.empty()) {
            reference = cold_text;
            ref_cold = cs;
            ref_warm = ws;
            engineCounters(r, "report.cold", cs);
            engineCounters(r, "report.warm", ws);
            registryCounters(r);
            Digest d;
            d.add(reference);
            r.counters["digest"] = d.hex();
        }
        if (cold_text != reference)
            r.fail("report: cold bytes differ from the first pass");
        if (warm_text != reference)
            r.fail("report: warm bytes differ from the cold pass");
        if (!sameCounts(cs, ref_cold))
            r.fail("report: cold engine counters differ between passes");
        if (ws.unique_runs != 0 || ws.journal_loaded != cs.unique_runs)
            r.fail("report: warm pass simulated or missed the journal");
        return s;
    };

    drivePasses(o, r, pass, hit_ms, miss_ms);
    if (o.trace)
        engineLayerMetrics(r, ref_cold, ref_warm);

    // Oracle: the same report on one worker, no journal.
    exec::Engine serial(engineOptions(1));
    const std::string serial_text = core::generateStudyReport({}, serial);
    const exec::EngineStats ss = serial.stats();
    r.attempted += ss.requests;
    r.failed += ss.degraded;
    if (serial_text != reference)
        r.fail("report: --jobs 1 bytes differ from --jobs nproc");
    if (ss.requests != ref_cold.requests ||
        ss.unique_runs != ref_cold.unique_runs ||
        ss.cache_hits != ref_cold.cache_hits)
        r.fail("report: --jobs 1 engine counters differ");
    fs::remove_all(dir);
}

// ---- pod_explain ------------------------------------------------------

namespace {

struct ExplainPoint {
    std::string label;
    exec::RunRequest request;
};

/**
 * The seeded what-if set: every MLPerf workload once at 64 and 128
 * GPUs, three times at 256 and twice at 512, on pods of the
 * pod-grammar boxes.
 * The box, the rack layout, the fabric (healthy, spine degraded, one
 * ToR degraded) and the degradation factor of a point are fixed by its
 * position, because they set what the point costs to price: every seed
 * prices the same mix of boxes and of uniform and non-uniform pods.
 * The seed draws the degraded rack and the order of the points, so
 * the what-if points change while the work stays the same.
 */
std::vector<ExplainPoint>
podPoints(std::uint64_t seed)
{
    static const std::pair<const char *, int> kBoxes[] = {
        {"C4140 (K)", 4}, {"C4140 (M)", 4}, {"C4140 (B)", 4},
        {"T640", 4},      {"R940xa", 4},    {"DSS 8440", 8}};
    // Rack layouts (racks x nodes) by host count.
    static const std::map<int, std::vector<std::pair<int, int>>> kShapes = {
        {8, {{2, 4}, {4, 2}}},  {16, {{4, 4}, {2, 8}}},
        {32, {{4, 8}, {8, 4}}}, {64, {{8, 8}, {16, 4}}},
        {128, {{16, 8}}}};
    static const double kScales[] = {0.25, 0.5, 0.75};
    enum Fabric { Healthy, Spine, Tor };

    Rng rng(seed);
    std::map<std::string, sys::SystemConfig> built;
    std::vector<ExplainPoint> points;
    const std::vector<wl::WorkloadSpec> suite = models::mlperfSuite();
    const int sizes[] = {64, 128, 256, 512};
    for (std::size_t gi = 0; gi < std::size(sizes); ++gi) {
        const int g = sizes[gi];
        for (std::size_t w = 0; w < suite.size(); ++w) {
            // Cost grows with the GPU count, one cluster per size. As
            // many points below the 256-GPU class as above it put the
            // p50 in the middle of that class, not near a gap.
            const std::size_t variants = g == 256 ? 3 : g == 512 ? 2 : 1;
            for (std::size_t v = 0; v < variants; ++v) {
                const auto &[box, box_gpus] =
                    kBoxes[(w + 2 * gi + 3 * v) % std::size(kBoxes)];
                const auto fabric =
                    static_cast<Fabric>((2 * w + gi + 2 * v) % 3);
                const auto &layouts = kShapes.at(g / box_gpus);
                const auto [racks, nodes] = layouts[(w + v) % layouts.size()];
                const double scale = kScales[(w + gi + v) % std::size(kScales)];
                const int rack = static_cast<int>(
                    rng.below(static_cast<std::size_t>(racks)));

                const std::string spec =
                    std::string("pod(") + box + "," +
                    std::to_string(racks) + "x" + std::to_string(nodes) +
                    ")";
                std::string key = spec;
                if (fabric != Healthy)
                    key += (fabric == Spine ? " spine x"
                                            : " tor" + std::to_string(rack) +
                                                  " x") +
                           sim::jsonDouble(scale);
                auto it = built.find(key);
                if (it == built.end()) {
                    sys::SystemConfig system;
                    std::string error;
                    if (!sys::systemFromSpec(spec, &system, &error))
                        throw std::runtime_error(error);
                    if (fabric == Spine)
                        system = sys::withSpineDegraded(system, scale);
                    else if (fabric == Tor)
                        system = sys::withTorDegraded(system, rack, scale);
                    it = built.emplace(key, std::move(system)).first;
                }
                ExplainPoint p;
                p.label = suite[w].abbrev + " on " + key + " at " +
                          std::to_string(g);
                p.request.system = it->second;
                p.request.workload = suite[w];
                p.request.options.num_gpus = g;
                points.push_back(std::move(p));
            }
        }
    }
    rng.shuffle(points);
    return points;
}

} // namespace

void
runPodExplain(const Options &o, Result &r)
{
    std::vector<ExplainPoint> points;
    std::vector<std::string> reference;
    exec::EngineStats ref_cold{}, ref_warm{};
    std::vector<double> hit_ms, miss_ms;
    Tracer &tracer = Tracer::get();

    auto pass = [&]() -> PassSample {
        PassSample s;
        std::vector<std::string> cold_json, warm_json;
        // Set-up builds the pods and the requests. Built anew in every
        // pass, their topologies start with empty route caches, as in
        // a new `mlpsim explain` process.
        const Clock::time_point t0 = Clock::now();
        points = podPoints(o.seed);
        std::vector<exec::RunRequest> requests;
        for (ExplainPoint &p : points)
            requests.push_back(std::move(p.request));
        s.setup_ms = msSince(t0);

        s.cold_from = tracer.nowUs();
        const Clock::time_point t1 = Clock::now();
        std::optional<exec::Engine> engine;
        {
            Tracer::Scope span(Layer::Exec, "exec.Engine(cold)");
            engine.emplace(engineOptions(o.jobs));
        }
        std::vector<exec::RunResult> results;
        {
            Tracer::Scope span(Layer::Exec, "exec.Engine::run");
            results = engine->run(requests);
        }
        std::vector<double> attrib_ms;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const Clock::time_point ta = Clock::now();
            Tracer::Scope span(Layer::Attrib, "attrib.explain", i + 1);
            cold_json.push_back(obs::attrib::toJson(
                obs::attrib::attributeRun(requests[i], results[i].train)));
            attrib_ms.push_back(msSince(ta));
        }
        s.cold_ms = msSince(t1);
        s.cold_to = tracer.nowUs();
        const exec::EngineStats cs = engine->stats();
        for (std::size_t i = 0; i < results.size(); ++i) {
            miss_ms.push_back(results[i].wall_seconds * 1e3 + attrib_ms[i]);
            if (!results[i].ok())
                r.fail("pod_explain: " + points[i].label + " failed");
        }

        s.warm_from = tracer.nowUs();
        const Clock::time_point t2 = Clock::now();
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const Clock::time_point th = Clock::now();
            Tracer::Scope span(Layer::Bench, "explain(warm)", i + 1);
            exec::RunResult hit;
            {
                Tracer::Scope run(Layer::Exec, "exec.Engine::runOne", i + 1);
                hit = engine->runOne(requests[i]);
            }
            {
                Tracer::Scope attr(Layer::Attrib, "attrib.explain", i + 1);
                warm_json.push_back(obs::attrib::toJson(
                    obs::attrib::attributeRun(requests[i], hit.train)));
            }
            hit_ms.push_back(msSince(th));
            if (!hit.ok() || !hit.cache_hit)
                r.fail("pod_explain: warm " + points[i].label +
                       " was not a cache hit");
        }
        s.warm_ms = msSince(t2);
        s.warm_to = tracer.nowUs();
        const exec::EngineStats ws = engine->stats();

        r.attempted += 2 * requests.size();
        if (reference.empty()) {
            reference = cold_json;
            ref_cold = cs;
            ref_warm = ws;
            engineCounters(r, "pod_explain.cold", cs);
            engineCounters(r, "pod_explain.warm", ws);
            registryCounters(r);
            Digest d;
            for (const std::string &j : reference)
                d.add(j);
            r.counters["digest"] = d.hex();
        }
        if (cold_json != reference)
            r.fail("pod_explain: cold attribution differs between passes");
        if (warm_json != cold_json)
            r.fail("pod_explain: warm attribution differs from cold");
        if (!sameCounts(cs, ref_cold) || cs.unique_runs != requests.size())
            r.fail("pod_explain: cold engine counters are off");
        return s;
    };

    drivePasses(o, r, pass, hit_ms, miss_ms);
    if (o.trace)
        engineLayerMetrics(r, ref_cold, ref_warm);
    r.note("pod_explain points: " + std::to_string(points.size()));
}

// ---- serve/ layer stream ------------------------------------------------

namespace {

/** One request of the stream. */
struct StreamItem {
    enum Kind { Hit, Miss, Pod, Stats, Metrics };
    Kind kind = Hit;
    int point = -1;   ///< index into ServeMix::points_ for runs
};

/**
 * Seeded serve/ traffic and its service. Box points come from the
 * whole catalog (every workload x machine x GPU count x precision x
 * reference flag); one seeded hot point per (workload, machine) and a
 * few small-pod points are journaled during set-up, the rest are
 * cold. Requests go out at a fixed rate, round-robin over the clients.
 */
class ServeMix
{
  public:
    // Mix per 1000 requests; the rest are hot-set hits. A metrics verb
    // holds the loop for a while, so verbs stay rare.
    static constexpr int kMissPerMille = 60;
    static constexpr int kPodPerMille = 40;
    static constexpr int kVerbPerMille = 2;
    /** Open-loop rate over all clients, requests per second. */
    static constexpr double kRate = 2000.0;

    ServeMix(const Options &o, Result &r) : o_(o), r_(r), rng_(o.seed)
    {
        clients_ = std::max(1, o.jobs);
        buildPoints();
    }

    /** Fill the journal and bring up a ServeCore on it. */
    void setUp();

    /** Open-loop phase: `n` requests at kRate. */
    void openLoop(std::size_t n);

    /** Closed loop over the hot set for `ms`. @return answers. */
    std::uint64_t closedLoop(double ms);

    /** Compare every answered run with a direct Engine::runOne. */
    void verify();

    /** Open loop: send lag behind the due time, and admission wait. */
    std::vector<double> lag_ms, queue_ms;
    bool backlog_growing = false;
    std::unique_ptr<serve::ServeCore> core;

  private:
    void buildPoints();
    std::string line(const std::string &id, const StreamItem &it) const;
    void onEmit(const std::string &line);
    void dispatch();

    const Options &o_;
    Result &r_;
    Rng rng_;
    int clients_ = 1;
    std::vector<std::string> points_;  ///< request bodies, no id
    std::vector<int> hot_, pods_, cold_;
    std::vector<StreamItem> stream_;
    std::size_t next_cold_ = 0;

    // Per-phase response bookkeeping, filled by the emit sink.
    Clock::time_point t0_{};
    std::vector<double> admitted_ms_;
    std::vector<StreamItem> closed_items_;
    std::vector<int> closed_client_;
    std::vector<char> client_busy_;
    std::map<std::string, std::string> answers_; ///< id -> line
    /** Closed loop: point -> (first id, its line past the id). */
    std::map<int, std::pair<std::string, std::string>> closed_first_;
    std::uint64_t closed_mismatch_ = 0;
    bool in_dispatch_ = false;
    double batch_start_ms_ = 0.0;
    std::uint64_t closed_answered_ = 0;
};

void
ServeMix::buildPoints()
{
    static const std::pair<const char *, int> kMachines[] = {
        {"T640", 4},   {"C4140 (B)", 4}, {"C4140 (K)", 4},
        {"C4140 (M)", 4}, {"R940xa", 4},  {"DSS 8440", 8},
        {"reference", 1}};
    // One group per (workload, machine): what a hit costs depends
    // mostly on those two (fingerprint size), so every seed hits and
    // misses each group equally often. The seed draws the GPU count,
    // precision and reference flag inside a group.
    std::vector<std::vector<int>> groups;
    for (const wl::WorkloadSpec &w : models::allWorkloads())
        for (const auto &[machine, max_gpus] : kMachines) {
            std::vector<int> group;
            for (int g = 1; g <= max_gpus; g *= 2)
                for (const char *prec : {"fp32", "fp16", "mixed"})
                    for (const char *ref : {"false", "true"}) {
                        group.push_back(static_cast<int>(points_.size()));
                        points_.push_back(
                            "\"workload\":\"" + w.abbrev +
                            "\",\"system\":\"" + machine +
                            "\",\"gpus\":" + std::to_string(g) +
                            ",\"precision\":\"" + prec +
                            "\",\"reference\":" + ref);
                    }
            rng_.shuffle(group);
            groups.push_back(std::move(group));
        }
    rng_.shuffle(groups);
    // The first point of each group is hot; the others are cold, taken
    // round-robin over the groups until each runs out.
    for (const std::vector<int> &group : groups)
        hot_.push_back(group.front());
    for (std::size_t k = 1; cold_.size() < points_.size() - hot_.size(); ++k)
        for (const std::vector<int> &group : groups)
            if (k < group.size())
                cold_.push_back(group[k]);

    static const char *kPods[] = {
        "\"workload\":\"MLPf_Res50_MX\",\"system\":\"pod(C4140 (M),2x2)\","
        "\"gpus\":16",
        "\"workload\":\"MLPf_XFMR_Py\",\"system\":\"pod(DSS 8440,2x2)\","
        "\"gpus\":32",
        "\"workload\":\"MLPf_GNMT_Py\",\"system\":\"pod(T640,2x4)\","
        "\"gpus\":32",
        "\"workload\":\"MLPf_SSD_Py\",\"system\":\"pod(C4140 (K),2x2)\","
        "\"gpus\":8"};
    for (const char *p : kPods) {
        pods_.push_back(static_cast<int>(points_.size()));
        points_.push_back(p);
    }
}

std::string
ServeMix::line(const std::string &id, const StreamItem &it) const
{
    switch (it.kind) {
    case StreamItem::Stats:
        return "{\"type\":\"stats\",\"id\":\"" + id + "\"}";
    case StreamItem::Metrics:
        return "{\"type\":\"metrics\",\"id\":\"" + id + "\"}";
    default:
        return "{\"type\":\"run\",\"id\":\"" + id + "\"," +
               points_[static_cast<std::size_t>(it.point)] + "}";
    }
}

void
ServeMix::setUp()
{
    const std::string dir = o_.work_dir + "/serve";
    fs::remove_all(dir);
    {
        serve::Catalog catalog;
        std::vector<exec::RunRequest> fill;
        for (const std::vector<int> *set : {&hot_, &pods_})
            for (int p : *set) {
                serve::ParsedRequest req;
                std::string error;
                if (!serve::parseRequest(line("f", {StreamItem::Hit, p}),
                                         catalog, &req, &error))
                    throw std::runtime_error("serve: " + error);
                fill.push_back(std::move(req.run));
            }
        exec::Engine engine(engineOptions(o_.jobs, dir));
        for (const exec::RunResult &res : engine.run(std::move(fill)))
            if (!res.ok())
                r_.fail("serve: journal fill failed");
    }
    serve::ServeConfig cfg;
    // One worker: at this rate a dispatch batch holds about one point,
    // and a pool would wake (and wait for) every worker per miss, which
    // makes miss latency follow host scheduling noise.
    cfg.exec = engineOptions(1, dir);
    // No per-client rate limit: the closed loop sends as fast as the
    // service answers. The open loop must stay below saturation, so a
    // full queue (an "overloaded" refusal) fails the run.
    cfg.admission.rate = 1e9;
    cfg.admission.burst = 1e9;
    core = std::make_unique<serve::ServeCore>(
        cfg, [this](const std::string &, const std::string &l) {
            onEmit(l);
        });
    for (int c = 0; c < clients_; ++c)
        core->clientConnected(tag('c', static_cast<std::size_t>(c)));
}

void
ServeMix::onEmit(const std::string &l)
{
    const std::size_t at = l.find("\"id\":\"");
    if (at == std::string::npos)
        return; // hello
    const std::size_t end = l.find('"', at + 6);
    const std::string id = l.substr(at + 6, end - at - 6);
    const std::size_t idx = std::stoul(id.substr(1));
    if (id[0] == 'o') {
        answers_[id] = l;
        if (in_dispatch_)
            queue_ms.push_back(batch_start_ms_ - admitted_ms_[idx]);
        return;
    }
    client_busy_[static_cast<std::size_t>(closed_client_[idx])] = 0;
    ++closed_answered_;
    // Keep one answer per point for verify(); every other answer to
    // that point must match it byte for byte past the id.
    const std::string rest = l.substr(end);
    auto [first, fresh] =
        closed_first_.try_emplace(closed_items_[idx].point, id, rest);
    if (fresh)
        answers_[id] = l;
    else if (first->second.second != rest)
        ++closed_mismatch_;
}

void
ServeMix::dispatch()
{
    in_dispatch_ = true;
    batch_start_ms_ = msSince(t0_);
    {
        Tracer::Scope span(Layer::Serve, "serve.dispatchBatch");
        core->dispatchBatch();
    }
    in_dispatch_ = false;
}

void
ServeMix::openLoop(std::size_t n)
{
    // Exact per-kind counts, seeded order.
    stream_.clear();
    const std::size_t misses =
        std::min(n * kMissPerMille / 1000, cold_.size() - next_cold_);
    const std::size_t pods = n * kPodPerMille / 1000;
    const std::size_t verbs = n * kVerbPerMille / 1000;
    for (std::size_t i = 0; i < n; ++i) {
        StreamItem it;
        if (i < misses) {
            it.kind = StreamItem::Miss;
            it.point = cold_[next_cold_++];
        } else if (i < misses + pods) {
            it.kind = StreamItem::Pod;
            it.point = pods_[i % pods_.size()];
        } else if (i < misses + pods + verbs) {
            it.kind = i % 2 ? StreamItem::Stats : StreamItem::Metrics;
        } else {
            it.kind = StreamItem::Hit;
            it.point = hot_[i % hot_.size()];
        }
        stream_.push_back(it);
    }
    rng_.shuffle(stream_);

    admitted_ms_.assign(n, 0.0);
    lag_ms.reserve(n);
    queue_ms.reserve(n);
    std::vector<std::size_t> backlog; // pending runs before each dispatch
    const double period_ms = 1e3 / kRate;
    t0_ = Clock::now();
    std::size_t i = 0;
    while (i < n || core->hasPending()) {
        const double now_ms = msSince(t0_);
        bool sent = false;
        while (i < n && static_cast<double>(i) * period_ms <= now_ms) {
            const double send_ms = msSince(t0_);
            lag_ms.push_back(send_ms - static_cast<double>(i) * period_ms);
            const std::string client =
                tag('c', i % static_cast<std::size_t>(clients_));
            {
                Tracer::Scope span(Layer::Serve, "serve.handleLine", i + 1);
                core->handleLine(client, line(tag('o', i), stream_[i]),
                                 send_ms / 1e3);
            }
            admitted_ms_[i] = msSince(t0_);
            ++i;
            sent = true;
        }
        if (core->hasPending()) {
            backlog.push_back(core->admission().pending());
            dispatch();
            continue;
        }
        if (sent || i >= n)
            continue;
        // Spin until the next request is due: sleeping would let the
        // core go cold and add wake-up noise to every latency.
        const double due = static_cast<double>(i) * period_ms;
        while (msSince(t0_) < due) {
        }
    }

    // A backlog that is higher in the last quarter of the run than in
    // the first means the offered rate is at or past saturation.
    if (backlog.size() >= 8) {
        const std::size_t q = backlog.size() / 4;
        double first = 0.0, last = 0.0;
        for (std::size_t k = 0; k < q; ++k) {
            first += static_cast<double>(backlog[k]);
            last += static_cast<double>(backlog[backlog.size() - 1 - k]);
        }
        backlog_growing = last / q > first / q + 1.0;
    }
}

std::uint64_t
ServeMix::closedLoop(double ms)
{
    client_busy_.assign(static_cast<std::size_t>(clients_), 0);
    closed_items_.clear();
    closed_client_.clear();
    closed_first_.clear();
    closed_answered_ = 0;
    const Clock::time_point start = Clock::now();
    t0_ = start;
    while (msSince(start) < ms) {
        for (int c = 0; c < clients_; ++c) {
            if (client_busy_[static_cast<std::size_t>(c)])
                continue;
            const std::size_t j = closed_items_.size();
            closed_items_.push_back(
                {StreamItem::Hit, hot_[j % hot_.size()]});
            closed_client_.push_back(c);
            client_busy_[static_cast<std::size_t>(c)] = 1;
            Tracer::Scope span(Layer::Serve, "serve.handleLine", j + 1);
            core->handleLine(tag('c', static_cast<std::size_t>(c)),
                             line(tag('c', j), closed_items_.back()),
                             msSince(start) / 1e3);
        }
        dispatch();
    }
    while (core->hasPending())
        dispatch();
    return closed_answered_;
}

void
ServeMix::verify()
{
    exec::Engine oracle(engineOptions(o_.jobs));
    serve::Catalog catalog;
    std::map<int, std::string> expected;
    auto check = [&](const std::string &id, const StreamItem &it) {
        ++r_.attempted;
        auto a = answers_.find(id);
        if (a == answers_.end()) {
            r_.fail("serve: " + id + " was never answered");
            return;
        }
        serve::Response resp;
        std::string error;
        if (!serve::decodeResponse(a->second, &resp, &error)) {
            r_.fail("serve: undecodable response to " + id);
            return;
        }
        if (it.kind == StreamItem::Stats || it.kind == StreamItem::Metrics) {
            if (resp.type != (it.kind == StreamItem::Stats ? "stats"
                                                           : "metrics"))
                r_.fail("serve: bad verb response to " + id);
            return;
        }
        if (resp.status != "ok") {
            r_.fail("serve: " + id + " answered " + resp.status);
            return;
        }
        auto e = expected.find(it.point);
        if (e == expected.end()) {
            serve::ParsedRequest req;
            if (!serve::parseRequest(line(id, it), catalog, &req, &error))
                throw std::runtime_error("serve: " + error);
            e = expected
                    .emplace(it.point, serve::canonicalResultLine(
                                           oracle.runOne(req.run).train))
                    .first;
        }
        if (serve::canonicalResultLine(resp.train) != e->second)
            r_.fail("serve: " + id + " differs from Engine::runOne");
    };
    Digest d;
    for (std::size_t i = 0; i < stream_.size(); ++i) {
        const std::string id = tag('o', i);
        check(id, stream_[i]);
        if (stream_[i].point >= 0 && expected.count(stream_[i].point))
            d.add(expected[stream_[i].point]);
    }
    for (const auto &[point, first] : closed_first_)
        check(first.first, {StreamItem::Hit, point});
    r_.attempted += closed_items_.size() - closed_first_.size();
    if (closed_mismatch_)
        r_.fail("serve: closed-loop answers to one point differ");
    r_.counters["serve.digest"] = d.hex();
    answers_.clear();
    closed_first_.clear();
}

} // namespace

void
runServeLayer(const Options &o, Result &r)
{
    ServeMix mix(o, r);
    mix.setUp();
    mix.openLoop(static_cast<std::size_t>(ServeMix::kRate * 1.5));
    const std::string stats = mix.core->statsJson();
    // The service's work counters; its latency block is host time.
    r.counters["serve.stats"] = stats.substr(0, stats.find(",\"latency_ms\""));
    const std::size_t at = stats.find("\"p50\":");
    r.metric("serve.server_p50_ms", "ms",
             at == std::string::npos ? 0.0
                                     : std::atof(stats.c_str() + at + 6));
    r.metric("serve.queue_wait_p50_ms", "ms", median(mix.queue_ms));
    const Summary lag = summarize(mix.lag_ms, 5);
    r.metric("loadgen.lag_tail_ms", "ms", lag.tail);
    r.note(describe("serve/ stream loadgen lag", lag) + "; backlog " +
           (mix.backlog_growing ? "growing" : "steady"));
    if (mix.backlog_growing)
        r.note("WARNING: admission backlog grew over the serve/ open loop");

    // Self time of warm hits: a traced closed loop.
    Tracer &tracer = Tracer::get();
    const double from = tracer.nowUs();
    tracer.setEnabled(true);
    const std::uint64_t answered = mix.closedLoop(300.0);
    tracer.setEnabled(false);
    const double to = tracer.nowUs();
    tracer.collect();
    noteSelfTime(r, "serve/ hits", {{from, to}},
                 static_cast<double>(answered));

    const std::string after = mix.core->statsJson();
    if (after.find("\"rejected_rate\":0,") == std::string::npos ||
        after.find("\"rejected_full\":0,") == std::string::npos)
        r.fail("serve: requests refused as overloaded");
    mix.verify();
}

} // namespace perfbench
