#include "exec/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>

#include "obs/span.h"
#include "train/trainer.h"

namespace mlps::exec {

namespace {

/** Simulate one point. The only place Trainer::run is invoked from. */
RunResult
evaluate(const RunRequest &req)
{
    auto t0 = std::chrono::steady_clock::now();
    RunResult r;
    train::Trainer trainer(req.system);
    r.train = trainer.run(req.workload, req.options,
                          req.profiled ? &r.profile : nullptr);
    r.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return r;
}

/** "<prefix><n>", formatted only while the harness trace collects. */
std::string
countedSpanName(const char *prefix, std::size_t n)
{
    if (!obs::SelfTracer::global().enabled())
        return {};
    return prefix + std::to_string(n);
}

/** One evaluated (or failed) unique point, pre-publish. */
struct JobOutcome {
    RunResult result;
    std::shared_ptr<RunError> error; ///< null on success
    std::exception_ptr raw;          ///< for ErrorPolicy::Throw fidelity
    double backoff_s = 0.0; ///< simulated backoff spent on retries
};

/**
 * Evaluate one point under supervision: retry transients with
 * deterministic simulated backoff, capture deadline overruns, condense
 * an unrecovered failure into a RunError-bearing placeholder whose
 * train result carries the request identity (so degraded report rows
 * still name their point) and NaN totals.
 */
JobOutcome
supervised(const RunRequest &req, const Fingerprint &key,
           const ExecOptions &opts,
           const std::function<void(const RunRequest &, int)> &hook)
{
    JobOutcome o;
    // Formatting the span name costs a few allocations, so skip it
    // entirely unless the harness trace is actually collecting.
    std::string span_name;
    if (obs::SelfTracer::global().enabled())
        span_name = "evaluate " + req.workload.abbrev + "/" +
                    req.system.name + "/g" +
                    std::to_string(req.options.num_gpus);
    obs::Span span("exec.engine.evaluate", std::move(span_name));
    const int max_attempts = std::max(1, opts.retry.max_attempts);
    double backoff = 0.0;
    for (int attempt = 1;; ++attempt) {
        try {
            if (hook)
                hook(req, attempt);
            o.result = evaluate(req);
            o.result.attempts = attempt;
            o.backoff_s = backoff;
            if (opts.run_deadline_s > 0.0 &&
                o.result.wall_seconds > opts.run_deadline_s) {
                // The caller asked for a bounded answer: the slow
                // result becomes a structured error for this request
                // only — never cached, never journaled.
                o.result.deadline_flagged = true;
                auto err = std::make_shared<RunError>();
                err->key = key;
                err->workload = req.workload.abbrev;
                err->system = req.system.name;
                err->num_gpus = req.options.num_gpus;
                err->reason = "deadline";
                char what[128];
                std::snprintf(what, sizeof(what),
                              "run took %.3f s, past the %.3f s deadline",
                              o.result.wall_seconds, opts.run_deadline_s);
                err->what = what;
                err->attempts = attempt;
                err->backoff_s = backoff;
                o.result.error = err;
                // Under ErrorPolicy::Throw the publish phase rethrows
                // o.raw, so give it a real exception.
                o.raw = std::make_exception_ptr(
                    std::runtime_error(err->what));
                o.error = std::move(err);
            }
            return o;
        } catch (...) {
            FailureClass fc = classifyFailure(std::current_exception());
            if (fc.transient && attempt < max_attempts) {
                backoff += backoffSeconds(opts.retry, attempt);
                continue;
            }
            o.raw = std::current_exception();
            auto err = std::make_shared<RunError>();
            err->key = key;
            err->workload = req.workload.abbrev;
            err->system = req.system.name;
            err->num_gpus = req.options.num_gpus;
            err->reason = std::move(fc.reason);
            err->what = std::move(fc.what);
            err->attempts = attempt;
            err->backoff_s = backoff;
            o.backoff_s = backoff;
            err->transient = fc.transient;

            o.result = RunResult{};
            o.result.attempts = attempt;
            o.result.train.workload = req.workload.abbrev;
            o.result.train.system = req.system.name;
            o.result.train.num_gpus = req.options.num_gpus;
            o.result.train.precision = req.options.precision;
            o.result.train.reference_code = req.options.reference_code;
            o.result.train.total_seconds =
                std::numeric_limits<double>::quiet_NaN();
            o.result.error = err;
            o.error = std::move(err);
            return o;
        }
    }
}

} // namespace

Engine::Engine(ExecOptions opts)
    : opts_(std::move(opts)), executor_(opts_)
{
    // Bound the cache before the replay: preloading a journal larger
    // than the budget then keeps only the most recently appended
    // entries instead of transiently holding the whole file.
    cache_.setBudget(
        {opts_.cache_max_entries, opts_.cache_max_bytes});
    if (!opts_.cache_dir.empty()) {
        obs::Span span("exec.engine", "journal_replay");
        journal_ = std::make_unique<Journal>(opts_.cache_dir);
        journal_->load([this](const Fingerprint &key, RunResult &&r) {
            r.from_journal = true;
            cache_.preload(key, std::move(r));
        });
    }

    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    registrations_.push_back(
        reg.registerCounter("exec.engine.requests", &requests_));
    registrations_.push_back(
        reg.registerCounter("exec.engine.retries", &retries_));
    registrations_.push_back(
        reg.registerCounter("exec.engine.backoff_seconds", &backoff_));
    registrations_.push_back(reg.registerCounter(
        "exec.engine.deadline_flags", &deadline_flags_));
    registrations_.push_back(reg.registerGauge(
        "exec.engine.degraded_runs",
        [this] { return static_cast<double>(degraded_.size()); }));
    // Wall time varies with the host and the worker count.
    registrations_.push_back(
        reg.registerSampler("exec.engine.run_wall_seconds", &run_wall_,
                            obs::Volatility::Volatile));
    if (journal_)
        registrations_.push_back(reg.registerGauge(
            "exec.journal.write_errors", [this] {
                return static_cast<double>(journal_->writeErrors());
            }));
}

std::vector<RunResult>
Engine::run(std::vector<RunRequest> requests)
{
    return run(std::move(requests), ResultSink());
}

std::vector<RunResult>
Engine::run(std::vector<RunRequest> requests,
            const ResultSink &on_ready)
{
    std::vector<const RunRequest *> batch;
    batch.reserve(requests.size());
    for (const RunRequest &r : requests)
        batch.push_back(&r);
    return runBatch(batch, on_ready);
}

RunResult
Engine::runOne(const RunRequest &request)
{
    const RunRequest *const one = &request;
    return std::move(runBatch({&one, 1}, ResultSink())[0]);
}

std::vector<RunResult>
Engine::runBatch(std::span<const RunRequest *const> requests,
                 const ResultSink &on_ready)
{
    obs::Span batch_span("exec.engine",
                         countedSpanName("batch n=", requests.size()));
    requests_.add(static_cast<double>(requests.size()));
    std::vector<RunResult> out(requests.size());

    // Dedupe pass (serial, deterministic): a request is either served
    // from the cache, aliased to an earlier in-batch duplicate, or
    // becomes a unique job.
    constexpr std::size_t kFromCache = static_cast<std::size_t>(-1);
    std::unordered_map<Fingerprint, std::size_t, FingerprintHash> job_of;
    std::vector<std::size_t> job_req; ///< job -> first request index
    std::vector<Fingerprint> job_key;
    std::vector<std::size_t> source(requests.size(), kFromCache);
    {
        obs::Span span("exec.engine", "dedupe");
        for (std::size_t i = 0; i < requests.size(); ++i) {
            Fingerprint key = requests[i]->key();
            request_digest_.mix(key);
            if (auto cached = cache_.lookup(key)) {
                out[i] = std::move(*cached);
                if (on_ready) // hits stream before any simulation
                    on_ready(i, out[i]);
                continue;
            }
            auto it = job_of.find(key);
            if (it != job_of.end()) {
                source[i] = it->second;
                cache_.noteSharedHit();
                continue;
            }
            std::size_t job = job_req.size();
            job_of.emplace(key, job);
            job_req.push_back(i);
            job_key.push_back(key);
            source[i] = job;
        }
    }

    // Evaluate the unique points in parallel under supervision; each
    // job writes only its own slot, and failures stay inside their
    // outcome instead of tearing the batch down.
    std::vector<JobOutcome> job_out(job_req.size());
    {
        obs::Span span("exec.engine",
                       countedSpanName("execute jobs=", job_req.size()));
        executor_.forEach(job_req.size(), [&](std::size_t j) {
            job_out[j] = supervised(*requests[job_req[j]], job_key[j],
                                    opts_, eval_hook_);
        });
    }

    // Publish (serial, submission order): fill the cache and journal,
    // account wall times and retries, log captured failures.
    obs::Span publish_span("exec.engine", "publish");
    std::exception_ptr first_error;
    for (std::size_t j = 0; j < job_out.size(); ++j) {
        JobOutcome &o = job_out[j];
        // A run counts once it is evaluated, published or not: a
        // deadline overrun simulated the point as fully as a success.
        if (!o.error || o.result.deadline_flagged)
            run_wall_.record(o.result.wall_seconds);
        // Count only real retries: cold and warm runs must tally alike.
        if (o.result.attempts > 1) {
            retries_.add(static_cast<double>(o.result.attempts - 1));
            backoff_.add(o.backoff_s);
        }
        if (o.error) {
            if (o.result.deadline_flagged)
                deadline_flags_.add(1.0);
            if (opts_.on_error == ErrorPolicy::Throw) {
                if (!first_error)
                    first_error = o.raw;
            } else {
                degraded_.push_back(*o.error);
            }
            continue; // failures are never cached or persisted
        }
        cache_.insert(job_key[j], o.result);
        if (journal_)
            journal_->append(job_key[j], o.result);
    }
    // Compaction: once a bounded cache has evicted enough that the
    // journal is mostly cold (live/total below the threshold), write
    // the live working set back and drop the cold majority. Checked
    // after publish so one pass covers the whole batch.
    if (journal_ && cache_.budget().bounded() &&
        opts_.journal_compact_ratio > 0.0) {
        const std::size_t total = journal_->records();
        const std::size_t live = cache_.size();
        // Below ~2x the cache budget a rewrite saves little and would
        // run on every batch; wait until the file is worth shrinking.
        if (total >= 16 && total > live &&
            static_cast<double>(live) <
                opts_.journal_compact_ratio *
                    static_cast<double>(total))
            journal_->compact(cache_.entriesLruOrder());
    }

    // Fan results out to duplicate requests, in submission order.
    // (Under ErrorPolicy::Throw the rethrow happens after the fan-out
    // so a streaming sink still sees every successful sibling.)
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (source[i] == kFromCache)
            continue; // already filled from the cache
        const std::size_t j = source[i];
        const bool first = job_req[j] == i;
        out[i] = job_out[j].result;
        out[i].cache_hit = !first && !out[i].error;
        if (on_ready)
            on_ready(i, out[i]);
    }
    if (first_error)
        std::rethrow_exception(first_error);
    return out;
}

EngineStats
Engine::stats() const
{
    EngineStats s;
    s.requests = static_cast<std::uint64_t>(requests_.total());
    s.cache_hits = cache_.hits();
    s.unique_runs = run_wall_.count(); // one sample per evaluated run
    s.sim_seconds = run_wall_.sum();
    s.jobs = executor_.jobs();
    s.journal_loaded = cache_.preloaded();
    s.degraded = degraded_.size();
    s.retries = static_cast<std::uint64_t>(retries_.total());
    s.backoff_seconds = backoff_.total();
    s.deadline_flags =
        static_cast<std::uint64_t>(deadline_flags_.total());
    s.evictions = cache_.evictions();
    s.compactions = journal_ ? journal_->compactions() : 0;
    return s;
}

std::string
Engine::summary() const
{
    EngineStats s = stats();
    char line[256];
    std::snprintf(line, sizeof(line),
                  "exec: %llu points simulated, %llu cache hits "
                  "(%llu requests), %d worker(s), %.1f ms simulating",
                  static_cast<unsigned long long>(s.unique_runs),
                  static_cast<unsigned long long>(s.cache_hits),
                  static_cast<unsigned long long>(s.requests), s.jobs,
                  s.sim_seconds * 1e3);
    std::string text = line;
    if (s.journal_loaded > 0) {
        std::snprintf(line, sizeof(line),
                      ", %llu from journal",
                      static_cast<unsigned long long>(s.journal_loaded));
        text += line;
    }
    if (s.retries > 0) {
        std::snprintf(line, sizeof(line),
                      ", %llu retries (%.2f s backoff)",
                      static_cast<unsigned long long>(s.retries),
                      s.backoff_seconds);
        text += line;
    }
    if (s.degraded > 0) {
        std::snprintf(line, sizeof(line), ", %llu degraded",
                      static_cast<unsigned long long>(s.degraded));
        text += line;
    }
    if (s.deadline_flags > 0) {
        std::snprintf(line, sizeof(line), ", %llu past deadline",
                      static_cast<unsigned long long>(s.deadline_flags));
        text += line;
    }
    if (s.evictions > 0) {
        std::snprintf(line, sizeof(line),
                      ", %llu evicted (%llu compactions)",
                      static_cast<unsigned long long>(s.evictions),
                      static_cast<unsigned long long>(s.compactions));
        text += line;
    }
    return text;
}

void
fillManifest(const Engine &engine, obs::RunManifest *manifest)
{
    EngineStats s = engine.stats();
    Fingerprint digest = engine.requestDigest();
    char hex[36];
    std::snprintf(hex, sizeof(hex), "%016llx%016llx",
                  static_cast<unsigned long long>(digest.hi),
                  static_cast<unsigned long long>(digest.lo));

    manifest->journal_format_version =
        engine.journal() ? Journal::kVersion : 0;
    manifest->requests = s.requests;
    manifest->request_digest = hex;
    for (const RunError &e : engine.degradedRuns())
        manifest->degraded.push_back(
            {e.workload, e.system, e.num_gpus, e.reason});

    manifest->jobs = s.jobs;
    manifest->cache_hits = s.cache_hits;
    manifest->unique_runs = s.unique_runs;
    manifest->journal_loaded = s.journal_loaded;
    manifest->cache_hit_ratio =
        s.requests > 0
            ? static_cast<double>(s.cache_hits) /
                  static_cast<double>(s.requests)
            : 0.0;
    manifest->sim_seconds = s.sim_seconds;
}

} // namespace mlps::exec
