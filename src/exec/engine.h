/**
 * @file
 * The unified experiment engine: request -> cache -> executor.
 *
 * Engine is the one entry point the study layer drives sweeps
 * through. A call site declares a batch of RunRequests; the engine
 * computes their canonical fingerprints in parallel on its Executor,
 * deduplicates them serially against its RunCache by fingerprint,
 * evaluates the unique misses in parallel on the Executor, inserts
 * the fresh results, and returns RunResults in submission order —
 * so any report rendered from a batch is byte-identical whether it
 * ran on 1 worker or 16, cold cache or warm.
 *
 * Resilience (see exec/supervisor.h and exec/journal.h):
 *  - every evaluation is supervised: transient failures retry with a
 *    deterministic simulated backoff, unrecovered failures become
 *    structured RunErrors that either rethrow (ErrorPolicy::Throw)
 *    or travel inside the RunResult (ErrorPolicy::Capture) so a
 *    report degrades per cell instead of aborting;
 *  - with ExecOptions::cache_dir set, the cache is durable: a CRC32-
 *    checked append-only journal replays on startup and records every
 *    fresh point, so warm reports survive process crashes;
 *  - a per-run deadline watchdog turns a run past its deadline into
 *    a "deadline" RunError, never cached or journaled.
 *
 * Observability: cache hit/miss counters (sim::Counter inside
 * RunCache) plus a per-run wall-time sampler, retry/backoff/deadline
 * counters and the degraded-runs log, all surfaced through
 * stats()/summary().
 */

#ifndef MLPSIM_EXEC_ENGINE_H
#define MLPSIM_EXEC_ENGINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/journal.h"
#include "exec/run_cache.h"
#include "exec/run_request.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "sim/counters.h"

namespace mlps::exec {

/** Snapshot of the engine's counters. */
struct EngineStats {
    std::uint64_t requests = 0;    ///< total requests submitted
    std::uint64_t cache_hits = 0;  ///< served without simulating
    std::uint64_t unique_runs = 0; ///< points actually simulated
    double sim_seconds = 0.0;      ///< summed per-run host wall time
    int jobs = 1;                  ///< resolved worker count
    std::uint64_t journal_loaded = 0;  ///< entries replayed on startup
    std::uint64_t degraded = 0;    ///< unrecovered captured failures
    std::uint64_t retries = 0;     ///< re-evaluations after transients
    double backoff_seconds = 0.0;  ///< summed simulated retry backoff
    std::uint64_t deadline_flags = 0; ///< runs past the deadline
    std::uint64_t evictions = 0;   ///< cache entries dropped to budget
    std::uint64_t compactions = 0; ///< journal compaction passes
};

/** Memoizing parallel evaluator of run plans. */
class Engine
{
  public:
    /**
     * Streaming completion hook: called with (submission index,
     * result) as results become available inside run(). Cache hits
     * stream during the serial dedupe pass — once the whole batch is
     * keyed (in parallel) and before any simulation starts — so a
     * warm service answers instantly even while cold points of the
     * same batch still simulate; freshly simulated
     * points (and in-batch duplicates) stream during the serial
     * publish fan-out, in submission order. Always invoked from the
     * submitting thread. Under ErrorPolicy::Throw the sink fires for
     * successes before the failure rethrows.
     */
    using ResultSink =
        std::function<void(std::size_t, const RunResult &)>;

    explicit Engine(ExecOptions opts = {});

    /**
     * Evaluate a batch. Results are returned in submission order;
     * duplicate points (within the batch or against the cache)
     * simulate once. An unrecovered run failure follows the
     * ErrorPolicy: Throw rethrows the lowest-submission-index error
     * after the batch drains (successes are still cached), Capture
     * stores it in the result's `error` field and logs it.
     */
    std::vector<RunResult> run(std::vector<RunRequest> requests);

    /** Evaluate a batch, streaming each result through `on_ready`. */
    std::vector<RunResult> run(std::vector<RunRequest> requests,
                               const ResultSink &on_ready);

    /** Evaluate a single request through the cache. */
    RunResult runOne(const RunRequest &request);

    /** Resolved worker count (including the submitting thread). */
    int jobs() const { return executor_.jobs(); }

    /**
     * Reconfigure the per-run deadline (ExecOptions::run_deadline_s)
     * between batches. The serve tier uses this to honor per-request
     * deadlines: the dispatcher groups admitted requests by effective
     * deadline and runs one batch per group. Must not be called while
     * a batch is in flight.
     */
    void setRunDeadline(double seconds) {
        opts_.run_deadline_s = seconds;
    }

    RunCache &cache() { return cache_; }
    Executor &executor() { return executor_; }

    /** The durable journal; null without a cache_dir. */
    const Journal *journal() const { return journal_.get(); }

    /**
     * Failures captured under ErrorPolicy::Capture, in deterministic
     * publish order (a point failing in several batches appears once
     * per batch). Never cleared by the engine.
     */
    const std::vector<RunError> &degradedRuns() const {
        return degraded_;
    }

    /**
     * Fault-injection hook for tests: called before every evaluation
     * attempt (1-based); throw to inject a failure. Must be
     * deterministic w.r.t. (request, attempt) and thread-safe, and
     * must not be changed while a batch is in flight.
     */
    void setEvalHook(
        std::function<void(const RunRequest &, int attempt)> hook) {
        eval_hook_ = std::move(hook);
    }

    /** Counter snapshot. */
    EngineStats stats() const;

    /** One-line human-readable stats, for CLI/bench output. */
    std::string summary() const;

    /**
     * Running two-lane FNV digest over every submitted request's
     * fingerprint, in submission order — deterministic across worker
     * counts and cache warmth, so it identifies the *study* rather
     * than the execution. Feeds the run provenance manifest.
     */
    Fingerprint requestDigest() const {
        return request_digest_.digest();
    }

  private:
    /** run() over requests the caller keeps alive; runOne() passes
     *  its one request without copying it. */
    std::vector<RunResult>
    runBatch(std::span<const RunRequest *const> requests,
             const ResultSink &on_ready);

    ExecOptions opts_;
    Executor executor_;
    RunCache cache_;
    std::unique_ptr<Journal> journal_;
    std::vector<RunError> degraded_;
    std::function<void(const RunRequest &, int attempt)> eval_hook_;
    sim::Counter requests_{"engine.requests"};
    sim::Counter retries_{"engine.retries"};
    sim::Counter backoff_{"engine.backoff_seconds"};
    sim::Counter deadline_flags_{"engine.deadline_flags"};
    sim::Sampler run_wall_{"engine.run_wall_seconds",
                           /*keep_samples=*/false};
    HashStream request_digest_;

    // Last members, so they unregister before the counters die.
    std::vector<obs::MetricRegistry::Registration> registrations_;
};

/**
 * Copy an engine's provenance into a manifest: request count and
 * digest, journal format version and replay count, cache hits and
 * ratio, degraded runs. Called by the CLI before the engine dies.
 */
void fillManifest(const Engine &engine, obs::RunManifest *manifest);

} // namespace mlps::exec

#endif // MLPSIM_EXEC_ENGINE_H
