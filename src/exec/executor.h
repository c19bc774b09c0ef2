/**
 * @file
 * Work-stealing parallel executor.
 *
 * A persistent pool of std::threads that evaluates index-addressed
 * batches: workers (and the submitting thread) claim indices from a
 * shared atomic counter, so fast items free a worker to steal the
 * next pending one — no static partitioning, no idle tail. Results
 * land at their submission index, so callers observe submission
 * order no matter how the work interleaved.
 *
 * Worker count resolution: an explicit positive `jobs` wins, else the
 * MLPSIM_JOBS environment variable, else hardware_concurrency. The
 * pool keeps jobs-1 threads because the caller participates in every
 * batch; jobs=1 therefore runs fully inline with zero threads.
 */

#ifndef MLPSIM_EXEC_EXECUTOR_H
#define MLPSIM_EXEC_EXECUTOR_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/supervisor.h"
#include "obs/registry.h"

namespace mlps::exec {

/** Executor and engine configuration. */
struct ExecOptions {
    ExecOptions() = default;
    /** Shorthand for the ubiquitous worker-count-only configuration. */
    explicit ExecOptions(int jobs_) : jobs(jobs_) {}

    /** Worker count; 0 = MLPSIM_JOBS env, else hardware_concurrency. */
    int jobs = 0;
    /**
     * Durable cache directory (journal + lock). Empty keeps the run
     * cache in-memory only. (Engine-level; the executor ignores it.)
     */
    std::string cache_dir;
    /** What the engine does with a run that fails after retries. */
    ErrorPolicy on_error = ErrorPolicy::Throw;
    /** Deterministic retry policy for transient run failures. */
    RetryPolicy retry;
    /**
     * Per-run host wall-clock deadline, seconds. A run exceeding it
     * becomes a structured RunError (reason "deadline") that is
     * neither cached nor journaled, so a slow simulation degrades to
     * a per-request error instead of entering the shared cache.
     * Never killed mid-flight. 0 disables the watchdog.
     */
    double run_deadline_s = 0.0;
    /**
     * RunCache entry budget; 0 = unbounded (the historical batch
     * behaviour). With a budget the cache evicts least-recently-used
     * entries, keeping a long-running service's memory flat.
     */
    std::size_t cache_max_entries = 0;
    /** RunCache byte budget (approximate accounting); 0 = unbounded. */
    std::uint64_t cache_max_bytes = 0;
    /**
     * Journal compaction threshold: when the cache holds fewer than
     * this fraction of the journal's records (evictions have made the
     * file mostly cold), the journal is rewritten with the live
     * entries only, bounding disk alongside memory. Only meaningful
     * with a cache budget; <= 0 disables compaction.
     */
    double journal_compact_ratio = 0.5;
};

/** Persistent pool evaluating index batches with work stealing. */
class Executor
{
  public:
    explicit Executor(ExecOptions opts = {});
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** Resolved worker count (including the submitting thread). */
    int jobs() const { return jobs_; }

    /**
     * Run fn(0..n-1), blocking until every index completed. The
     * submitting thread participates. The first exception thrown by
     * any item is rethrown here after the batch drains; remaining
     * items still run. Not reentrant: one batch at a time.
     */
    void forEach(std::size_t n, const std::function<void(std::size_t)> &fn);

    /**
     * Resolve a requested worker count: explicit positive value, else
     * the MLPSIM_JOBS environment variable, else hardware_concurrency.
     * fatal() on a non-positive explicit value or a malformed env var.
     */
    static int resolveJobs(int requested);

  private:
    void workerLoop();
    void claimLoop(const std::function<void(std::size_t)> &fn,
                   std::size_t n);

    int jobs_;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    const std::function<void(std::size_t)> *fn_ = nullptr;
    std::size_t batch_n_ = 0;
    std::uint64_t generation_ = 0;
    int active_ = 0; ///< workers currently inside a claim loop
    bool stop_ = false;
    std::exception_ptr error_;

    std::atomic<std::size_t> next_{0};
    std::atomic<std::size_t> completed_{0};
    /** In-flight batch size mirror, for the queue-depth gauge. */
    std::atomic<std::size_t> batch_size_{0};

    // Last members, so gauges unregister before the state they read.
    std::vector<obs::MetricRegistry::Registration> registrations_;
};

} // namespace mlps::exec

#endif // MLPSIM_EXEC_EXECUTOR_H
