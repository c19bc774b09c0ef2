/**
 * @file
 * Declarative run plans: the value types flowing through the
 * experiment engine.
 *
 * A RunRequest names one simulation point — (machine, workload, run
 * options, profiled?) — without executing it. Call sites declare a
 * batch of requests, the Engine deduplicates them against its RunCache
 * by canonical fingerprint, evaluates the misses on the Executor, and
 * hands back RunResults in submission order.
 */

#ifndef MLPSIM_EXEC_RUN_REQUEST_H
#define MLPSIM_EXEC_RUN_REQUEST_H

#include <memory>

#include "exec/fingerprint.h"
#include "exec/supervisor.h"
#include "prof/kernel_profiler.h"
#include "sys/system_config.h"
#include "train/training_job.h"
#include "wl/workload.h"

namespace mlps::exec {

/** One declared simulation point, not yet evaluated. */
struct RunRequest {
    sys::SystemConfig system;
    wl::WorkloadSpec workload;
    train::RunOptions options;
    /**
     * Attach a per-request kernel profiler to the run. Profiled and
     * unprofiled evaluations of the same point are cached separately
     * (their RunResults differ).
     */
    bool profiled = false;

    /**
     * Canonical cache key of this point: a structural fingerprint over
     * every input Trainer::run reads. Two requests with equal keys
     * produce byte-identical results.
     */
    Fingerprint key() const;
};

/** Evaluated result of one request. */
struct RunResult {
    /** The training-model output. */
    train::TrainResult train;
    /** Per-run kernel records; populated only for profiled requests. */
    prof::KernelProfiler profile;
    /** True when served from the cache (or shared within a batch). */
    bool cache_hit = false;
    /** True when the cached entry was preloaded from the journal. */
    bool from_journal = false;
    /** Host wall time the simulation itself took, seconds. */
    double wall_seconds = 0.0;
    /** Evaluation attempts consumed (> 1 after transient retries). */
    int attempts = 1;
    /** Wall time exceeded ExecOptions::run_deadline_s; `error` then
     *  holds the "deadline" RunError. */
    bool deadline_flagged = false;
    /**
     * Under ErrorPolicy::Capture, the failure that produced this
     * placeholder result (train carries the request's identity fields
     * with NaN totals). Null on success; never cached or persisted.
     */
    std::shared_ptr<const RunError> error;

    /** The run completed (no captured failure). */
    bool ok() const { return error == nullptr; }
};

} // namespace mlps::exec

#endif // MLPSIM_EXEC_RUN_REQUEST_H
