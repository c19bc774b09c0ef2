/**
 * @file
 * Run supervision: structured per-run failure records, transient
 * classification, and the deterministic retry/backoff policy the
 * engine applies to every evaluated point.
 *
 * The engine never lets a throwing run tear down a batch blindly:
 * each evaluation attempt runs under a supervisor that classifies the
 * exception, retries transient failures with a capped exponential
 * backoff, and condenses an unrecovered failure into a RunError. What
 * happens to that RunError is the caller's ErrorPolicy: Throw (the
 * historical behaviour — the lowest-submission-index error is
 * rethrown after the batch drains) or Capture (the error travels
 * inside the RunResult so reports can degrade per cell instead of
 * aborting). A run past ExecOptions::run_deadline_s is such a failure
 * too, with reason "deadline".
 *
 * Determinism: the backoff is *simulated* — accounted in seconds but
 * never slept — and the retry count is bounded, so a batch containing
 * failures still renders byte-identically at any worker count.
 */

#ifndef MLPSIM_EXEC_SUPERVISOR_H
#define MLPSIM_EXEC_SUPERVISOR_H

#include <exception>
#include <stdexcept>
#include <string>

#include "exec/fingerprint.h"

namespace mlps::exec {

/** What the engine does with a run that still fails after retries. */
enum class ErrorPolicy {
    /**
     * Rethrow the failed run's exception after the batch drains
     * (successful sibling runs are still published to the cache).
     */
    Throw,
    /**
     * Capture a RunError into the run's RunResult and keep going;
     * the batch always completes and the engine records the failure
     * in its degraded-runs log.
     */
    Capture,
};

/**
 * Failure a run may recover from on retry. Simulation code (or a test
 * fault injector) throws this to mark an error retry-worthy; every
 * other exception type is treated as permanent.
 */
class TransientError : public std::runtime_error
{
  public:
    explicit TransientError(const std::string &what)
        : std::runtime_error(what) {}
};

/** Deterministic capped-exponential retry policy for transient failures. */
struct RetryPolicy {
    /** Total evaluation attempts per run, including the first (>= 1). */
    int max_attempts = 3;
    /** Simulated backoff before the first retry, seconds. */
    double backoff_base_s = 0.25;
    /** Ceiling on any single simulated backoff, seconds. */
    double backoff_cap_s = 4.0;
};

/** Structured record of one run that failed after all retries. */
struct RunError {
    Fingerprint key;        ///< request fingerprint
    std::string workload;   ///< request workload abbreviation
    std::string system;     ///< request system name
    int num_gpus = 1;       ///< request GPU count
    std::string reason;     ///< short class: config | transient | runtime | unknown
    std::string what;       ///< final attempt's exception message
    int attempts = 1;       ///< evaluation attempts consumed
    double backoff_s = 0.0; ///< summed simulated backoff across retries
    bool transient = false; ///< final failure was transient-classified
};

/** Classification of one thrown exception. */
struct FailureClass {
    std::string reason; ///< short class name (see RunError::reason)
    std::string what;   ///< exception message
    bool transient = false;
};

/**
 * Classify an in-flight exception: TransientError is retry-worthy,
 * sim::FatalError is a configuration error, anything else is a
 * permanent runtime failure.
 */
FailureClass classifyFailure(std::exception_ptr err);

/**
 * Simulated backoff before retry number `retry` (1-based):
 * min(cap, base * 2^(retry-1)). Deterministic — the engine accounts
 * it but never sleeps, so retried batches stay byte-identical.
 */
double backoffSeconds(const RetryPolicy &policy, int retry);

/** Fixed-width hex rendering of a fingerprint, for reports and CLI. */
std::string toHex(const Fingerprint &fp);

} // namespace mlps::exec

#endif // MLPSIM_EXEC_SUPERVISOR_H
