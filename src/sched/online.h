/**
 * @file
 * Online multi-GPU job scheduling — the operational version of the
 * paper's Figure 4 insight. Training jobs arrive over time at a
 * shared machine; policies decide when and at what width each runs.
 * Section IV-D explicitly flags this as the problem data-center
 * administrators face; this module lets the policies be compared on
 * the measured scaling profiles.
 *
 * One event loop (simulateElastic) runs every stream, fault-free or
 * faulted, over arrivals, segment completions and outage starts and
 * ends; simulateOnline is that loop with no outages. Each placement
 * is recorded when its segment starts, so a fault-free schedule lists
 * placements in start order.
 */

#ifndef MLPSIM_SCHED_ONLINE_H
#define MLPSIM_SCHED_ONLINE_H

#include <string>
#include <vector>

#include "fault/fault_model.h"
#include "fault/link_fault.h"
#include "sched/schedule.h"
#include "sim/rng.h"
#include "sys/system_config.h"

namespace mlps::sched {

/** One job submission. */
struct OnlineJob {
    JobSpec profile;
    double arrival_s = 0.0;
};

/** Scheduling policy for the online setting. */
enum class OnlinePolicy {
    /** FIFO; every job runs distributed across all GPUs (paper's
     *  naive policy, applied online). */
    FifoFullWidth,
    /** FIFO; each job runs at JobSpec::bestWidth on the
     *  lowest-numbered idle GPUs. */
    FifoBestWidth,
    /** FifoBestWidth plus conservative backfilling: a blocked head
     *  reserves its width at the width-th earliest GPU free time (now
     *  for an idle GPU, the running segment's end for a busy one),
     *  and the first later job that fits the idle GPUs (at its width,
     *  capped to the largest power of two idle) and finishes by then
     *  starts at once. */
    Backfill,
};

/** Human-readable policy name. */
std::string toString(OnlinePolicy policy);

/** Outcome of an online simulation. */
struct OnlineMetrics {
    Schedule schedule;              ///< realised placements
    double makespan_s = 0.0;        ///< last completion
    double avg_wait_s = 0.0;        ///< mean queue wait
    double avg_turnaround_s = 0.0;  ///< mean completion - arrival
    double max_wait_s = 0.0;
    double utilization = 0.0;       ///< busy GPU-time fraction
};

/**
 * Simulate a job stream against a policy on a healthy machine:
 * simulateElastic with no outages.
 *
 * @param jobs arriving jobs (any order; sorted internally).
 * @param gpus machine width (power of two).
 * @param policy scheduling policy.
 */
OnlineMetrics simulateOnline(const std::vector<OnlineJob> &jobs,
                             int gpus, OnlinePolicy policy);

/**
 * Generate a Poisson stream of jobs drawn (with replacement) from a
 * profile catalogue — a synthetic research-group queue.
 *
 * @param catalogue job profiles to draw from.
 * @param count jobs to generate.
 * @param mean_interarrival_s mean arrival gap.
 * @param seed RNG seed.
 */
std::vector<OnlineJob>
poissonJobStream(const std::vector<JobSpec> &catalogue, int count,
                 double mean_interarrival_s, std::uint64_t seed);

// ----------------------------------------------------------- elastic

/** One GPU unavailability window visible to the scheduler. */
struct GpuOutage {
    int gpu = 0;
    double start_s = 0.0;
    /** Outage length, seconds; <= 0 means the GPU never returns. */
    double duration_s = 0.0;

    bool permanent() const { return duration_s <= 0.0; }
};

/** What the scheduler does with a job whose GPU just failed. */
enum class RecoveryPolicy {
    /** Put the job back at the head of the queue; rerun when space
     *  frees up (the classic fail-stop restart). */
    Requeue,
    /** Continue immediately on the surviving GPUs of its allocation,
     *  shrunk to the largest power-of-two width. */
    Shrink,
    /** Re-place at the original width on currently idle GPUs when
     *  possible; otherwise shrink, otherwise requeue. */
    Migrate,
};

/** Human-readable recovery-policy name. */
std::string toString(RecoveryPolicy policy);

/** Outcome of an elastic (fault-aware) online simulation. */
struct ElasticMetrics {
    OnlineMetrics online;        ///< realised schedule + queue metrics
    double lost_work_s = 0.0;    ///< GPU-seconds of discarded progress
    double restart_s = 0.0;      ///< GPU-seconds spent relaunching
    double goodput = 0.0;        ///< useful / allocated GPU-time
    double availability = 0.0;   ///< machine GPU-time not in outage
    int interruptions = 0;       ///< job interruptions handled
};

/**
 * Simulate a job stream on a machine whose GPUs suffer outages.
 *
 * Jobs are checkpointed every checkpoint_every_s seconds, so an
 * interruption discards at most that much per-GPU progress and pays
 * restart_overhead_s before the job resumes anywhere. Every policy
 * dispatches as in a fault-free run, with widths capped to the
 * largest power of two of GPUs not permanently lost, except that a
 * non-empty `outages` degrades Backfill to FifoBestWidth (with a
 * warning): reservations are not modeled under faults.
 *
 * Deterministic: same inputs, same outcome.
 */
ElasticMetrics
simulateElastic(const std::vector<OnlineJob> &jobs, int gpus,
                OnlinePolicy policy, const std::vector<GpuOutage> &outages,
                RecoveryPolicy recovery,
                double checkpoint_every_s = 600.0,
                double restart_overhead_s = 30.0);

/**
 * Lower a FaultModel trace to scheduler-visible outages: GpuLoss
 * becomes a permanent outage; ECC retry storms and GPU stalls drain
 * the device for their duration (operators pull degraded devices).
 * Windows shorter than min_outage_s are ignored as not worth a drain.
 */
std::vector<GpuOutage>
outagesFromTrace(const std::vector<fault::FaultEvent> &trace,
                 double min_outage_s = 10.0);

/**
 * Lower a link-fault trace to scheduler-visible outages: a hard
 * link-down drains the GPUs incident to the dead edge for its
 * duration (operators migrate work off a GPU whose fabric is gone),
 * and a thermal throttle drains its GPU when the window is long
 * enough. Bandwidth-only degradations (lane drops, downtraining) are
 * left to run — migrating costs more than the slowdown. GPU node ids
 * are translated to scheduler ordinals via the system's gpu_nodes.
 */
std::vector<GpuOutage>
outagesFromLinkTrace(const std::vector<fault::LinkFaultEvent> &trace,
                     const sys::SystemConfig &system,
                     double min_outage_s = 10.0);

} // namespace mlps::sched

#endif // MLPSIM_SCHED_ONLINE_H
