/**
 * @file
 * The paper's baseline scheduling policy (Figure 4a): run every job
 * distributed across all GPUs, one after another. Simple, fragment-
 * free, and — as Figure 4 shows — leaves hours on the table when the
 * job mix has diverse scaling efficiency.
 */

#ifndef MLPSIM_SCHED_NAIVE_H
#define MLPSIM_SCHED_NAIVE_H

#include <vector>

#include "sched/schedule.h"

namespace mlps::sched {

/** Sequential full-width schedule of the jobs, in the given order. */
Schedule naiveSchedule(const std::vector<JobSpec> &jobs, int gpus);

/**
 * Greedy list schedule (longest-processing-time-first, each job at
 * JobSpec::bestWidth, placed at the earliest gap). A practical
 * mid-point between naive and the exact optimum; used by the
 * scheduling ablation bench.
 */
Schedule greedySchedule(const std::vector<JobSpec> &jobs, int gpus);

} // namespace mlps::sched

#endif // MLPSIM_SCHED_NAIVE_H
