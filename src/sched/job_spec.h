/**
 * @file
 * Moldable-job description for the multi-GPU scheduling study
 * (paper Section IV-D / Figure 4): a training job's wall time as a
 * function of the GPU count it is given.
 */

#ifndef MLPSIM_SCHED_JOB_SPEC_H
#define MLPSIM_SCHED_JOB_SPEC_H

#include <map>
#include <string>
#include <vector>

namespace mlps::sched {

/** One schedulable training job. */
struct JobSpec {
    std::string name;
    /** Wall-clock seconds when run on `width` GPUs. */
    std::map<int, double> seconds_at_width;

    /** Time at a width; fatal if the width was never measured. */
    double timeAt(int width) const;

    /** True when the width has a measured time. */
    bool supportsWidth(int width) const;

    /** Speedup of width w over one GPU. */
    double speedupAt(int width) const;

    /**
     * Widest power-of-two width up to max_width that keeps parallel
     * efficiency >= 0.75 (the diminishing-returns cut-off).
     */
    int bestWidth(int max_width) const;
};

/** Validate a job list against a GPU count (powers of two up to G). */
void validateJobs(const std::vector<JobSpec> &jobs, int gpus);

} // namespace mlps::sched

#endif // MLPSIM_SCHED_JOB_SPEC_H
