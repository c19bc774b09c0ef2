#include "sched/job_spec.h"

#include "sim/logger.h"

namespace mlps::sched {

double
JobSpec::timeAt(int width) const
{
    auto it = seconds_at_width.find(width);
    if (it == seconds_at_width.end())
        sim::fatal("JobSpec '%s': no time at width %d", name.c_str(),
                   width);
    return it->second;
}

bool
JobSpec::supportsWidth(int width) const
{
    return seconds_at_width.count(width) > 0;
}

double
JobSpec::speedupAt(int width) const
{
    return timeAt(1) / timeAt(width);
}

int
JobSpec::bestWidth(int max_width) const
{
    int best = 1;
    for (int w = 2; w <= max_width; w *= 2) {
        if (speedupAt(w) / w >= 0.75)
            best = w;
    }
    return best;
}

void
validateJobs(const std::vector<JobSpec> &jobs, int gpus)
{
    if (jobs.empty())
        sim::fatal("validateJobs: no jobs");
    if (gpus < 1 || (gpus & (gpus - 1)) != 0)
        sim::fatal("validateJobs: GPU count %d must be a power of two",
                   gpus);
    if (jobs.size() > 24)
        sim::fatal("validateJobs: %zu jobs exceeds exact-search limit",
                   jobs.size());
    for (const auto &j : jobs) {
        for (int w = 1; w <= gpus; w *= 2) {
            if (!j.supportsWidth(w))
                sim::fatal("JobSpec '%s': missing width %d",
                           j.name.c_str(), w);
            if (j.timeAt(w) <= 0.0)
                sim::fatal("JobSpec '%s': non-positive time at width %d",
                           j.name.c_str(), w);
        }
    }
}

} // namespace mlps::sched
