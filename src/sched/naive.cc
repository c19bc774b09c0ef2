#include "sched/naive.h"

#include <algorithm>
#include <numeric>

#include "sim/logger.h"

namespace mlps::sched {

Schedule
naiveSchedule(const std::vector<JobSpec> &jobs, int gpus)
{
    validateJobs(jobs, gpus);
    Schedule s;
    s.num_gpus = gpus;
    std::vector<int> all(gpus);
    std::iota(all.begin(), all.end(), 0);
    double t = 0.0;
    for (const auto &j : jobs) {
        Placement p;
        p.job = j.name;
        p.gpus = all;
        p.start_s = t;
        p.end_s = t + j.timeAt(gpus);
        t = p.end_s;
        s.placements.push_back(std::move(p));
    }
    s.validate(jobs);
    return s;
}

Schedule
greedySchedule(const std::vector<JobSpec> &jobs, int gpus)
{
    validateJobs(jobs, gpus);
    // Longest (at chosen width) first.
    std::vector<const JobSpec *> order;
    for (const auto &j : jobs)
        order.push_back(&j);
    std::sort(order.begin(), order.end(),
              [&](const JobSpec *a, const JobSpec *b) {
                  return a->timeAt(a->bestWidth(gpus)) >
                         b->timeAt(b->bestWidth(gpus));
              });

    Schedule s;
    s.num_gpus = gpus;
    std::vector<double> free_at(gpus, 0.0);
    for (const JobSpec *j : order) {
        int w = j->bestWidth(gpus);
        // Earliest-available w GPUs.
        std::vector<int> idx(gpus);
        std::iota(idx.begin(), idx.end(), 0);
        std::sort(idx.begin(), idx.end(), [&](int a, int b) {
            return free_at[a] < free_at[b];
        });
        std::vector<int> chosen(idx.begin(), idx.begin() + w);
        double start = 0.0;
        for (int g : chosen)
            start = std::max(start, free_at[g]);
        Placement p;
        p.job = j->name;
        p.gpus = chosen;
        p.start_s = start;
        p.end_s = start + j->timeAt(w);
        for (int g : chosen)
            free_at[g] = p.end_s;
        s.placements.push_back(std::move(p));
    }
    s.validate(jobs);
    return s;
}

} // namespace mlps::sched
