/**
 * @file
 * Online-scheduling oracle: the fault-free simulateOnline and the
 * fault-aware simulateElastic event loops as two separate
 * simulations, kept verbatim from before they were folded into one
 * loop. The SchedReference tests compare the production scheduler
 * with them placement by placement and metric by metric.
 */

#ifndef MLPSIM_TESTS_SCHED_REFERENCE_H
#define MLPSIM_TESTS_SCHED_REFERENCE_H

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "sched/online.h"
#include "sim/logger.h"

namespace mlps::reference {

using sched::ElasticMetrics;
using sched::GpuOutage;
using sched::JobSpec;
using sched::OnlineJob;
using sched::OnlineMetrics;
using sched::OnlinePolicy;
using sched::Placement;
using sched::RecoveryPolicy;

namespace sched_detail {

/** Widest width keeping parallel efficiency >= 0.75. */
inline int
bestWidth(const JobSpec &job, int gpus)
{
    int best = 1;
    for (int w = 2; w <= gpus; w *= 2) {
        if (job.speedupAt(w) / w >= 0.75)
            best = w;
    }
    return best;
}

struct MachineState {
    std::vector<double> free_at; ///< per-GPU availability time

    explicit MachineState(int gpus) : free_at(gpus, 0.0) {}

    /** Indices of GPUs free at time t, earliest-free first. */
    std::vector<int>
    freeGpus(double t) const
    {
        std::vector<int> idx;
        for (int g = 0; g < static_cast<int>(free_at.size()); ++g) {
            if (free_at[g] <= t + 1e-12)
                idx.push_back(g);
        }
        return idx;
    }

    /** Time at which at least `width` GPUs are simultaneously free. */
    double
    availableAt(int width) const
    {
        std::vector<double> sorted = free_at;
        std::sort(sorted.begin(), sorted.end());
        return sorted[width - 1];
    }
};

struct PendingJob {
    const OnlineJob *job;
    int index;
};

/** Largest power of two <= n (0 when n < 1). */
inline int
largestPow2(int n)
{
    int w = 0;
    for (int c = 1; c <= n; c *= 2)
        w = c;
    return w;
}

} // namespace sched_detail

inline OnlineMetrics
simulateOnline(const std::vector<OnlineJob> &jobs, int gpus,
               OnlinePolicy policy)
{
    using namespace sched_detail;
    if (jobs.empty())
        sim::fatal("simulateOnline: no jobs");
    if (gpus < 1 || (gpus & (gpus - 1)) != 0)
        sim::fatal("simulateOnline: GPU count %d must be a power of 2",
                   gpus);
    for (const auto &j : jobs) {
        if (j.arrival_s < 0.0)
            sim::fatal("simulateOnline: negative arrival for '%s'",
                       j.profile.name.c_str());
        for (int w = 1; w <= gpus; w *= 2) {
            if (!j.profile.supportsWidth(w))
                sim::fatal("simulateOnline: '%s' missing width %d",
                           j.profile.name.c_str(), w);
        }
    }

    // Arrival order (stable for ties).
    std::vector<int> order(jobs.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return jobs[a].arrival_s < jobs[b].arrival_s;
    });

    MachineState machine(gpus);
    std::deque<int> queue; // indices into jobs
    std::size_t next_arrival = 0;
    double now = 0.0;

    OnlineMetrics res;
    res.schedule.num_gpus = gpus;
    std::vector<double> start_time(jobs.size(), -1.0);
    std::vector<double> end_time(jobs.size(), -1.0);

    auto place = [&](int ji, int width, double t) {
        auto free = machine.freeGpus(t);
        std::vector<int> chosen(free.begin(), free.begin() + width);
        Placement p;
        p.job = jobs[ji].profile.name + "#" + std::to_string(ji);
        p.gpus = chosen;
        p.start_s = t;
        p.end_s = t + jobs[ji].profile.timeAt(width);
        for (int g : chosen)
            machine.free_at[g] = p.end_s;
        start_time[ji] = t;
        end_time[ji] = p.end_s;
        res.schedule.placements.push_back(std::move(p));
    };

    auto desiredWidth = [&](int ji) {
        return policy == OnlinePolicy::FifoFullWidth
                   ? gpus
                   : bestWidth(jobs[ji].profile, gpus);
    };

    // Event loop: advance `now` to the next arrival or GPU release,
    // then dispatch whatever the policy allows.
    std::size_t done = 0;
    while (done < jobs.size()) {
        // Admit arrivals up to now.
        while (next_arrival < order.size() &&
               jobs[order[next_arrival]].arrival_s <= now + 1e-12) {
            queue.push_back(order[next_arrival]);
            ++next_arrival;
        }

        // Dispatch loop at the current instant.
        bool dispatched = true;
        while (dispatched && !queue.empty()) {
            dispatched = false;
            int head = queue.front();
            int head_width = desiredWidth(head);
            auto free = machine.freeGpus(now);
            if (static_cast<int>(free.size()) >= head_width) {
                queue.pop_front();
                place(head, head_width, now);
                ++done;
                dispatched = true;
                continue;
            }
            if (policy == OnlinePolicy::Backfill && !free.empty()) {
                // Head reserves `head_width` GPUs at the earliest
                // time they co-exist; a later job may use currently
                // free GPUs if it finishes by then.
                double reservation = machine.availableAt(head_width);
                // Largest power-of-two width the free set can host.
                int free_pow2 = 1;
                while (free_pow2 * 2 <=
                       static_cast<int>(free.size()))
                    free_pow2 *= 2;
                for (std::size_t qi = 1; qi < queue.size(); ++qi) {
                    int cand = queue[qi];
                    int w = std::min(desiredWidth(cand), free_pow2);
                    if (now + jobs[cand].profile.timeAt(w) <=
                        reservation + 1e-9) {
                        queue.erase(queue.begin() + qi);
                        place(cand, w, now);
                        ++done;
                        dispatched = true;
                        break;
                    }
                }
            }
        }

        if (done == jobs.size())
            break;

        // Advance to the next interesting instant.
        double next_t = std::numeric_limits<double>::infinity();
        if (next_arrival < order.size())
            next_t = jobs[order[next_arrival]].arrival_s;
        if (!queue.empty()) {
            for (double t : machine.free_at) {
                if (t > now + 1e-12)
                    next_t = std::min(next_t, t);
            }
        }
        if (!std::isfinite(next_t))
            sim::panic("simulateOnline: stalled with %zu jobs queued",
                       queue.size());
        now = next_t;
    }

    // Metrics.
    double wait_sum = 0.0, turn_sum = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        double wait = start_time[i] - jobs[i].arrival_s;
        wait_sum += wait;
        res.max_wait_s = std::max(res.max_wait_s, wait);
        turn_sum += end_time[i] - jobs[i].arrival_s;
        res.makespan_s = std::max(res.makespan_s, end_time[i]);
    }
    res.avg_wait_s = wait_sum / jobs.size();
    res.avg_turnaround_s = turn_sum / jobs.size();
    double busy = 0.0;
    for (const auto &p : res.schedule.placements)
        busy += p.duration() * p.width();
    res.utilization =
        res.makespan_s > 0.0 ? busy / (res.makespan_s * gpus) : 0.0;
    return res;
}

inline ElasticMetrics
simulateElastic(const std::vector<OnlineJob> &jobs, int gpus,
                OnlinePolicy policy,
                const std::vector<GpuOutage> &outages,
                RecoveryPolicy recovery, double checkpoint_every_s,
                double restart_overhead_s)
{
    using namespace sched_detail;
    if (jobs.empty())
        sim::fatal("simulateElastic: no jobs");
    if (gpus < 1 || (gpus & (gpus - 1)) != 0)
        sim::fatal("simulateElastic: GPU count %d must be a power of 2",
                   gpus);
    if (checkpoint_every_s <= 0.0 || restart_overhead_s < 0.0)
        sim::fatal("simulateElastic: bad checkpoint (%g s) or restart "
                   "(%g s) parameters", checkpoint_every_s,
                   restart_overhead_s);
    for (const auto &j : jobs) {
        if (j.arrival_s < 0.0)
            sim::fatal("simulateElastic: negative arrival for '%s'",
                       j.profile.name.c_str());
        for (int w = 1; w <= gpus; w *= 2) {
            if (!j.profile.supportsWidth(w))
                sim::fatal("simulateElastic: '%s' missing width %d",
                           j.profile.name.c_str(), w);
        }
    }
    for (const auto &o : outages) {
        if (o.gpu < 0 || o.gpu >= gpus)
            sim::fatal("simulateElastic: outage GPU %d out of range",
                       o.gpu);
        if (o.start_s < 0.0)
            sim::fatal("simulateElastic: negative outage start");
    }
    if (policy == OnlinePolicy::Backfill)
        sim::warn("simulateElastic: backfill reservations are not "
                  "modeled under faults; using fifo-best-width");

    constexpr double kInf = std::numeric_limits<double>::infinity();

    // Arrival order (stable for ties).
    std::vector<int> arrival_order(jobs.size());
    std::iota(arrival_order.begin(), arrival_order.end(), 0);
    std::stable_sort(arrival_order.begin(), arrival_order.end(),
                     [&](int a, int b) {
                         return jobs[a].arrival_s < jobs[b].arrival_s;
                     });
    std::vector<GpuOutage> outage_order = outages;
    std::stable_sort(outage_order.begin(), outage_order.end(),
                     [](const GpuOutage &a, const GpuOutage &b) {
                         return a.start_s < b.start_s;
                     });

    // One running segment of a (possibly interrupted) job.
    struct Segment {
        int job = -1;
        std::vector<int> gpus;
        double start_s = 0.0;    ///< includes the restart overhead
        double work_start_s = 0.0;
        double end_s = 0.0;
        double rem0 = 1.0;       ///< remaining work fraction at start
    };
    struct QueueEntry {
        int job;
        double remaining; ///< fraction of full work left
        bool resumed;
    };

    std::vector<Segment> running;
    std::vector<int> seg_of(gpus, -1); ///< segment index per GPU
    std::vector<double> out_until(gpus, 0.0);
    std::vector<bool> is_out(gpus, false);
    std::deque<QueueEntry> queue;

    ElasticMetrics res;
    res.online.schedule.num_gpus = gpus;
    std::vector<double> first_start(jobs.size(), -1.0);
    std::vector<double> final_end(jobs.size(), -1.0);
    std::vector<int> segment_no(jobs.size(), 0);
    double busy_gpu_s = 0.0, useful_gpu_s = 0.0;
    std::size_t next_arrival = 0, next_outage = 0, done = 0;
    double now = 0.0;

    auto aliveGpus = [&] {
        int n = 0;
        for (int g = 0; g < gpus; ++g)
            n += !(is_out[g] && std::isinf(out_until[g]));
        return n;
    };
    auto idleGpus = [&] {
        std::vector<int> idle;
        for (int g = 0; g < gpus; ++g)
            if (!is_out[g] && seg_of[g] < 0)
                idle.push_back(g);
        return idle;
    };
    auto desiredWidth = [&](int ji) {
        int w = policy == OnlinePolicy::FifoFullWidth
                    ? gpus
                    : bestWidth(jobs[ji].profile, gpus);
        return std::min(w, largestPow2(aliveGpus()));
    };

    auto startSegment = [&](const QueueEntry &e,
                            std::vector<int> chosen) {
        const JobSpec &prof = jobs[e.job].profile;
        int width = static_cast<int>(chosen.size());
        Segment s;
        s.job = e.job;
        s.gpus = std::move(chosen);
        s.start_s = now;
        double overhead = e.resumed ? restart_overhead_s : 0.0;
        s.work_start_s = now + overhead;
        s.end_s = s.work_start_s + e.remaining * prof.timeAt(width);
        s.rem0 = e.remaining;
        res.restart_s += overhead * width;
        if (first_start[e.job] < 0.0)
            first_start[e.job] = now;
        int idx = static_cast<int>(running.size());
        for (int g : s.gpus)
            seg_of[g] = idx;
        running.push_back(std::move(s));
    };

    // Interrupt the segment on GPU g (which just went out): compute
    // checkpoint-preserved progress and hand the job to the recovery
    // policy.
    auto interrupt = [&](int seg_idx) {
        Segment s = running[seg_idx];
        const JobSpec &prof = jobs[s.job].profile;
        int width = static_cast<int>(s.gpus.size());
        double full = prof.timeAt(width);
        double worked = std::max(0.0, now - s.work_start_s);
        double preserved =
            std::floor(worked / checkpoint_every_s) *
            checkpoint_every_s;
        double lost = worked - preserved;
        res.lost_work_s += lost * width;
        ++res.interruptions;
        busy_gpu_s += (now - s.start_s) * width;
        useful_gpu_s += preserved * width;
        double remaining = std::max(0.0, s.rem0 - preserved / full);

        // Record the cut-short placement.
        Placement p;
        p.job = prof.name + "#" + std::to_string(s.job) + ".s" +
                std::to_string(segment_no[s.job]++);
        p.gpus = s.gpus;
        p.start_s = s.start_s;
        p.end_s = now;
        res.online.schedule.placements.push_back(std::move(p));

        for (int g : s.gpus)
            seg_of[g] = -1;
        running[seg_idx].job = -1; // tombstone

        if (remaining <= 1e-12) {
            final_end[s.job] = now;
            ++done;
            return;
        }
        QueueEntry entry{s.job, remaining, true};
        std::vector<int> survivors;
        for (int g : s.gpus)
            if (!is_out[g])
                survivors.push_back(g);

        if (recovery == RecoveryPolicy::Migrate) {
            auto idle = idleGpus();
            if (static_cast<int>(idle.size()) >= width) {
                startSegment(entry, {idle.begin(), idle.begin() + width});
                return;
            }
        }
        if (recovery == RecoveryPolicy::Shrink ||
            recovery == RecoveryPolicy::Migrate) {
            int w2 = largestPow2(static_cast<int>(survivors.size()));
            if (w2 >= 1) {
                startSegment(entry,
                             {survivors.begin(), survivors.begin() + w2});
                return;
            }
        }
        queue.push_front(entry);
    };

    // Event loop over arrivals, completions, outage starts and ends.
    while (done < jobs.size()) {
        double t_next = kInf;
        if (next_arrival < arrival_order.size())
            t_next = std::min(t_next,
                              jobs[arrival_order[next_arrival]].arrival_s);
        if (next_outage < outage_order.size())
            t_next = std::min(t_next, outage_order[next_outage].start_s);
        for (const Segment &s : running)
            if (s.job >= 0)
                t_next = std::min(t_next, s.end_s);
        for (int g = 0; g < gpus; ++g)
            if (is_out[g] && !std::isinf(out_until[g]))
                t_next = std::min(t_next, out_until[g]);
        if (!std::isfinite(t_next))
            sim::fatal("simulateElastic: stalled at t=%g with %zu jobs "
                       "unfinished (machine dead?)", now,
                       jobs.size() - done);
        now = std::max(now, t_next);

        // 1. Outages ending.
        for (int g = 0; g < gpus; ++g)
            if (is_out[g] && out_until[g] <= now + 1e-12)
                is_out[g] = false;

        // 2. Segment completions.
        for (std::size_t si = 0; si < running.size(); ++si) {
            Segment &s = running[si];
            if (s.job < 0 || s.end_s > now + 1e-12)
                continue;
            int width = static_cast<int>(s.gpus.size());
            busy_gpu_s += (s.end_s - s.start_s) * width;
            useful_gpu_s += (s.end_s - s.work_start_s) * width;
            Placement p;
            p.job = jobs[s.job].profile.name + "#" +
                    std::to_string(s.job) +
                    (segment_no[s.job] > 0
                         ? ".s" + std::to_string(segment_no[s.job]++)
                         : "");
            p.gpus = s.gpus;
            p.start_s = s.start_s;
            p.end_s = s.end_s;
            res.online.schedule.placements.push_back(std::move(p));
            final_end[s.job] = s.end_s;
            ++done;
            for (int g : s.gpus)
                seg_of[g] = -1;
            s.job = -1;
        }

        // 3. Outages starting: take the GPU out, interrupt its job.
        while (next_outage < outage_order.size() &&
               outage_order[next_outage].start_s <= now + 1e-12) {
            const GpuOutage &o = outage_order[next_outage++];
            double until =
                o.permanent() ? kInf : o.start_s + o.duration_s;
            out_until[o.gpu] = is_out[o.gpu]
                                   ? std::max(out_until[o.gpu], until)
                                   : until;
            is_out[o.gpu] = true;
            if (seg_of[o.gpu] >= 0)
                interrupt(seg_of[o.gpu]);
        }

        // 4. Arrivals.
        while (next_arrival < arrival_order.size() &&
               jobs[arrival_order[next_arrival]].arrival_s <=
                   now + 1e-12) {
            queue.push_back({arrival_order[next_arrival], 1.0, false});
            ++next_arrival;
        }

        // 5. FIFO dispatch at the current instant.
        while (!queue.empty()) {
            int width = desiredWidth(queue.front().job);
            auto idle = idleGpus();
            if (width < 1 || static_cast<int>(idle.size()) < width)
                break;
            QueueEntry e = queue.front();
            queue.pop_front();
            startSegment(e, {idle.begin(), idle.begin() + width});
        }
    }

    // Metrics.
    double wait_sum = 0.0, turn_sum = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        double wait = first_start[i] - jobs[i].arrival_s;
        wait_sum += wait;
        res.online.max_wait_s = std::max(res.online.max_wait_s, wait);
        turn_sum += final_end[i] - jobs[i].arrival_s;
        res.online.makespan_s =
            std::max(res.online.makespan_s, final_end[i]);
    }
    res.online.avg_wait_s = wait_sum / jobs.size();
    res.online.avg_turnaround_s = turn_sum / jobs.size();
    res.online.utilization =
        res.online.makespan_s > 0.0
            ? busy_gpu_s / (res.online.makespan_s * gpus)
            : 0.0;
    res.goodput = busy_gpu_s > 0.0 ? useful_gpu_s / busy_gpu_s : 1.0;
    double out_gpu_s = 0.0;
    for (const auto &o : outages) {
        double end = o.permanent() ? res.online.makespan_s
                                   : std::min(o.start_s + o.duration_s,
                                              res.online.makespan_s);
        out_gpu_s += std::max(0.0, end - std::min(o.start_s,
                                                  res.online.makespan_s));
    }
    res.availability =
        res.online.makespan_s > 0.0
            ? 1.0 - out_gpu_s / (res.online.makespan_s * gpus)
            : 1.0;
    return res;
}

} // namespace mlps::reference

#endif // MLPSIM_TESTS_SCHED_REFERENCE_H
