#include "sched/online.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>

#include "sim/logger.h"

namespace mlps::sched {

std::string
toString(OnlinePolicy policy)
{
    switch (policy) {
      case OnlinePolicy::FifoFullWidth: return "fifo-full-width";
      case OnlinePolicy::FifoBestWidth: return "fifo-best-width";
      case OnlinePolicy::Backfill: return "backfill";
    }
    sim::panic("toString: bad OnlinePolicy %d",
               static_cast<int>(policy));
}

std::string
toString(RecoveryPolicy policy)
{
    switch (policy) {
      case RecoveryPolicy::Requeue: return "requeue";
      case RecoveryPolicy::Shrink: return "shrink";
      case RecoveryPolicy::Migrate: return "migrate";
    }
    sim::panic("toString: bad RecoveryPolicy %d",
               static_cast<int>(policy));
}

namespace {

/** Largest power of two <= n (0 when n < 1). */
int
largestPow2(int n)
{
    int w = 0;
    for (int c = 1; c <= n; c *= 2)
        w = c;
    return w;
}

} // namespace

OnlineMetrics
simulateOnline(const std::vector<OnlineJob> &jobs, int gpus,
               OnlinePolicy policy)
{
    return simulateElastic(jobs, gpus, policy, {},
                           RecoveryPolicy::Requeue)
        .online;
}

ElasticMetrics
simulateElastic(const std::vector<OnlineJob> &jobs, int gpus,
                OnlinePolicy policy,
                const std::vector<GpuOutage> &outages,
                RecoveryPolicy recovery, double checkpoint_every_s,
                double restart_overhead_s)
{
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
    bool backfill = policy == OnlinePolicy::Backfill;
    if (backfill && !outages.empty()) {
        sim::warn("simulateElastic: backfill reservations are not "
                  "modeled under faults; using fifo-best-width");
        backfill = false;
    }

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

    // One running segment of a (possibly interrupted) job. Its
    // placement is recorded when it starts, with the planned end;
    // an interruption cuts that end short.
    struct Segment {
        int job = -1;
        std::size_t placement = 0; ///< index into the schedule
        double work_start_s = 0.0; ///< start + restart overhead
        double rem0 = 1.0;         ///< remaining work fraction at start
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
    std::vector<Placement> &placements = res.online.schedule.placements;
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
                    : jobs[ji].profile.bestWidth(gpus);
        return std::min(w, largestPow2(aliveGpus()));
    };
    // When `width` GPUs are free at once: the width-th earliest free
    // time, `now` for an idle GPU and the segment's end for a busy one.
    auto reservation = [&](int width) {
        std::vector<double> free_at(gpus, now);
        for (int g = 0; g < gpus; ++g)
            if (seg_of[g] >= 0)
                free_at[g] = placements[running[seg_of[g]].placement].end_s;
        std::nth_element(free_at.begin(), free_at.begin() + width - 1,
                         free_at.end());
        return free_at[width - 1];
    };

    auto startSegment = [&](const QueueEntry &e,
                            std::vector<int> chosen) {
        const JobSpec &prof = jobs[e.job].profile;
        int width = static_cast<int>(chosen.size());
        double overhead = e.resumed ? restart_overhead_s : 0.0;
        Segment s;
        s.job = e.job;
        s.placement = placements.size();
        s.work_start_s = now + overhead;
        s.rem0 = e.remaining;
        res.restart_s += overhead * width;
        if (first_start[e.job] < 0.0)
            first_start[e.job] = now;
        int idx = static_cast<int>(running.size());
        for (int g : chosen)
            seg_of[g] = idx;
        double end = s.work_start_s + e.remaining * prof.timeAt(width);
        placements.push_back({prof.name + "#" + std::to_string(e.job),
                              std::move(chosen), now, end});
        running.push_back(s);
    };

    // Retire a segment: free its GPUs and name its placement; a job
    // that was ever interrupted names each segment `.sN`.
    auto retire = [&](int seg_idx, bool interrupted) {
        Segment &s = running[seg_idx];
        Placement &p = placements[s.placement];
        if (interrupted || segment_no[s.job] > 0)
            p.job += ".s" + std::to_string(segment_no[s.job]++);
        for (int g : p.gpus)
            seg_of[g] = -1;
        s.job = -1; // tombstone
    };

    // Interrupt a segment whose GPU just went out: compute
    // checkpoint-preserved progress and hand the job to the recovery
    // policy.
    auto interrupt = [&](int seg_idx) {
        Segment s = running[seg_idx];
        Placement &p = placements[s.placement];
        std::vector<int> survivors;
        for (int g : p.gpus)
            if (!is_out[g])
                survivors.push_back(g);
        int width = p.width();
        double full = jobs[s.job].profile.timeAt(width);
        double worked = std::max(0.0, now - s.work_start_s);
        double preserved =
            std::floor(worked / checkpoint_every_s) *
            checkpoint_every_s;
        double lost = worked - preserved;
        res.lost_work_s += lost * width;
        ++res.interruptions;
        busy_gpu_s += (now - p.start_s) * width;
        useful_gpu_s += preserved * width;
        double remaining = std::max(0.0, s.rem0 - preserved / full);
        p.end_s = now;
        retire(seg_idx, true);

        if (remaining <= 1e-12) {
            final_end[s.job] = now;
            ++done;
            return;
        }
        QueueEntry entry{s.job, remaining, true};
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
                t_next = std::min(t_next, placements[s.placement].end_s);
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
            const Segment &s = running[si];
            if (s.job < 0)
                continue;
            const Placement &p = placements[s.placement];
            if (p.end_s > now + 1e-12)
                continue;
            int width = p.width();
            busy_gpu_s += (p.end_s - p.start_s) * width;
            useful_gpu_s += (p.end_s - s.work_start_s) * width;
            final_end[s.job] = p.end_s;
            ++done;
            retire(static_cast<int>(si), false);
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

        // 5. Dispatch at the current instant: the head when its width
        // is idle; otherwise, under backfill, the first later job
        // that fits the idle GPUs and ends by the head's reservation.
        while (!queue.empty()) {
            auto idle = idleGpus();
            int free = static_cast<int>(idle.size());
            int width = desiredWidth(queue.front().job);
            std::size_t pick = 0;
            if (width < 1 || free < width) {
                if (!backfill || free == 0)
                    break;
                double reserved = reservation(width);
                for (pick = 1; pick < queue.size(); ++pick) {
                    int ji = queue[pick].job;
                    width = std::min(desiredWidth(ji), largestPow2(free));
                    if (now + jobs[ji].profile.timeAt(width) <=
                        reserved + 1e-9)
                        break;
                }
                if (pick == queue.size())
                    break;
            }
            QueueEntry e = queue[pick];
            queue.erase(queue.begin() + pick);
            startSegment(e, {idle.begin(), idle.begin() + width});
        }
    }

    // Metrics.
    OnlineMetrics &online = res.online;
    online.makespan_s = online.schedule.makespan();
    online.utilization = online.schedule.utilization();
    double wait_sum = 0.0, turn_sum = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        double wait = first_start[i] - jobs[i].arrival_s;
        wait_sum += wait;
        online.max_wait_s = std::max(online.max_wait_s, wait);
        turn_sum += final_end[i] - jobs[i].arrival_s;
    }
    online.avg_wait_s = wait_sum / jobs.size();
    online.avg_turnaround_s = turn_sum / jobs.size();
    res.goodput = busy_gpu_s > 0.0 ? useful_gpu_s / busy_gpu_s : 1.0;
    double out_gpu_s = 0.0;
    for (const auto &o : outages) {
        double end = o.permanent() ? online.makespan_s
                                   : std::min(o.start_s + o.duration_s,
                                              online.makespan_s);
        out_gpu_s += std::max(0.0, end - std::min(o.start_s,
                                                  online.makespan_s));
    }
    res.availability =
        online.makespan_s > 0.0
            ? 1.0 - out_gpu_s / (online.makespan_s * gpus)
            : 1.0;
    return res;
}

std::vector<GpuOutage>
outagesFromTrace(const std::vector<fault::FaultEvent> &trace,
                 double min_outage_s)
{
    std::vector<GpuOutage> outages;
    for (const fault::FaultEvent &ev : trace) {
        if (ev.resource < 0)
            continue;
        if (ev.kind == fault::FaultKind::GpuLoss) {
            outages.push_back({ev.resource, ev.start_s, 0.0});
        } else if ((ev.kind == fault::FaultKind::EccRetryStorm ||
                    ev.kind == fault::FaultKind::GpuStall) &&
                   ev.duration_s >= min_outage_s) {
            outages.push_back({ev.resource, ev.start_s, ev.duration_s});
        }
    }
    return outages;
}

std::vector<GpuOutage>
outagesFromLinkTrace(const std::vector<fault::LinkFaultEvent> &trace,
                     const sys::SystemConfig &system,
                     double min_outage_s)
{
    // Map topology GPU node id -> scheduler GPU ordinal.
    auto ordinalOf = [&](net::NodeId node) {
        for (std::size_t i = 0; i < system.gpu_nodes.size(); ++i) {
            if (system.gpu_nodes[i] == node)
                return static_cast<int>(i);
        }
        return -1;
    };

    std::vector<GpuOutage> outages;
    for (const fault::LinkFaultEvent &ev : trace) {
        if (ev.kind == fault::LinkFaultKind::LinkDown && ev.edge >= 0) {
            if (ev.duration_s > 0.0 && ev.duration_s < min_outage_s)
                continue;
            auto [a, b] = system.topo.endpoints(ev.edge);
            for (net::NodeId n : {a, b}) {
                if (system.topo.kind(n) != net::NodeKind::Gpu)
                    continue;
                int gpu = ordinalOf(n);
                if (gpu >= 0)
                    outages.push_back({gpu, ev.start_s,
                                       std::max(ev.duration_s, 0.0)});
            }
        } else if (ev.kind == fault::LinkFaultKind::ThermalThrottle &&
                   ev.gpu >= 0 && ev.duration_s >= min_outage_s) {
            outages.push_back({ev.gpu, ev.start_s, ev.duration_s});
        }
    }
    return outages;
}

std::vector<OnlineJob>
poissonJobStream(const std::vector<JobSpec> &catalogue, int count,
                 double mean_interarrival_s, std::uint64_t seed)
{
    if (catalogue.empty())
        sim::fatal("poissonJobStream: empty catalogue");
    if (count < 1 || mean_interarrival_s <= 0.0)
        sim::fatal("poissonJobStream: bad stream parameters");
    sim::Rng rng(seed);
    std::vector<OnlineJob> jobs;
    double t = 0.0;
    for (int i = 0; i < count; ++i) {
        OnlineJob j;
        j.profile = catalogue[rng.below(catalogue.size())];
        j.profile.name += "_a" + std::to_string(i);
        j.arrival_s = t;
        jobs.push_back(std::move(j));
        // Exponential inter-arrival.
        double u = std::max(rng.uniform(), 1e-12);
        t += -mean_interarrival_s * std::log(u);
    }
    return jobs;
}

} // namespace mlps::sched
