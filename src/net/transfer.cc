#include "net/transfer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logger.h"

namespace mlps::net {

FlowSimulator::FlowSimulator(const Topology &topo)
    : topo_(topo), edge_bytes_(topo.edgeCount(), 0.0),
      slot_index_(topo.edgeCount() * 2, -1)
{
}

FlowId
FlowSimulator::addFlow(NodeId from, NodeId to, double bytes, double start_s)
{
    if (ran_)
        sim::fatal("FlowSimulator: addFlow after run()");
    if (bytes < 0.0)
        sim::fatal("FlowSimulator: negative flow size %g", bytes);
    if (start_s < 0.0)
        sim::fatal("FlowSimulator: negative start time %g", start_s);
    auto path = topo_.route(from, to);
    if (!path)
        sim::fatal("FlowSimulator: no route %s -> %s",
                   topo_.name(from).c_str(), topo_.name(to).c_str());
    Flow f;
    f.path = std::move(*path);
    // Encode each traversal as edge*2 + direction so that full-duplex
    // links expose independent capacity per direction.
    f.slot_begin = static_cast<int>(flow_slots_.size());
    for (std::size_t i = 0; i < f.path.edges.size(); ++i) {
        int e = f.path.edges[i];
        auto [a, b] = topo_.endpoints(e);
        int dir = (f.path.nodes[i] == a && f.path.nodes[i + 1] == b) ? 0
                                                                       : 1;
        flow_slots_.push_back(e * 2 + dir);
        slot_index_[e * 2 + dir] = 0;
    }
    f.slot_end = static_cast<int>(flow_slots_.size());
    f.bytes = bytes;
    f.remaining = bytes;
    f.start_s = start_s;
    f.latency_s = topo_.pathLatency(f.path);
    flows_.push_back(std::move(f));
    return static_cast<FlowId>(flows_.size()) - 1;
}

void
FlowSimulator::fairShare(const std::vector<int> &active)
{
    // Progressive-filling max-min fairness over directed link
    // capacities: repeatedly find the most constrained (link,
    // direction), freeze its flows at the equal share, remove the
    // capacity they consume, repeat. Links are full duplex, so each
    // direction has independent capacity. Dense slots are numbered in
    // directed-slot order, so a strict-'<' scan over the used ones
    // picks the same bottleneck as a scan over every directed slot.
    std::fill(unfrozen_.begin(), unfrozen_.end(), 0);
    std::fill(users_.begin(), users_.end(), 0);
    for (int fi : active) {
        unfrozen_[fi] = 1;
        for (int s : slotsOf(fi))
            ++users_[s];
    }
    live_.clear();
    for (int s = 0; s < static_cast<int>(users_.size()); ++s) {
        if (users_[s] > 0) {
            cap_[s] = base_cap_[s];
            live_.push_back(s);
        }
    }

    for (;;) {
        // Most constrained slot = min cap/users over used slots; the
        // scan drops slots whose flows are all frozen and applies the
        // numerical guard (capacities may underflow slightly).
        double best_share = std::numeric_limits<double>::infinity();
        int best = -1;
        std::size_t kept = 0;
        for (int s : live_) {
            if (users_[s] == 0)
                continue;
            live_[kept++] = s;
            cap_[s] = std::max(cap_[s], 0.0);
            double share = cap_[s] / users_[s];
            if (share < best_share) {
                best_share = share;
                best = s;
            }
        }
        live_.resize(kept);
        if (best < 0)
            break;
        // Freeze flows crossing the bottleneck at the fair share.
        for (int k = slot_flows_begin_[best];
             k < slot_flows_begin_[best + 1]; ++k) {
            int fi = slot_flows_[k];
            if (!unfrozen_[fi])
                continue;
            unfrozen_[fi] = 0;
            rate_[fi] = best_share;
            for (int de : slotsOf(fi)) {
                cap_[de] -= best_share;
                --users_[de];
            }
        }
    }
    // Active flows with zero-hop paths (same node) cross no slot:
    // infinite rate — treat as instantaneous via a huge rate.
    for (int fi : active) {
        if (unfrozen_[fi])
            rate_[fi] = 1e18;
    }
}

void
FlowSimulator::prepareFairShare()
{
    // Flows are all in: number the used directed slots densely, in
    // directed-slot order, then release the lookup.
    for (int d = 0; d < static_cast<int>(slot_index_.size()); ++d) {
        if (slot_index_[d] != 0)
            continue;
        slot_index_[d] = static_cast<int>(slot_of_.size());
        slot_of_.push_back(d);
        if (routed_edges_.empty() || routed_edges_.back() != d / 2)
            routed_edges_.push_back(d / 2);
    }
    for (int &s : flow_slots_)
        s = slot_index_[s];
    std::vector<int>().swap(slot_index_);
    int slots = static_cast<int>(slot_of_.size());
    base_cap_.resize(slots);
    for (int s = 0; s < slots; ++s)
        base_cap_[s] = topo_.effectiveLinkBytesPerSec(slot_of_[s] / 2);
    cap_.resize(slots);
    users_.assign(slots, 0);
    live_.reserve(slots);
    slot_flows_begin_.assign(slots + 1, 0);
    for (int s : flow_slots_)
        ++slot_flows_begin_[s + 1];
    for (int s = 0; s < slots; ++s)
        slot_flows_begin_[s + 1] += slot_flows_begin_[s];
    slot_flows_.resize(slot_flows_begin_[slots]);
    {
        std::vector<int> fill(slot_flows_begin_.begin(),
                              slot_flows_begin_.end() - 1);
        for (int fi = 0; fi < static_cast<int>(flows_.size()); ++fi) {
            for (int s : slotsOf(fi))
                slot_flows_[fill[s]++] = fi;
        }
    }
    rate_.assign(flows_.size(), 0.0);
    unfrozen_.assign(flows_.size(), 0);
}

double
FlowSimulator::run()
{
    if (ran_)
        sim::fatal("FlowSimulator: run() called twice");
    ran_ = true;
    reports_.assign(flows_.size(), FlowReport{});
    for (std::size_t i = 0; i < flows_.size(); ++i) {
        reports_[i].id = static_cast<FlowId>(i);
        reports_[i].bytes = flows_[i].bytes;
        reports_[i].start_s = flows_[i].start_s;
    }
    if (flows_.empty())
        return 0.0;

    prepareFairShare();

    double now = 0.0;
    std::vector<int> active;
    for (;;) {
        // Active = started, not done. Pending = not yet started.
        active.clear();
        double next_start = std::numeric_limits<double>::infinity();
        bool any_pending = false;
        for (std::size_t i = 0; i < flows_.size(); ++i) {
            Flow &f = flows_[i];
            if (f.done)
                continue;
            double effective_start = f.start_s + f.latency_s;
            if (now + 1e-15 >= effective_start) {
                f.started = true;
                active.push_back(static_cast<int>(i));
            } else {
                any_pending = true;
                next_start = std::min(next_start, effective_start);
            }
        }
        if (active.empty()) {
            if (!any_pending)
                break;
            now = next_start;
            continue;
        }

        // Zero-byte flows complete immediately.
        bool completed_zero = false;
        for (int fi : active) {
            Flow &f = flows_[fi];
            if (f.remaining <= 0.0) {
                f.done = true;
                f.finish_s = now;
                reports_[fi].finish_s = now;
                completed_zero = true;
            }
        }
        if (completed_zero)
            continue;

        fairShare(active);

        // Time to next completion among active flows.
        double dt = std::numeric_limits<double>::infinity();
        for (int fi : active) {
            if (rate_[fi] > 0.0)
                dt = std::min(dt, flows_[fi].remaining / rate_[fi]);
        }
        if (any_pending)
            dt = std::min(dt, next_start - now);
        if (!std::isfinite(dt))
            sim::panic("FlowSimulator: stalled with active flows");

        // Advance.
        for (int fi : active) {
            Flow &f = flows_[fi];
            double moved = rate_[fi] * dt;
            double used = std::min(moved, f.remaining);
            f.remaining -= used;
            for (int e : f.path.edges)
                edge_bytes_[e] += used;
            if (f.remaining <= 1e-9) {
                f.remaining = 0.0;
                f.done = true;
                f.finish_s = now + dt;
                reports_[fi].finish_s = now + dt;
            }
        }
        now += dt;
    }
    double makespan = 0.0;
    for (const auto &r : reports_)
        makespan = std::max(makespan, r.finish_s);
    return makespan;
}

double
FlowSimulator::bytesOnKind(LinkKind kind) const
{
    // Edges no flow crosses carry +0.0, which leaves the sum as is.
    double total = 0.0;
    for (int e : routed_edges_) {
        if (topo_.link(e).kind == kind)
            total += edge_bytes_[e];
    }
    return total;
}

double
FlowSimulator::bytesOnTier(FabricTier tier) const
{
    double total = 0.0;
    for (int e : routed_edges_) {
        if (topo_.link(e).tier == tier)
            total += edge_bytes_[e];
    }
    return total;
}

} // namespace mlps::net
