#include "net/transfer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "sim/logger.h"

namespace mlps::net {

namespace {

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

} // namespace

FlowSimulator::FlowSimulator(const Topology &topo)
    : topo_(topo), edge_bytes_(topo.edgeCount(), 0.0)
{
    for (int level = 0; level < Topology::kGatewayLevels; ++level)
        levels_[level].copies = topo.blockCopies(level);
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
    Flow f;
    f.from = from;
    f.to = to;
    f.bytes = bytes;
    f.remaining = bytes;
    f.start_s = start_s;
    if (addCopy(f)) {
        flows_.push_back(std::move(f));
        return static_cast<FlowId>(flows_.size()) - 1;
    }
    f.path = topo_.sharedRoute(from, to);
    if (!f.path)
        sim::fatal("FlowSimulator: no route %s -> %s",
                   topo_.name(from).c_str(), topo_.name(to).c_str());
    const Path &path = *f.path;
    // Encode each traversal as edge*2 + direction so that full-duplex
    // links expose independent capacity per direction.
    f.slot_begin = static_cast<int>(flow_slots_.size());
    for (std::size_t i = 0; i < path.edges.size(); ++i) {
        int e = path.edges[i];
        auto [a, b] = topo_.endpoints(e);
        int dir = (path.nodes[i] == a && path.nodes[i + 1] == b) ? 0 : 1;
        flow_slots_.push_back(e * 2 + dir);
    }
    f.slot_end = static_cast<int>(flow_slots_.size());
    f.latency_s = topo_.pathLatency(path);
    flows_.push_back(std::move(f));
    return static_cast<FlowId>(flows_.size()) - 1;
}

bool
FlowSimulator::addCopy(Flow &f)
{
    const int nodes = topo_.nodeCount();
    if (f.from < 0 || f.from >= nodes || f.to < 0 || f.to >= nodes)
        return false; // routing rejects it
    bool claimed = false;
    for (int level = 0; level < Topology::kGatewayLevels; ++level) {
        if (levels_[level].copies)
            claimed = copyAt(level, f, claimed) || claimed;
    }
    return claimed;
}

bool
FlowSimulator::copyAt(int level, Flow &f, bool claimed)
{
    Level &l = levels_[level];
    const int a = l.copies->block_of[f.from];
    const int b = l.copies->block_of[f.to];
    if (a < 0 && b < 0)
        return false; // a path between two outside nodes enters no cell
    if (l.blocks.empty())
        l.blocks.resize(l.copies->node_offset.size());
    if (a != b || claimed) {
        // Its path crosses links of both blocks, or it is no flow of
        // its block's sequence.
        for (int k : {a, b}) {
            if (k >= 0)
                l.blocks[k].broken = true;
        }
        return false;
    }
    if (a == 0) {
        l.first_flows.push_back(static_cast<int>(flows_.size()));
        return false;
    }
    BlockState &s = l.blocks[a];
    if (s.broken)
        return false;
    const NodeId shift = l.copies->node_offset[a];
    if (s.copies < static_cast<int>(l.first_flows.size())) {
        const int twin = l.first_flows[s.copies];
        const Flow &t = flows_[twin];
        if (s.matches < 0)
            s.matches = topo_.blockMatchesFirst(level, a);
        if (s.matches && t.from + shift == f.from && t.to + shift == f.to &&
            bits(t.bytes) == bits(f.bytes) &&
            bits(t.start_s) == bits(f.start_s)) {
            if (copies_++ == 0)
                copy_epoch_ = topo_.epoch();
            ++s.copies;
            f.twin = twin;
            f.level = level;
            f.block = a;
            return true;
        }
    }
    s.broken = true;
    return false;
}

bool
FlowSimulator::copiesHold(int level, int k) const
{
    const Level &l = levels_[level];
    return !l.blocks[0].broken && !l.blocks[k].broken &&
           l.blocks[k].copies == static_cast<int>(l.first_flows.size()) &&
           topo_.epoch() == copy_epoch_;
}

void
FlowSimulator::routeCopy(int fi)
{
    Flow &f = flows_[fi];
    const Flow &t = flows_[f.twin];
    const Topology::BlockCopies &c = *levels_[f.level].copies;
    const NodeId dn = c.node_offset[f.block];
    const int de = c.edge_offset[f.block];
    auto path = std::make_shared<Path>(*t.path);
    for (NodeId &n : path->nodes)
        n += dn;
    for (int &e : path->edges)
        e += de;
    f.path = std::move(path);
    f.slot_begin = static_cast<int>(flow_slots_.size());
    for (int k = t.slot_begin; k < t.slot_end; ++k)
        flow_slots_.push_back(flow_slots_[k] + 2 * de);
    f.slot_end = static_cast<int>(flow_slots_.size());
    f.latency_s = t.latency_s;
    f.twin = -1;
    f.level = -1;
    f.block = -1;
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
        // numerical guard (capacities may underflow slightly). It
        // also lists every slot at that share, ascending: the ties.
        double level = std::numeric_limits<double>::infinity();
        ties_.clear();
        std::size_t kept = 0;
        for (int s : live_) {
            if (users_[s] == 0)
                continue;
            live_[kept++] = s;
            cap_[s] = std::max(cap_[s], 0.0);
            double share = cap_[s] / users_[s];
            if (share < level) {
                level = share;
                ties_.assign(1, s);
            } else if (share == level && !ties_.empty()) {
                ties_.push_back(s);
            }
        }
        live_.resize(kept);
        if (ties_.empty())
            break;
        // Freeze the ties in slot order without scanning again while
        // each is the slot a scan would pick. Untouched slots keep
        // their share: the level for the ties left, above it for the
        // rest. So tie t is the pick when (a) its share is still the
        // level, so no flow crossing it froze since the scan (that
        // would have left it above the level, by (b)), and (b) every
        // slot the last freeze changed that still has users is
        // strictly above the level. Each freeze then subtracts the
        // level slot by slot as the scan's pick would; when a guard
        // fails, scan again.
        for (int t : ties_) {
            if (users_[t] == 0)
                continue; // its flows froze with earlier ties
            if (cap_[t] / users_[t] != level || !freezeAbove(t, level))
                break;
        }
    }
    // Every slot's flows froze, so users_ is all zero again. Active
    // flows with zero-hop paths (same node) cross no slot: infinite
    // rate — treat as instantaneous via a huge rate.
    for (int fi : active) {
        if (unfrozen_[fi]) {
            unfrozen_[fi] = 0;
            rate_[fi] = 1e18;
        }
    }
}

bool
FlowSimulator::freezeAbove(int t, double level)
{
    const int begin = slot_flows_begin_[t];
    const int end = slot_flows_begin_[t + 1];
    for (int k = begin; k < end; ++k) {
        int fi = slot_flows_[k];
        if (unfrozen_[fi] != 1)
            continue;
        unfrozen_[fi] = 2; // frozen by this call
        rate_[fi] = level;
        for (int s : slotsOf(fi)) {
            cap_[s] -= level;
            --users_[s];
        }
    }
    bool above = true;
    for (int k = begin; k < end; ++k) {
        int fi = slot_flows_[k];
        if (unfrozen_[fi] != 2)
            continue;
        unfrozen_[fi] = 0;
        for (int s : slotsOf(fi))
            above = above && (users_[s] == 0 ||
                              std::max(cap_[s], 0.0) / users_[s] > level);
    }
    return above;
}

void
FlowSimulator::prepareFairShare()
{
    // Number the simulated flows' directed slots densely, in
    // directed-slot order.
    std::vector<int> index(topo_.edgeCount() * 2, -1);
    std::vector<int> slot_of; // dense index -> directed slot
    for (int fi : simulated_) {
        for (int s : slotsOf(fi))
            index[s] = 0;
    }
    for (int d = 0; d < static_cast<int>(index.size()); ++d) {
        if (index[d] == 0) {
            index[d] = static_cast<int>(slot_of.size());
            slot_of.push_back(d);
        }
    }
    for (int fi : simulated_) {
        for (int k = flows_[fi].slot_begin; k < flows_[fi].slot_end; ++k)
            flow_slots_[k] = index[flow_slots_[k]];
    }
    int slots = static_cast<int>(slot_of.size());
    base_cap_.resize(slots);
    for (int s = 0; s < slots; ++s)
        base_cap_[s] = topo_.effectiveLinkBytesPerSec(slot_of[s] / 2);
    cap_.resize(slots);
    users_.assign(slots, 0);
    live_.reserve(slots);
    slot_flows_begin_.assign(slots + 1, 0);
    for (int fi : simulated_) {
        for (int s : slotsOf(fi))
            ++slot_flows_begin_[s + 1];
    }
    for (int s = 0; s < slots; ++s)
        slot_flows_begin_[s + 1] += slot_flows_begin_[s];
    slot_flows_.resize(slot_flows_begin_[slots]);
    {
        std::vector<int> fill(slot_flows_begin_.begin(),
                              slot_flows_begin_.end() - 1);
        for (int fi : simulated_) {
            for (int s : slotsOf(fi))
                slot_flows_[fill[s]++] = fi;
        }
    }
    rate_.assign(flows_.size(), 0.0);
    unfrozen_.assign(flows_.size(), 0);
}

void
FlowSimulator::simulate()
{
    double now = 0.0;
    std::vector<int> active;
    for (;;) {
        // Active = started, not done. Pending = not yet started.
        active.clear();
        double next_start = std::numeric_limits<double>::infinity();
        bool any_pending = false;
        for (int fi : simulated_) {
            const Flow &f = flows_[fi];
            if (f.done)
                continue;
            double effective_start = f.start_s + f.latency_s;
            if (now + 1e-15 >= effective_start) {
                active.push_back(fi);
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
            for (int e : f.path->edges)
                edge_bytes_[e] += used;
            if (f.remaining <= 1e-9) {
                f.remaining = 0.0;
                f.done = true;
                reports_[fi].finish_s = now + dt;
            }
        }
        now += dt;
    }
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

    // A block's copies stay unrouted only if the block copied the
    // first block's flows exactly and nothing else touched either.
    if (copies_ > 0) {
        for (int fi = 0; fi < static_cast<int>(flows_.size()); ++fi) {
            const Flow &f = flows_[fi];
            if (f.twin >= 0 && !copiesHold(f.level, f.block)) {
                routeCopy(fi);
                --copies_;
            }
        }
    }
    // Routes were fixed as flows were added: a link that went down
    // since would leave a flow no capacity.
    if (topo_.anyLinkDown()) {
        for (std::size_t fi = 0; fi < flows_.size(); ++fi) {
            const Flow &f = flows_[fi];
            if (!f.path)
                continue; // a kept copy: its twin's route, shifted
            for (int e : f.path->edges) {
                if (!topo_.linkDown(e))
                    continue;
                auto [a, b] = topo_.endpoints(e);
                sim::fatal("FlowSimulator: link %d (%s <-> %s) went down "
                           "after flow %zu (%s -> %s) was routed over it",
                           e, topo_.name(a).c_str(), topo_.name(b).c_str(),
                           fi, topo_.name(f.from).c_str(),
                           topo_.name(f.to).c_str());
            }
        }
    }
    // Simulate every routed flow; note the edges every flow crosses.
    std::vector<char> crossed(topo_.edgeCount(), 0);
    for (int fi = 0; fi < static_cast<int>(flows_.size()); ++fi) {
        const Flow &f = flows_[fi];
        if (f.twin < 0) {
            simulated_.push_back(fi);
            for (int e : f.path->edges)
                crossed[e] = 1;
            continue;
        }
        const int de = levels_[f.level].copies->edge_offset[f.block];
        for (int e : flows_[f.twin].path->edges)
            crossed[e + de] = 1;
    }
    for (int e = 0; e < topo_.edgeCount(); ++e) {
        if (crossed[e])
            routed_edges_.push_back(e);
    }
    prepareFairShare();
    simulate();
    // Each copy ends as its twin did, its links shifted.
    if (copies_ > 0) {
        for (FlowReport &r : reports_) {
            const Flow &f = flows_[r.id];
            if (f.twin < 0)
                continue;
            r.finish_s = reports_[f.twin].finish_s;
            const int de = levels_[f.level].copies->edge_offset[f.block];
            for (int e : flows_[f.twin].path->edges)
                edge_bytes_[e + de] = edge_bytes_[e];
        }
    }
    double makespan = 0.0;
    for (const auto &r : reports_)
        makespan = std::max(makespan, r.finish_s);
    return makespan;
}

FlowSimulator::LinkBytes
FlowSimulator::linkBytes() const
{
    // Edges no flow crosses carry +0.0, which leaves a sum as is.
    LinkBytes out;
    for (int e : routed_edges_) {
        const LinkSpec &link = topo_.link(e);
        out.kind[static_cast<int>(link.kind)] += edge_bytes_[e];
        out.tier[static_cast<int>(link.tier)] += edge_bytes_[e];
    }
    return out;
}

} // namespace mlps::net
