#include "net/transfer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "sim/logger.h"

namespace mlps::net {

namespace {

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Fold 'v' into the running hash 'h' (FNV-1a over 64-bit words). */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * 0x100000001b3ULL;
}

} // namespace

/** Position-by-position maps from a representative's slots and edges
 *  to a candidate's; -1 is unmapped. sameClass() leaves them all -1. */
struct FlowSimulator::PairMaps {
    std::vector<int> slot;
    std::vector<int> slot_inv;
    std::vector<int> edge;
    std::vector<int> edge_inv;
    /** The representative's directed slots, ascending and distinct. */
    std::vector<int> rep_slots;

    /** Pair x with y: true when neither is paired elsewhere. */
    static bool bind(std::vector<int> &map, std::vector<int> &inv, int x,
                     int y)
    {
        if (map[x] >= 0)
            return map[x] == y;
        if (inv[y] >= 0)
            return false;
        map[x] = y;
        inv[y] = x;
        return true;
    }
};

FlowSimulator::FlowSimulator(const Topology &topo)
    : topo_(topo), edge_bytes_(topo.edgeCount(), 0.0)
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
FlowSimulator::classify()
{
    // Components: union-find over flows, joined through the first flow
    // to cross each undirected edge. Uniting under the lower root keeps
    // every root its component's lowest flow. Undirected, so that each
    // edge's byte total comes from one component.
    int n = static_cast<int>(flows_.size());
    std::vector<int> root(n);
    std::iota(root.begin(), root.end(), 0);
    auto find = [&root](int x) {
        while (root[x] != x) {
            root[x] = root[root[x]];
            x = root[x];
        }
        return x;
    };
    std::vector<int> edge_flow(topo_.edgeCount(), -1);
    for (int fi = 0; fi < n; ++fi) {
        for (int e : flows_[fi].path.edges) {
            if (edge_flow[e] < 0) {
                edge_flow[e] = fi;
                continue;
            }
            int a = find(fi);
            int b = find(edge_flow[e]);
            root[std::max(a, b)] = std::min(a, b);
        }
    }
    for (int e = 0; e < topo_.edgeCount(); ++e) {
        if (edge_flow[e] >= 0)
            routed_edges_.push_back(e);
    }

    // Number components by their lowest flow and group flows (CSR).
    std::vector<int> component_of(n);
    for (int fi = 0; fi < n; ++fi) {
        int r = find(fi);
        if (r != fi) {
            component_of[fi] = component_of[r];
            continue;
        }
        component_of[fi] = static_cast<int>(rep_of_.size());
        rep_of_.push_back(-1);
    }
    int components = static_cast<int>(rep_of_.size());
    component_begin_.assign(components + 1, 0);
    for (int c : component_of)
        ++component_begin_[c + 1];
    for (int c = 0; c < components; ++c)
        component_begin_[c + 1] += component_begin_[c];
    component_flows_.resize(n);
    {
        std::vector<int> fill(component_begin_.begin(),
                              component_begin_.end() - 1);
        for (int fi = 0; fi < n; ++fi)
            component_flows_[fill[component_of[fi]]++] = fi;
    }

    // Classes: a component joins the first representative it copies
    // exactly, else represents a new class. Sorting on a hash of what
    // sameClass compares flow by flow brings the candidates together;
    // each run of one hash meets its components in ascending order.
    std::vector<std::pair<std::uint64_t, int>> keyed(components);
    for (int c = 0; c < components; ++c) {
        std::uint64_t key = 0xcbf29ce484222325ULL;
        for (int fi : flowsOf(c)) {
            const Flow &f = flows_[fi];
            key = mix(key, bits(f.bytes));
            key = mix(key, bits(f.start_s));
            key = mix(key, bits(f.latency_s));
            key = mix(key, f.path.edges.size());
        }
        keyed[c] = {key, c};
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<int> reps; // of the current hash
    PairMaps maps;
    for (std::size_t i = 0; i < keyed.size(); ++i) {
        if (i > 0 && keyed[i].first != keyed[i - 1].first)
            reps.clear();
        int c = keyed[i].second;
        for (std::size_t k = 0; k < reps.size() && rep_of_[c] < 0; ++k) {
            if (sameClass(reps[k], c, maps))
                rep_of_[c] = reps[k];
        }
        if (rep_of_[c] < 0) {
            rep_of_[c] = c;
            reps.push_back(c);
        }
    }
    for (int fi = 0; fi < n; ++fi) {
        if (rep_of_[component_of[fi]] == component_of[fi])
            simulated_.push_back(fi);
    }
}

bool
FlowSimulator::sameClass(int r, int c, PairMaps &maps) const
{
    std::span<const int> rf = flowsOf(r);
    std::span<const int> cf = flowsOf(c);
    if (rf.size() != cf.size())
        return false;
    if (maps.slot.empty()) {
        maps.slot.assign(topo_.edgeCount() * 2, -1);
        maps.slot_inv.assign(topo_.edgeCount() * 2, -1);
        maps.edge.assign(topo_.edgeCount(), -1);
        maps.edge_inv.assign(topo_.edgeCount(), -1);
    }
    maps.rep_slots.clear();
    for (int fi : rf) {
        std::span<const int> s = slotsOf(fi);
        maps.rep_slots.insert(maps.rep_slots.end(), s.begin(), s.end());
    }
    std::sort(maps.rep_slots.begin(), maps.rep_slots.end());
    maps.rep_slots.erase(
        std::unique(maps.rep_slots.begin(), maps.rep_slots.end()),
        maps.rep_slots.end());

    // Pair the flows in flow-id order, and their hops position by
    // position: equal sizes, start and propagation times, and slot and
    // edge maps that are bijections joining links of equal capacity.
    bool same = true;
    for (std::size_t k = 0; k < rf.size() && same; ++k) {
        const Flow &a = flows_[rf[k]];
        const Flow &b = flows_[cf[k]];
        same = bits(a.bytes) == bits(b.bytes) &&
               bits(a.start_s) == bits(b.start_s) &&
               bits(a.latency_s) == bits(b.latency_s) &&
               a.path.edges.size() == b.path.edges.size();
        std::span<const int> sa = slotsOf(rf[k]);
        std::span<const int> sb = slotsOf(cf[k]);
        for (std::size_t i = 0; i < sa.size() && same; ++i) {
            int ea = sa[i] / 2;
            int eb = sb[i] / 2;
            bool fresh = maps.edge[ea] < 0;
            same = PairMaps::bind(maps.slot, maps.slot_inv, sa[i], sb[i]) &&
                   PairMaps::bind(maps.edge, maps.edge_inv, ea, eb) &&
                   (!fresh || topo_.effectiveLinkBytesPerSec(ea) ==
                                  topo_.effectiveLinkBytesPerSec(eb));
        }
    }
    // The slot map must keep dense-slot order: fair sharing breaks
    // equal-share ties on the lowest slot, so a copy ties the same way
    // only if its slots sort like the representative's.
    int prev = -1;
    for (int s : maps.rep_slots) {
        if (same && maps.slot[s] <= prev)
            same = false;
        prev = maps.slot[s];
        if (maps.slot[s] >= 0)
            maps.slot_inv[maps.slot[s]] = -1;
        maps.slot[s] = -1;
        int e = s / 2;
        if (maps.edge[e] >= 0)
            maps.edge_inv[maps.edge[e]] = -1;
        maps.edge[e] = -1;
    }
    return same;
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
            for (int e : f.path.edges)
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

    classify();
    prepareFairShare();
    simulate();
    // Each class member ends as its representative did: flow by flow,
    // hop by hop.
    for (int c = 0; c + 1 < static_cast<int>(component_begin_.size());
         ++c) {
        if (rep_of_[c] == c)
            continue;
        std::span<const int> rf = flowsOf(rep_of_[c]);
        std::span<const int> cf = flowsOf(c);
        for (std::size_t k = 0; k < rf.size(); ++k) {
            reports_[cf[k]].finish_s = reports_[rf[k]].finish_s;
            const std::vector<int> &re = flows_[rf[k]].path.edges;
            const std::vector<int> &ce = flows_[cf[k]].path.edges;
            for (std::size_t i = 0; i < re.size(); ++i)
                edge_bytes_[ce[i]] = edge_bytes_[re[i]];
        }
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
