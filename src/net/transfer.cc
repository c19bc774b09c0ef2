#include "net/transfer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/logger.h"

namespace mlps::net {

namespace {

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Flows grouped by key, each group in flow-id order (CSR). */
struct Groups {
    std::vector<int> begin; ///< per key its first entry, then the end
    std::vector<int> flows;

    /** Group flow fi under key[fi]; a key of -1 leaves it out. */
    Groups(const std::vector<int> &key, int keys) : begin(keys + 1, 0)
    {
        for (int k : key) {
            if (k >= 0)
                ++begin[k + 1];
        }
        for (int k = 0; k < keys; ++k)
            begin[k + 1] += begin[k];
        flows.resize(begin[keys]);
        std::vector<int> fill(begin.begin(), begin.end() - 1);
        for (int fi = 0; fi < static_cast<int>(key.size()); ++fi) {
            if (key[fi] >= 0)
                flows[fill[key[fi]]++] = fi;
        }
    }

    std::span<const int> operator[](int k) const
    {
        return {flows.data() + begin[k], flows.data() + begin[k + 1]};
    }
};

/** The twins of one level's blocks, each found on first use: the
 *  lowest block in its link state, cells only or with ways out. */
class Twins
{
  public:
    Twins(const Topology &topo, int level, int blocks)
        : topo_(topo), level_(level),
          twin_{std::vector<int>(blocks, -1), std::vector<int>(blocks, -1)}
    {
    }

    int of(int k, bool ways_out)
    {
        std::vector<int> &twin = twin_[ways_out];
        if (twin[k] >= 0)
            return twin[k];
        twin[k] = k;
        for (int j = 0; j < k; ++j) {
            // A block with a lower twin matches no block its twin
            // does not, and the twin comes first.
            if ((twin[j] < 0 || twin[j] == j) &&
                topo_.blocksMatch(level_, j, k, ways_out)) {
                twin[k] = j;
                break;
            }
        }
        return twin[k];
    }

    /** The lowest pair j in the link state of pair a: blocks j and
     *  j+1 those of blocks a and a+1, cells and ways out. */
    int ofPair(const std::vector<char> &pairs, int a)
    {
        for (int j = 0; j < a; ++j) {
            if (pairs[j] && of(j, true) == of(a, true) &&
                of(j + 1, true) == of(a + 1, true))
                return j;
        }
        return a;
    }

  private:
    const Topology &topo_;
    const int level_;
    std::vector<int> twin_[2];
};

/** One thread's buffers for breakSharedPairs(), reused across calls; a
 *  stamp marks the slots the current call has owned. */
struct PairScratch {
    std::vector<int> owner;           ///< per directed slot
    std::vector<std::uint32_t> stamp; ///< per directed slot
    std::uint32_t now = 0;
    std::vector<char> shared;         ///< per pair
};

thread_local PairScratch t_pairs;

} // namespace

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
    Flow f;
    f.from = from;
    f.to = to;
    f.bytes = bytes;
    f.remaining = bytes;
    f.start_s = start_s;
    flows_.push_back(std::move(f));
    return static_cast<FlowId>(flows_.size()) - 1;
}

void
FlowSimulator::findCopies()
{
    constexpr int kLevels = Topology::kGatewayLevels;
    const int n = static_cast<int>(flows_.size());
    const NodeId nodes = topo_.nodeCount();
    std::vector<int> key;
    // Blocks first, then pairs, each level from the lowest: a flow no
    // block kept may still be a pair's.
    for (bool pairs : {false, true}) {
        for (int level = 0; level < kLevels; ++level) {
            const Topology::BlockCopies *c = topo_.blockCopies(level);
            if (!c)
                continue;
            key.resize(n);
            const int blocks = static_cast<int>(c->node_offset.size());
            auto blockOf = [&](NodeId v) {
                return v >= 0 && v < nodes ? c->block_of[v] : -1;
            };
            // Blocks a flow enters or leaves: they neither keep copies
            // nor lend their flows as twins.
            std::vector<char> open(pairs ? 0 : blocks, 0);
            bool any = false;
            for (int fi = 0; fi < n; ++fi) {
                Flow &f = flows_[fi];
                const int a = blockOf(f.from);
                const int b = blockOf(f.to);
                if (!pairs) {
                    key[fi] = a == b ? a : -1;
                    for (int k : {a, b}) {
                        if (a != b && k >= 0)
                            open[k] = 1;
                    }
                } else if (f.twin < 0 && f.pair < 0 && a >= 0 &&
                           c->pairs[a] && b == a + 1) {
                    key[fi] = a;
                    f.pair = level + kLevels * a;
                } else {
                    key[fi] = -1;
                }
                any = any || key[fi] >= 0;
            }
            if (!any)
                continue;
            const Groups groups(key, blocks);
            Twins twins(topo_, level, blocks);
            for (int k = 0; k < blocks; ++k) {
                if (groups[k].empty() || (!pairs && open[k]))
                    continue;
                const int t = pairs ? twins.ofPair(c->pairs, k)
                                    : twins.of(k, false);
                if (t != k && (pairs || !open[t]))
                    keepCopies(groups[k], groups[t],
                               c->node_offset[k] - c->node_offset[t],
                               c->edge_offset[k] - c->edge_offset[t]);
            }
        }
    }
}

void
FlowSimulator::keepCopies(std::span<const int> copy,
                          std::span<const int> twin, NodeId dn, int shift)
{
    if (copy.size() != twin.size())
        return;
    for (std::size_t i = 0; i < copy.size(); ++i) {
        const Flow &f = flows_[copy[i]];
        const Flow &t = flows_[twin[i]];
        if (twin[i] > copy[i] || t.from + dn != f.from || t.to + dn != f.to ||
            bits(t.bytes) != bits(f.bytes) ||
            bits(t.start_s) != bits(f.start_s))
            return;
    }
    // A flow a host kept keeps its host twin.
    for (std::size_t i = 0; i < copy.size(); ++i) {
        Flow &f = flows_[copy[i]];
        if (f.twin < 0) {
            f.twin = twin[i];
            f.shift = shift;
        }
    }
}

void
FlowSimulator::route(int fi)
{
    Flow &f = flows_[fi];
    f.path = topo_.sharedRoute(f.from, f.to);
    if (!f.path)
        sim::fatal("FlowSimulator: no route %s -> %s",
                   topo_.name(f.from).c_str(), topo_.name(f.to).c_str());
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
}

template <typename Fn>
void
FlowSimulator::forEachSlot(int fi, Fn fn) const
{
    const Flow &f = flows_[fi];
    const Flow &r = f.twin >= 0 ? flows_[f.root] : f;
    for (int k = r.slot_begin; k < r.slot_end; ++k)
        fn(flow_slots_[k] + 2 * f.shift);
}

void
FlowSimulator::breakSharedPairs()
{
    // Each directed slot's owner: the pair whose flows alone cross it,
    // none (an old stamp) before any flow does, -2 once two pairs, or
    // a flow of no pair, do.
    if (std::none_of(flows_.begin(), flows_.end(), [](const Flow &f) {
            return f.twin >= 0 && f.pair >= 0;
        }))
        return;
    const int n = static_cast<int>(flows_.size());
    PairScratch &p = t_pairs;
    // A larger graph, or a stamp that wrapped, clears every slot.
    const std::size_t slots = 2 * topo_.edgeCount();
    if (p.stamp.size() < slots || ++p.now == 0) {
        p.stamp.assign(std::max(slots, p.stamp.size()), 0);
        p.owner.resize(p.stamp.size());
        p.now = 1;
    }
    int pairs = 0;
    for (int fi = 0; fi < n; ++fi) {
        const int g = flows_[fi].pair >= 0 ? flows_[fi].pair : -2;
        pairs = std::max(pairs, g + 1);
        forEachSlot(fi, [&](int s) {
            p.owner[s] = p.stamp[s] != p.now || p.owner[s] == g ? g : -2;
            p.stamp[s] = p.now;
        });
    }
    p.shared.assign(pairs, 0);
    for (int fi = 0; fi < n; ++fi) {
        const int g = flows_[fi].pair;
        if (g < 0)
            continue;
        bool alone = true;
        forEachSlot(fi, [&](int s) { alone = alone && p.owner[s] == g; });
        if (!alone)
            p.shared[g] = 1;
    }
    for (int fi = 0; fi < n; ++fi) {
        const Flow &f = flows_[fi];
        if (f.twin >= 0 && f.pair >= 0 &&
            (p.shared[f.pair] || p.shared[flows_[f.twin].pair]))
            routeCopy(fi);
    }
}

void
FlowSimulator::routeCopy(int fi)
{
    Flow &f = flows_[fi];
    const Flow &t = flows_[f.root];
    // The root's edges, shifted; the nodes follow from them (a pair's
    // far ends, outside both blocks, do not shift).
    auto path = std::make_shared<Path>();
    path->nodes.reserve(t.path->nodes.size());
    path->edges.reserve(t.path->edges.size());
    path->nodes.push_back(f.from);
    for (int e : t.path->edges) {
        e += f.shift;
        auto [a, b] = topo_.endpoints(e);
        path->nodes.push_back(path->nodes.back() == a ? b : a);
        path->edges.push_back(e);
    }
    f.path = std::move(path);
    f.slot_begin = static_cast<int>(flow_slots_.size());
    for (int k = t.slot_begin; k < t.slot_end; ++k)
        flow_slots_.push_back(flow_slots_[k] + 2 * f.shift);
    f.slot_end = static_cast<int>(flow_slots_.size());
    f.shift = 0;
    f.twin = -1;
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
        if (flows_[fi].twin >= 0)
            continue; // a copy runs at its twin's rate
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
    // rate — treat as instantaneous via a huge rate. A copy's twin,
    // added before it, is active with it.
    for (int fi : active) {
        if (flows_[fi].twin >= 0) {
            rate_[fi] = rate_[flows_[fi].twin];
        } else if (unfrozen_[fi]) {
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
        for (int fi = 0; fi < static_cast<int>(flows_.size()); ++fi) {
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
                edge_bytes_[e + f.shift] += used;
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

    // Decide the copies, route every other flow, then give each copy
    // its root's route, shifted; a copy's twin precedes it.
    findCopies();
    for (int fi = 0; fi < static_cast<int>(flows_.size()); ++fi) {
        Flow &f = flows_[fi];
        if (f.twin < 0) {
            route(fi);
            continue;
        }
        const Flow &t = flows_[f.twin];
        f.root = t.twin >= 0 ? t.root : f.twin;
        f.shift += t.shift;
        f.path = t.path;
        f.latency_s = t.latency_s;
    }
    breakSharedPairs();
    // Fair sharing runs over every routed flow; note the edges every
    // flow crosses.
    std::vector<char> crossed(topo_.edgeCount(), 0);
    for (int fi = 0; fi < static_cast<int>(flows_.size()); ++fi) {
        const Flow &f = flows_[fi];
        if (f.twin < 0)
            simulated_.push_back(fi);
        for (int e : f.path->edges)
            crossed[e + f.shift] = 1;
    }
    for (int e = 0; e < topo_.edgeCount(); ++e) {
        if (crossed[e])
            routed_edges_.push_back(e);
    }
    prepareFairShare();
    simulate();
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
