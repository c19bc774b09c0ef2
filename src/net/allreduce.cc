#include "net/allreduce.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "net/transfer.h"
#include "sim/logger.h"

namespace mlps::net {

namespace {

/** True when edge e joins a and b. */
bool
joins(const Topology &topo, int e, NodeId a, NodeId b)
{
    auto [x, y] = topo.endpoints(e);
    return (x == a && y == b) || (x == b && y == a);
}

/** Lowest-id up edge directly joining a and b, or -1. Incident edges
 *  are listed in connect (= id) order. */
int
directUpEdge(const Topology &topo, NodeId a, NodeId b)
{
    for (int e : topo.incidentEdges(a)) {
        if (joins(topo, e, a, b) && !topo.linkDown(e))
            return e;
    }
    return -1;
}

/** Ring hops of the closed ring 'order' that lost every direct link
 *  to a fault: the flow simulator routes them around it. */
int
reroutedHops(const Topology &topo, const std::vector<NodeId> &order)
{
    int n = static_cast<int>(order.size());
    if (n < 2 || !topo.anyLinkDown())
        return 0;
    int hops = 0;
    for (int i = 0; i < n; ++i) {
        NodeId a = order[i];
        NodeId b = order[(i + 1) % n];
        bool direct = false;
        for (int e : topo.incidentEdges(a))
            direct = direct || joins(topo, e, a, b);
        if (direct && directUpEdge(topo, a, b) < 0)
            ++hops;
    }
    return hops;
}

/** One transfer of a collective round. */
struct Flow {
    NodeId from;
    NodeId to;
    double bytes;
};

/**
 * One phase of a collective plan: rounds that run one after another,
 * each a set of concurrent flows. The phase costs
 *
 *     time_mult * sum(round makespan / derate)
 *         + buckets * overhead_steps * lat_us
 *
 * and each round's link bytes count byte_mult times, so a ring phase
 * is one simulated step standing for all of its identical steps.
 */
struct Phase {
    std::vector<std::vector<Flow>> rounds;
    double time_mult = 1.0;
    int overhead_steps = 0;
    double lat_us = 0.0;
    double derate = 1.0;
    double byte_mult = 1.0;
};

/** A collective as data: its phases, in pricing order. */
using CollectivePlan = std::vector<Phase>;

/** A phase of 'steps' identical steps over 'fabric', no rounds yet.
 *  Host-staged transfers reach only a fraction of the link rate and
 *  pay the staged per-step overhead. */
Phase
stepsOver(CollectiveFabric fabric, int steps,
          const AllReduceParams &params)
{
    bool staged = fabric == CollectiveFabric::HostStaged;
    Phase phase;
    phase.time_mult = phase.byte_mult = steps;
    phase.overhead_steps = steps;
    phase.derate = staged ? params.staged_bw_derate : 1.0;
    phase.lat_us =
        staged ? params.staged_step_overhead_us : params.step_overhead_us;
    return phase;
}

/** Fault-aware ring order of every host of a uniform set. */
struct HostRings {
    std::vector<std::vector<NodeId>> orders; ///< per node group
    int per_host = 0;                        ///< L, GPUs per host
    double chunk = 0.0;                      ///< bytes / L
};

/**
 * Intra-node reduce-scatter and allgather: a ring in every host
 * concurrently, 2*(L-1) steps of bytes/L, over the worst host's
 * fabric. The flat ring is this phase with the whole set as one host.
 */
CollectivePlan
hostRingPlan(const Topology &topo, const FabricShape &shape,
             const HostRings &h, const AllReduceParams &params)
{
    if (h.per_host <= 1)
        return {};
    // Phases barrier, so the slowest host's fallback paces them all.
    CollectiveFabric worst = CollectiveFabric::NvLink;
    for (const auto &group : shape.node_groups)
        worst = std::max(worst, topo.collectiveFabric(group));
    Phase phase = stepsOver(worst, 2 * (h.per_host - 1), params);
    std::vector<Flow> &round = phase.rounds.emplace_back();
    for (const auto &order : h.orders) {
        for (int i = 0; i < h.per_host; ++i)
            round.push_back(
                {order[i], order[(i + 1) % h.per_host], h.chunk});
    }
    return {phase};
}

/**
 * Cross-node ring all-reduce of each shard in every group of hosts
 * concurrently: rank i of a group's host j talks to rank i of host
 * j+1, L concurrent rank-rings per group, 2*(M-1) steps of
 * bytes/(L*M) for M hosts a group. Always host-staged: the path
 * crosses CPU, NIC and switch fabric.
 */
Phase
rankRingPhase(const HostRings &h, const std::vector<std::vector<int>> &groups,
              const AllReduceParams &params)
{
    int m = static_cast<int>(groups[0].size());
    Phase phase =
        stepsOver(CollectiveFabric::HostStaged, 2 * (m - 1), params);
    std::vector<Flow> &round = phase.rounds.emplace_back();
    for (const auto &hosts : groups) {
        for (int i = 0; i < h.per_host; ++i) {
            for (int j = 0; j < m; ++j)
                round.push_back({h.orders[hosts[j]][i],
                                 h.orders[hosts[(j + 1) % m]][i],
                                 h.chunk / m});
        }
    }
    return phase;
}

/** 2D ring's cross-node level: one rank-ring over all hosts. */
CollectivePlan
crossNodeRingPlan(const HostRings &h, const AllReduceParams &params)
{
    std::vector<int> hosts(h.orders.size());
    std::iota(hosts.begin(), hosts.end(), 0);
    return {rankRingPhase(h, {hosts}, params)};
}

/** Cross-rack tree's levels above the host rings, all host-staged. */
CollectivePlan
treePlan(const FabricShape &shape, const HostRings &h,
         const AllReduceParams &params)
{
    const auto &racks = shape.rack_groups;
    const auto &orders = h.orders;
    int per_rack = static_cast<int>(racks[0].size());
    CollectivePlan plan;

    // Intra-rack cross-node ring all-reduce of each shard.
    if (per_rack > 1)
        plan.push_back(rankRingPhase(h, racks, params));

    // Binary-tree reduce + mirrored broadcast of each shard across
    // rack leaders (host 0 of each rack) over the spine: ceil(log2 R)
    // rounds each moving bytes/L, each paid twice.
    Phase &tree = plan.emplace_back(
        stepsOver(CollectiveFabric::HostStaged, 2, params));
    for (std::size_t stride = 1; stride < racks.size(); stride *= 2) {
        std::vector<Flow> &round = tree.rounds.emplace_back();
        for (std::size_t r = 0; r + stride < racks.size(); r += 2 * stride) {
            for (int i = 0; i < h.per_host; ++i)
                round.push_back({orders[racks[r + stride][0]][i],
                                 orders[racks[r][0]][i], h.chunk});
        }
    }
    tree.overhead_steps = 2 * static_cast<int>(tree.rounds.size());

    // Pipelined re-broadcast of the tree result down each rack's host
    // chain (the whole chain streams concurrently; the Mr-1 hop
    // handoffs surface as per-hop overheads).
    if (per_rack > 1) {
        Phase &chain = plan.emplace_back(
            stepsOver(CollectiveFabric::HostStaged, 1, params));
        chain.overhead_steps = per_rack - 1;
        std::vector<Flow> &round = chain.rounds.emplace_back();
        for (const auto &rack : racks) {
            for (int i = 0; i < h.per_host; ++i) {
                for (int j = 0; j + 1 < per_rack; ++j)
                    round.push_back({orders[rack[j]][i],
                                     orders[rack[j + 1]][i], h.chunk});
            }
        }
    }
    return plan;
}

/**
 * The one evaluator: add the cost of 'plan' to 'res' in plan order —
 * seconds (before the straggler stretch) and per-kind and per-tier
 * bytes. Each round is one flow simulation; nothing else in the
 * collective model simulates flows.
 */
void
price(const Topology &topo, const CollectivePlan &plan,
      const AllReduceParams &params, AllReduceResult *res)
{
    int buckets = std::max(params.buckets, 1);
    for (const Phase &phase : plan) {
        double rounds_s = 0.0;
        for (const std::vector<Flow> &round : phase.rounds) {
            FlowSimulator fsim(topo);
            for (const Flow &f : round)
                fsim.addFlow(f.from, f.to, f.bytes);
            rounds_s += fsim.run() / phase.derate;
            const double mult = phase.byte_mult;
            const FlowSimulator::LinkBytes bytes = fsim.linkBytes();
            res->nvlink_bytes += mult * bytes.onKind(LinkKind::NvLink);
            res->pcie_bytes += mult * bytes.onKind(LinkKind::Pcie3);
            res->upi_bytes += mult * bytes.onKind(LinkKind::Upi);
            res->eth_bytes += mult * bytes.onKind(LinkKind::Eth);
            for (int t = 0; t < kNumFabricTiers; ++t)
                res->tier_bytes[t] += mult * bytes.tier[t];
        }
        res->seconds += phase.time_mult * rounds_s +
                        static_cast<double>(buckets) *
                            phase.overhead_steps * phase.lat_us * 1e-6;
    }
}

/** Cross-node levels a plan may continue with after its host rings. */
enum Levels { kNone = 0, kRing2D = 1, kTree = 2 };

/**
 * Price a uniform set of hosts onto 'res' (which carries the fabric):
 * build the host rings once and price their phase once, then each
 * candidate's cross-node levels on a copy of that tally. Returns the
 * fastest candidate (ties to the 2D ring), straggler-stretched.
 */
AllReduceResult
priceHosts(const Topology &topo, const FabricShape &shape, double bytes,
           const AllReduceParams &params, int levels, AllReduceResult res)
{
    HostRings h;
    h.per_host = static_cast<int>(shape.node_groups[0].size());
    h.chunk = bytes / h.per_host;
    for (const auto &group : shape.node_groups) {
        h.orders.push_back(survivingRingOrder(topo, group));
        res.reroutes += reroutedHops(topo, h.orders.back());
    }
    price(topo, hostRingPlan(topo, shape, h, params), params, &res);

    auto finish = [&](const CollectivePlan &plan) {
        AllReduceResult out = res;
        price(topo, plan, params, &out);
        out.seconds *= std::max(params.slowest_participant_scale, 1.0);
        return out;
    };
    if (levels == kNone)
        return finish({});
    if (levels == kRing2D)
        return finish(crossNodeRingPlan(h, params));
    if (levels == kTree)
        return finish(treePlan(shape, h, params));
    AllReduceResult ring2d = finish(crossNodeRingPlan(h, params));
    AllReduceResult tree = finish(treePlan(shape, h, params));
    return ring2d.seconds <= tree.seconds ? ring2d : tree;
}

/**
 * Every hierarchical entry point. Degenerate shapes run the flat ring
 * *verbatim* — a single-host pod must stay bit-identical to the box
 * model — and a single rack has no cross-rack level for the tree.
 */
AllReduceResult
hierarchicalAllReduce(const Topology &topo, const std::vector<NodeId> &gpus,
                      double bytes, const AllReduceParams &params,
                      int levels, const char *who)
{
    if (gpus.empty())
        sim::fatal("%s: empty GPU set", who);
    FabricShape shape = fabricShape(topo, gpus);
    if (shape.node_groups.size() <= 1 || !shape.uniform() || bytes <= 0.0)
        return ringAllReduce(topo, gpus, bytes, params);
    AllReduceResult res;
    res.fabric = CollectiveFabric::HostStaged; // spans hosts
    return priceHosts(topo, shape, bytes, params,
                      shape.rack_groups.size() <= 1 ? kRing2D : levels,
                      res);
}

} // namespace

std::vector<NodeId>
survivingRingOrder(const Topology &topo, const std::vector<NodeId> &gpus)
{
    // Healthy fabric: keep the caller's order so the fault-oblivious
    // model's results stay bit-identical. Bandwidth-only degradation
    // (no link down) also keeps the order — routes are unchanged.
    if (gpus.size() <= 2 || !topo.anyLinkDown())
        return gpus;

    // Greedy nearest-neighbour re-chain over the surviving fabric:
    // from each GPU pick the unvisited peer with a direct up link
    // (NVLink preferred), else the fewest-hop route. Deterministic:
    // ties break on position in the caller's order.
    std::vector<NodeId> order;
    std::vector<bool> used(gpus.size(), false);
    order.push_back(gpus[0]);
    used[0] = true;
    while (order.size() < gpus.size()) {
        NodeId cur = order.back();
        int best = -1;
        long best_cost = std::numeric_limits<long>::max();
        for (std::size_t i = 0; i < gpus.size(); ++i) {
            if (used[i])
                continue;
            long cost;
            int de = directUpEdge(topo, cur, gpus[i]);
            if (de >= 0) {
                cost = topo.link(de).kind == LinkKind::NvLink ? 0 : 1;
            } else {
                auto p = topo.sharedRoute(cur, gpus[i]);
                // Disconnected pair: poison cost, picked only if
                // nothing else remains (flow sim will then report it).
                cost = p ? 10 + p->hops() : 1000000;
            }
            if (cost < best_cost) {
                best_cost = cost;
                best = static_cast<int>(i);
            }
        }
        order.push_back(gpus[best]);
        used[best] = true;
    }
    return order;
}

bool
FabricShape::uniform() const
{
    if (node_groups.empty() || rack_groups.empty())
        return false;
    std::size_t group_size = node_groups[0].size();
    for (const auto &g : node_groups) {
        if (g.size() != group_size)
            return false;
    }
    std::size_t rack_size = rack_groups[0].size();
    for (const auto &r : rack_groups) {
        if (r.size() != rack_size)
            return false;
    }
    return true;
}

FabricShape
fabricShape(const Topology &topo, const std::vector<NodeId> &gpus)
{
    FabricShape shape;
    for (NodeId g : gpus) {
        if (topo.kind(g) != NodeKind::Gpu)
            sim::fatal("fabricShape: node %d is not a GPU", g);
    }
    if (gpus.empty())
        return shape;

    // Static structure on purpose: a down NVLink must not re-home a
    // GPU to a different host group, it must degrade that host's
    // intra-node fabric instead. The graph's host and rack cells
    // count down links too.
    std::vector<int> group_of(topo.nodeCount(), -1); // by cell label
    for (NodeId g : gpus) {
        int &group = group_of[topo.cellOf(g, FabricTier::IntraNode)];
        if (group < 0) {
            group = static_cast<int>(shape.node_groups.size());
            shape.node_groups.emplace_back();
        }
        shape.node_groups[group].push_back(g);
    }
    std::fill(group_of.begin(), group_of.end(), -1);
    for (std::size_t gi = 0; gi < shape.node_groups.size(); ++gi) {
        int &rack = group_of[topo.cellOf(shape.node_groups[gi][0],
                                         FabricTier::IntraRack)];
        if (rack < 0) {
            rack = static_cast<int>(shape.rack_groups.size());
            shape.rack_groups.emplace_back();
        }
        shape.rack_groups[rack].push_back(static_cast<int>(gi));
    }
    return shape;
}

AllReduceResult
ringAllReduce(const Topology &topo, const std::vector<NodeId> &gpus,
              double bytes, const AllReduceParams &params)
{
    if (gpus.empty())
        sim::fatal("ringAllReduce: empty GPU set");
    for (NodeId g : gpus) {
        if (topo.kind(g) != NodeKind::Gpu)
            sim::fatal("ringAllReduce: node %d is not a GPU", g);
    }
    AllReduceResult res;
    res.fabric = topo.collectiveFabric(gpus);
    if (gpus.size() == 1 || bytes <= 0.0)
        return res;
    FabricShape host; // the whole set as one host
    host.node_groups = {gpus};
    return priceHosts(topo, host, bytes, params, kNone, res);
}

AllReduceResult
hierarchicalRingAllReduce(const Topology &topo,
                          const std::vector<NodeId> &gpus, double bytes,
                          const AllReduceParams &params)
{
    return hierarchicalAllReduce(topo, gpus, bytes, params, kRing2D,
                                 "hierarchicalRingAllReduce");
}

AllReduceResult
hierarchicalTreeAllReduce(const Topology &topo,
                          const std::vector<NodeId> &gpus, double bytes,
                          const AllReduceParams &params)
{
    return hierarchicalAllReduce(topo, gpus, bytes, params, kTree,
                                 "hierarchicalTreeAllReduce");
}

AllReduceResult
autoHierarchicalAllReduce(const Topology &topo,
                          const std::vector<NodeId> &gpus, double bytes,
                          const AllReduceParams &params)
{
    return hierarchicalAllReduce(topo, gpus, bytes, params,
                                 kRing2D | kTree,
                                 "autoHierarchicalAllReduce");
}

} // namespace mlps::net
