/**
 * @file
 * Network oracles the flow-level model is checked against.
 * Production prices every transfer with net::FlowSimulator and the
 * all-reduce models. ReferenceFlowSim simulates every flow, with no
 * shortcut, and is the bit-exact oracle of the production simulator.
 * The closed-form estimates only cross-check them on contention-free
 * cases; the per-algorithm all-reduce copies at the end, priced with
 * ReferenceFlowSim, are the bit-exact oracle of the collective plans,
 * referenceHostCpu() with inputStagingSeconds() that of the trainer's
 * input staging, and fabricShape() that of the GPU grouping.
 */

#ifndef MLPSIM_TESTS_NET_REFERENCE_H
#define MLPSIM_TESTS_NET_REFERENCE_H

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "net/allreduce.h"
#include "net/topology.h"
#include "net/transfer.h"
#include "sim/logger.h"

namespace mlps::reference {

/**
 * Minimum-hop route as Topology::route found it before routes were
 * composed through gateways: one BFS from 'from', visiting each node's
 * incident edges NVLink first (a stable sort of a copy, so each kind
 * keeps connect order), skipping down edges and, when 'allowed' is
 * set, edges it rejects. Reads the topology only through its public
 * accessors. @return nullopt when 'to' is unreachable.
 */
inline std::optional<net::Path>
bfsRoute(const net::Topology &topo, net::NodeId from, net::NodeId to,
         const std::function<bool(int)> *allowed = nullptr)
{
    if (from == to)
        return net::Path{{from}, {}};
    int n_nodes = topo.nodeCount();
    std::vector<int> prev_edge(n_nodes, -1);
    std::vector<net::NodeId> prev_node(n_nodes, -1);
    std::vector<bool> seen(n_nodes, false);
    std::deque<net::NodeId> frontier;
    frontier.push_back(from);
    seen[from] = true;
    while (!frontier.empty()) {
        net::NodeId n = frontier.front();
        frontier.pop_front();
        const auto incident = topo.incidentEdges(n);
        std::vector<int> order(incident.begin(), incident.end());
        std::stable_sort(order.begin(), order.end(), [&](int e1, int e2) {
            return (topo.link(e1).kind == net::LinkKind::NvLink) >
                   (topo.link(e2).kind == net::LinkKind::NvLink);
        });
        for (int e : order) {
            if (topo.linkDown(e))
                continue;
            if (allowed && !(*allowed)(e))
                continue;
            auto [a, b] = topo.endpoints(e);
            net::NodeId other = a == n ? b : a;
            if (seen[other])
                continue;
            seen[other] = true;
            prev_edge[other] = e;
            prev_node[other] = n;
            if (other == to) {
                net::Path p;
                net::NodeId cur = to;
                while (cur != from) {
                    p.nodes.push_back(cur);
                    p.edges.push_back(prev_edge[cur]);
                    cur = prev_node[cur];
                }
                p.nodes.push_back(from);
                std::reverse(p.nodes.begin(), p.nodes.end());
                std::reverse(p.edges.begin(), p.edges.end());
                return p;
            }
            frontier.push_back(other);
        }
    }
    return std::nullopt;
}

/**
 * Reference flow simulator: progressive filling that scans every
 * directed slot for the bottleneck in each round, re-run from scratch
 * at every completion event. Routes come from Topology::route(),
 * which RouteReference pins to bfsRoute(); everything else reads the
 * topology through its public accessors. The all-reduce oracle copies
 * below and the staging oracle price with it, so no production flow
 * grouping (classes, host translation) stands in any oracle.
 */
class ReferenceFlowSim
{
  public:
    explicit ReferenceFlowSim(const net::Topology &topo)
        : topo_(topo), edge_bytes_(topo.edgeCount(), 0.0)
    {
    }

    void addFlow(net::NodeId from, net::NodeId to, double bytes,
                 double start_s = 0.0)
    {
        Flow f;
        f.path = *topo_.route(from, to);
        f.bytes = bytes;
        f.remaining = bytes;
        f.start_s = start_s;
        f.latency_s = topo_.pathLatency(f.path);
        flows_.push_back(std::move(f));
    }

    const std::vector<net::FlowReport> &reports() const { return reports_; }
    const std::vector<double> &edgeBytes() const { return edge_bytes_; }

    /** Bytes over links of 'kind', summed over every edge in id
     *  order. */
    double bytesOnKind(net::LinkKind kind) const
    {
        double total = 0.0;
        for (int e = 0; e < topo_.edgeCount(); ++e) {
            if (topo_.link(e).kind == kind)
                total += edge_bytes_[e];
        }
        return total;
    }

    /** Bytes over links of 'tier', summed over every edge in id
     *  order. */
    double bytesOnTier(net::FabricTier tier) const
    {
        double total = 0.0;
        for (int e = 0; e < topo_.edgeCount(); ++e) {
            if (topo_.link(e).tier == tier)
                total += edge_bytes_[e];
        }
        return total;
    }

    double run()
    {
        reports_.assign(flows_.size(), net::FlowReport{});
        for (std::size_t i = 0; i < flows_.size(); ++i) {
            reports_[i].id = static_cast<net::FlowId>(i);
            reports_[i].bytes = flows_[i].bytes;
            reports_[i].start_s = flows_[i].start_s;
        }
        if (flows_.empty())
            return 0.0;

        double now = 0.0;
        for (;;) {
            std::vector<int> active;
            double next_start = std::numeric_limits<double>::infinity();
            bool any_pending = false;
            for (std::size_t i = 0; i < flows_.size(); ++i) {
                Flow &f = flows_[i];
                if (f.done)
                    continue;
                double effective_start = f.start_s + f.latency_s;
                if (now + 1e-15 >= effective_start) {
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

            std::vector<double> rate = fairShare(active);

            double dt = std::numeric_limits<double>::infinity();
            for (int fi : active) {
                if (rate[fi] > 0.0)
                    dt = std::min(dt, flows_[fi].remaining / rate[fi]);
            }
            if (any_pending)
                dt = std::min(dt, next_start - now);

            for (int fi : active) {
                Flow &f = flows_[fi];
                double moved = rate[fi] * dt;
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
        double makespan = 0.0;
        for (const auto &r : reports_)
            makespan = std::max(makespan, r.finish_s);
        return makespan;
    }

  private:
    struct Flow {
        net::Path path;
        double bytes;
        double remaining;
        double start_s;
        double latency_s;
        bool done = false;
    };

    std::vector<int> directedEdges(const net::Path &path) const
    {
        std::vector<int> out;
        for (std::size_t i = 0; i < path.edges.size(); ++i) {
            int e = path.edges[i];
            auto [a, b] = topo_.endpoints(e);
            int dir = (path.nodes[i] == a && path.nodes[i + 1] == b) ? 0
                                                                     : 1;
            out.push_back(e * 2 + dir);
        }
        return out;
    }

    std::vector<double> fairShare(const std::vector<int> &active) const
    {
        std::vector<double> rate(flows_.size(), 0.0);
        int slots = topo_.edgeCount() * 2;
        std::vector<double> cap(slots);
        for (int e = 0; e < topo_.edgeCount(); ++e) {
            cap[e * 2] = topo_.effectiveLinkBytesPerSec(e);
            cap[e * 2 + 1] = cap[e * 2];
        }
        std::vector<std::vector<int>> fedges(flows_.size());
        for (int fi : active)
            fedges[fi] = directedEdges(flows_[fi].path);

        std::vector<int> unfrozen = active;
        while (!unfrozen.empty()) {
            std::vector<int> users(slots, 0);
            for (int fi : unfrozen) {
                for (int de : fedges[fi])
                    ++users[de];
            }
            double best_share = std::numeric_limits<double>::infinity();
            int best_slot = -1;
            for (int s = 0; s < slots; ++s) {
                if (users[s] == 0)
                    continue;
                double share = cap[s] / users[s];
                if (share < best_share) {
                    best_share = share;
                    best_slot = s;
                }
            }
            if (best_slot < 0) {
                for (int fi : unfrozen)
                    rate[fi] = 1e18;
                break;
            }
            std::vector<int> still;
            for (int fi : unfrozen) {
                const auto &des = fedges[fi];
                bool crosses = std::find(des.begin(), des.end(),
                                         best_slot) != des.end();
                if (crosses) {
                    rate[fi] = best_share;
                    for (int de : des)
                        cap[de] -= best_share;
                } else {
                    still.push_back(fi);
                }
            }
            for (double &c : cap)
                c = std::max(c, 0.0);
            unfrozen = std::move(still);
        }
        return rate;
    }

    const net::Topology &topo_;
    std::vector<Flow> flows_;
    std::vector<net::FlowReport> reports_;
    std::vector<double> edge_bytes_;
};

/**
 * The CPU whose root complex hosts 'gpu': of the CPUs a BFS over up
 * links reaches from it, one at the fewest hops, the lowest id among
 * equals. Walks the whole graph; nullopt when no CPU is reachable.
 */
inline std::optional<net::NodeId>
referenceHostCpu(const net::Topology &topo, net::NodeId gpu)
{
    std::vector<int> depth(topo.nodeCount(), -1);
    std::deque<net::NodeId> frontier{gpu};
    depth[gpu] = 0;
    while (!frontier.empty()) {
        net::NodeId n = frontier.front();
        frontier.pop_front();
        for (int e : topo.incidentEdges(n)) {
            if (topo.linkDown(e))
                continue;
            auto [a, b] = topo.endpoints(e);
            net::NodeId other = a == n ? b : a;
            if (depth[other] >= 0)
                continue;
            depth[other] = depth[n] + 1;
            frontier.push_back(other);
        }
    }
    std::optional<net::NodeId> best;
    for (net::NodeId n = 0; n < topo.nodeCount(); ++n) {
        if (topo.kind(n) == net::NodeKind::Cpu && depth[n] >= 0 &&
            (!best || depth[n] < depth[*best]))
            best = n;
    }
    return best;
}

/**
 * One iteration's input staging as the trainer prices it: a flow of
 * 'bytes' from each GPU's host CPU to the GPU, all departing at once,
 * simulated together. @return the makespan, seconds.
 */
inline double
inputStagingSeconds(const net::Topology &topo,
                    const std::vector<net::NodeId> &gpus, double bytes)
{
    if (bytes <= 0.0)
        return 0.0;
    ReferenceFlowSim fsim(topo);
    for (net::NodeId gpu : gpus) {
        std::optional<net::NodeId> cpu = referenceHostCpu(topo, gpu);
        if (!cpu)
            sim::fatal("inputStagingSeconds: GPU %d has no host CPU", gpu);
        fsim.addFlow(*cpu, gpu, bytes);
    }
    return fsim.run();
}

/**
 * Time to move 'bytes' alone over the route between two nodes
 * (bandwidth bottleneck plus per-hop latency); +inf when disconnected.
 */
inline double
soloTransferSeconds(const net::Topology &topo, net::NodeId from,
                    net::NodeId to, double bytes)
{
    if (from == to)
        return 0.0;
    auto path = topo.route(from, to);
    if (!path)
        return std::numeric_limits<double>::infinity();
    double bw = topo.pathBandwidth(*path);
    double lat = topo.pathLatency(*path);
    if (bw <= 0.0)
        return std::numeric_limits<double>::infinity();
    return lat + bytes / bw;
}

/**
 * Closed-form ring all-reduce: 2*(N-1)/N * bytes / ring_bw plus step
 * latencies, at the bottleneck neighbour-hop bandwidth. Agrees with
 * the flow-level model on contention-free rings.
 */
inline double
analyticRingSeconds(const net::Topology &topo,
                    const std::vector<net::NodeId> &gpus, double bytes,
                    const net::AllReduceParams &params = {})
{
    int n = static_cast<int>(gpus.size());
    if (n <= 1 || bytes <= 0.0)
        return 0.0;
    double bw = std::numeric_limits<double>::infinity();
    double lat = 0.0;
    for (int i = 0; i < n; ++i) {
        auto path = topo.route(gpus[i], gpus[(i + 1) % n]);
        if (!path)
            sim::fatal("analyticRingSeconds: ring hop disconnected");
        bw = std::min(bw, topo.pathBandwidth(*path));
        lat = std::max(lat, topo.pathLatency(*path));
    }
    int steps = 2 * (n - 1);
    double chunk = bytes / n;
    return steps * (chunk / bw + lat + params.step_overhead_us * 1e-6);
}

/** One edge that carried bytes in a finished flow simulation. */
struct LinkTraffic {
    int edge = -1;
    net::LinkKind kind = net::LinkKind::Pcie3;
    double bytes = 0.0;
};

/** The edges of `fsim` (after run()) that carried bytes, by edge id. */
inline std::vector<LinkTraffic>
linkTraffic(const net::FlowSimulator &fsim, const net::Topology &topo)
{
    std::vector<LinkTraffic> out;
    for (int e = 0; e < topo.edgeCount(); ++e)
        if (fsim.edgeBytes()[e] > 0.0)
            out.push_back({e, topo.link(e).kind, fsim.edgeBytes()[e]});
    return out;
}

/**
 * GPU grouping as net::fabricShape derived it before the graph indexed
 * its host and rack cells: two union-finds over every edge, down or
 * up (intra-node edges; then every edge but cross-rack ones), groups
 * and racks in first-appearance order.
 */
inline net::FabricShape
fabricShape(const net::Topology &topo, const std::vector<net::NodeId> &gpus)
{
    std::vector<int> node_root(topo.nodeCount());
    std::vector<int> rack_root(topo.nodeCount());
    std::iota(node_root.begin(), node_root.end(), 0);
    std::iota(rack_root.begin(), rack_root.end(), 0);
    auto find = [](std::vector<int> &root, int x) {
        while (root[x] != x)
            x = root[x] = root[root[x]];
        return x;
    };
    for (int e = 0; e < topo.edgeCount(); ++e) {
        auto [a, b] = topo.endpoints(e);
        net::FabricTier tier = topo.link(e).tier;
        if (tier == net::FabricTier::IntraNode)
            node_root[find(node_root, a)] = find(node_root, b);
        if (tier != net::FabricTier::CrossRack)
            rack_root[find(rack_root, a)] = find(rack_root, b);
    }
    net::FabricShape shape;
    std::vector<int> roots;
    for (net::NodeId g : gpus) {
        int root = find(node_root, g);
        auto it = std::find(roots.begin(), roots.end(), root);
        if (it == roots.end()) {
            roots.push_back(root);
            shape.node_groups.emplace_back();
            it = roots.end() - 1;
        }
        shape.node_groups[it - roots.begin()].push_back(g);
    }
    roots.clear();
    for (std::size_t gi = 0; gi < shape.node_groups.size(); ++gi) {
        int root = find(rack_root, shape.node_groups[gi][0]);
        auto it = std::find(roots.begin(), roots.end(), root);
        if (it == roots.end()) {
            roots.push_back(root);
            shape.rack_groups.emplace_back();
            it = roots.end() - 1;
        }
        shape.rack_groups[it - roots.begin()].push_back(
            static_cast<int>(gi));
    }
    return shape;
}

/*
 * The all-reduce models as they stood when each algorithm priced its
 * own phases: one function per algorithm, each building and running
 * its own flow simulations, here with ReferenceFlowSim. Production
 * now builds phase plans and prices them in one evaluator; these
 * copies are the oracle its results must equal bit for bit
 * (AllReduceReference tests).
 */

namespace detail {

using net::AllReduceParams;
using net::AllReduceResult;
using net::CollectiveFabric;
using net::FabricShape;
using net::FabricTier;
using net::LinkKind;
using net::NodeId;
using net::NodeKind;
using net::Topology;
using net::kNumFabricTiers;

/** Accumulate a simulated phase's per-kind/per-tier bytes, scaled by
 *  the number of identical steps the simulation stands for. */
inline void
accountBytes(AllReduceResult *res, const ReferenceFlowSim &fsim,
             double mult)
{
    res->nvlink_bytes += mult * fsim.bytesOnKind(LinkKind::NvLink);
    res->pcie_bytes += mult * fsim.bytesOnKind(LinkKind::Pcie3);
    res->upi_bytes += mult * fsim.bytesOnKind(LinkKind::Upi);
    res->eth_bytes += mult * fsim.bytesOnKind(LinkKind::Eth);
    for (int t = 0; t < kNumFabricTiers; ++t)
        res->tier_bytes[t] +=
            mult * fsim.bytesOnTier(static_cast<FabricTier>(t));
}

/** Worst per-host collective fabric across the shape's node groups:
 *  phases barrier, so the slowest host's fallback paces them all. */
inline CollectiveFabric
worstIntraFabric(const Topology &topo, const FabricShape &shape)
{
    CollectiveFabric worst = CollectiveFabric::NvLink;
    for (const auto &group : shape.node_groups) {
        CollectiveFabric f = topo.collectiveFabric(group);
        if (static_cast<int>(f) > static_cast<int>(worst))
            worst = f;
    }
    return worst;
}

/** True when edge e joins a and b. */
inline bool
joins(const Topology &topo, int e, NodeId a, NodeId b)
{
    auto [x, y] = topo.endpoints(e);
    return (x == a && y == b) || (x == b && y == a);
}

/** Lowest-id up edge directly joining a and b, or -1. Incident edges
 *  are listed in connect (= id) order. */
inline int
directUpEdge(const Topology &topo, NodeId a, NodeId b)
{
    for (int e : topo.incidentEdges(a)) {
        if (joins(topo, e, a, b) && !topo.linkDown(e))
            return e;
    }
    return -1;
}

/** True when some (possibly down) edge directly joins a and b. */
inline bool
directEdgeExists(const Topology &topo, NodeId a, NodeId b)
{
    for (int e : topo.incidentEdges(a)) {
        if (joins(topo, e, a, b))
            return true;
    }
    return false;
}

/** Fault-aware per-host ring orders, counting intra-node reroutes. */
inline std::vector<std::vector<NodeId>>
hostRingOrders(const Topology &topo, const FabricShape &shape,
               AllReduceResult *res)
{
    std::vector<std::vector<NodeId>> orders;
    orders.reserve(shape.node_groups.size());
    for (const auto &group : shape.node_groups) {
        std::vector<NodeId> order = net::survivingRingOrder(topo, group);
        int n = static_cast<int>(order.size());
        if (topo.anyLinkDown() && n > 1) {
            for (int i = 0; i < n; ++i) {
                NodeId a = order[i];
                NodeId b = order[(i + 1) % n];
                if (directEdgeExists(topo, a, b) &&
                    directUpEdge(topo, a, b) < 0)
                    ++res->reroutes;
            }
        }
        orders.push_back(std::move(order));
    }
    return orders;
}

/** Ring-phase wall time: simulated step * step count + per-bucket
 *  step overheads. */
inline double
phaseSeconds(double step_s, int steps, int buckets, double lat_us)
{
    return steps * step_s +
           static_cast<double>(buckets) * steps * lat_us * 1e-6;
}

} // namespace detail

/** Flat ring all-reduce (oracle copy of net::ringAllReduce). */
inline net::AllReduceResult
ringAllReduce(const net::Topology &topo,
              const std::vector<net::NodeId> &gpus, double bytes,
              const net::AllReduceParams &params = {})
{
    using namespace detail;
    AllReduceResult res;
    if (gpus.empty())
        sim::fatal("ringAllReduce: empty GPU set");
    for (NodeId g : gpus) {
        if (topo.kind(g) != NodeKind::Gpu)
            sim::fatal("ringAllReduce: node %d is not a GPU", g);
    }
    int n = static_cast<int>(gpus.size());
    if (n == 1 || bytes <= 0.0) {
        res.fabric = topo.collectiveFabric(gpus);
        return res;
    }

    res.fabric = topo.collectiveFabric(gpus);
    double chunk = bytes / n;
    int steps = 2 * (n - 1);
    int buckets = std::max(params.buckets, 1);

    bool staged = res.fabric == CollectiveFabric::HostStaged;
    double derate = staged ? params.staged_bw_derate : 1.0;
    double per_step_lat_us =
        staged ? params.staged_step_overhead_us : params.step_overhead_us;

    // With links down, rebuild the ring over the surviving fabric and
    // count hops that lost their direct link (the flow simulator then
    // routes them around the fault).
    std::vector<NodeId> order = net::survivingRingOrder(topo, gpus);
    if (topo.anyLinkDown()) {
        for (int i = 0; i < n; ++i) {
            NodeId a = order[i];
            NodeId b = order[(i + 1) % n];
            if (directEdgeExists(topo, a, b) &&
                directUpEdge(topo, a, b) < 0)
                ++res.reroutes;
        }
    }

    // Every step has identical flow structure (each GPU sends one chunk
    // to its successor), so simulate one step and multiply. Bucketing
    // does not change the bandwidth term (same total bytes) but pays
    // the per-step latency once per bucket.
    ReferenceFlowSim fsim(topo);
    for (int i = 0; i < n; ++i)
        fsim.addFlow(order[i], order[(i + 1) % n], chunk);
    double step_s = fsim.run() / derate;

    res.seconds = steps * step_s +
                  static_cast<double>(buckets) * steps *
                      per_step_lat_us * 1e-6;
    res.seconds *= std::max(params.slowest_participant_scale, 1.0);
    accountBytes(&res, fsim, steps);
    return res;
}

/** 2D-ring hierarchical all-reduce (oracle copy of
 *  net::hierarchicalRingAllReduce). */
inline net::AllReduceResult
hierarchicalRingAllReduce(const net::Topology &topo,
                          const std::vector<net::NodeId> &gpus,
                          double bytes,
                          const net::AllReduceParams &params = {})
{
    using namespace detail;
    if (gpus.empty())
        sim::fatal("hierarchicalRingAllReduce: empty GPU set");
    FabricShape shape = reference::fabricShape(topo, gpus);
    std::size_t hosts = shape.node_groups.size();
    // Degenerate shapes delegate to the flat ring *verbatim*: a
    // single-host pod must stay bit-identical to the box model.
    if (hosts <= 1 || !shape.uniform() || bytes <= 0.0)
        return reference::ringAllReduce(topo, gpus, bytes, params);

    int per_host = static_cast<int>(shape.node_groups[0].size());
    int m = static_cast<int>(hosts);
    int buckets = std::max(params.buckets, 1);

    AllReduceResult res;
    res.fabric = CollectiveFabric::HostStaged; // spans hosts

    std::vector<std::vector<NodeId>> orders =
        hostRingOrders(topo, shape, &res);

    CollectiveFabric intra = worstIntraFabric(topo, shape);
    bool intra_staged = intra == CollectiveFabric::HostStaged;
    double intra_derate = intra_staged ? params.staged_bw_derate : 1.0;
    double intra_lat_us = intra_staged ? params.staged_step_overhead_us
                                       : params.step_overhead_us;

    double chunk = bytes / per_host;
    double seconds = 0.0;

    // Phase 1 + 3: intra-node reduce-scatter and allgather, rings in
    // every host concurrently, (L-1) steps of bytes/L each way.
    if (per_host > 1) {
        ReferenceFlowSim fsim(topo);
        for (const auto &order : orders) {
            for (int i = 0; i < per_host; ++i)
                fsim.addFlow(order[i], order[(i + 1) % per_host],
                             chunk);
        }
        double step_s = fsim.run() / intra_derate;
        int steps = 2 * (per_host - 1);
        seconds += phaseSeconds(step_s, steps, buckets, intra_lat_us);
        accountBytes(&res, fsim, steps);
    }

    // Phase 2: cross-node ring all-reduce of each shard over the NIC
    // fabric — rank i of host h talks to rank i of host h+1, L
    // concurrent rank-rings, 2*(M-1) steps of bytes/(L*M). Always
    // host-staged: the path crosses CPU, NIC and switch fabric.
    {
        ReferenceFlowSim fsim(topo);
        double xchunk = chunk / m;
        for (int i = 0; i < per_host; ++i) {
            for (int h = 0; h < m; ++h)
                fsim.addFlow(orders[h][i], orders[(h + 1) % m][i],
                             xchunk);
        }
        double step_s = fsim.run() / params.staged_bw_derate;
        int steps = 2 * (m - 1);
        seconds += phaseSeconds(step_s, steps, buckets,
                                params.staged_step_overhead_us);
        accountBytes(&res, fsim, steps);
    }

    res.seconds =
        seconds * std::max(params.slowest_participant_scale, 1.0);
    return res;
}

/** Cross-rack tree hierarchical all-reduce (oracle copy of
 *  net::hierarchicalTreeAllReduce). */
inline net::AllReduceResult
hierarchicalTreeAllReduce(const net::Topology &topo,
                          const std::vector<net::NodeId> &gpus,
                          double bytes,
                          const net::AllReduceParams &params = {})
{
    using namespace detail;
    if (gpus.empty())
        sim::fatal("hierarchicalTreeAllReduce: empty GPU set");
    FabricShape shape = reference::fabricShape(topo, gpus);
    std::size_t hosts = shape.node_groups.size();
    if (hosts <= 1 || !shape.uniform() || bytes <= 0.0)
        return reference::ringAllReduce(topo, gpus, bytes, params);
    std::size_t racks = shape.rack_groups.size();
    if (racks <= 1)
        return reference::hierarchicalRingAllReduce(topo, gpus, bytes,
                                                    params);

    int per_host = static_cast<int>(shape.node_groups[0].size());
    int per_rack = static_cast<int>(shape.rack_groups[0].size());
    int buckets = std::max(params.buckets, 1);

    AllReduceResult res;
    res.fabric = CollectiveFabric::HostStaged;

    std::vector<std::vector<NodeId>> orders =
        hostRingOrders(topo, shape, &res);

    CollectiveFabric intra = worstIntraFabric(topo, shape);
    bool intra_staged = intra == CollectiveFabric::HostStaged;
    double intra_derate = intra_staged ? params.staged_bw_derate : 1.0;
    double intra_lat_us = intra_staged ? params.staged_step_overhead_us
                                       : params.step_overhead_us;

    double chunk = bytes / per_host;
    double seconds = 0.0;

    // Phase 1 + 5: intra-node reduce-scatter and allgather.
    if (per_host > 1) {
        ReferenceFlowSim fsim(topo);
        for (const auto &order : orders) {
            for (int i = 0; i < per_host; ++i)
                fsim.addFlow(order[i], order[(i + 1) % per_host],
                             chunk);
        }
        double step_s = fsim.run() / intra_derate;
        int steps = 2 * (per_host - 1);
        seconds += phaseSeconds(step_s, steps, buckets, intra_lat_us);
        accountBytes(&res, fsim, steps);
    }

    // Phase 2: intra-rack cross-node ring all-reduce of each shard,
    // every rack concurrently, 2*(Mr-1) steps of bytes/(L*Mr).
    if (per_rack > 1) {
        ReferenceFlowSim fsim(topo);
        double xchunk = chunk / per_rack;
        for (const auto &rack : shape.rack_groups) {
            for (int i = 0; i < per_host; ++i) {
                for (int j = 0; j < per_rack; ++j)
                    fsim.addFlow(orders[rack[j]][i],
                                 orders[rack[(j + 1) % per_rack]][i],
                                 xchunk);
            }
        }
        double step_s = fsim.run() / params.staged_bw_derate;
        int steps = 2 * (per_rack - 1);
        seconds += phaseSeconds(step_s, steps, buckets,
                                params.staged_step_overhead_us);
        accountBytes(&res, fsim, steps);
    }

    // Phase 3: binary-tree reduce + mirrored broadcast of each shard
    // across rack leaders (host 0 of each rack) over the spine —
    // 2*ceil(log2 R) rounds each moving bytes/L.
    {
        double reduce_s = 0.0;
        int rounds = 0;
        for (std::size_t stride = 1; stride < racks;
             stride *= 2, ++rounds) {
            ReferenceFlowSim fsim(topo);
            bool any = false;
            for (std::size_t r = 0; r + stride < racks;
                 r += 2 * stride) {
                int lo = shape.rack_groups[r][0];
                int hi = shape.rack_groups[r + stride][0];
                for (int i = 0; i < per_host; ++i)
                    fsim.addFlow(orders[hi][i], orders[lo][i], chunk);
                any = true;
            }
            if (any)
                reduce_s += fsim.run() / params.staged_bw_derate;
            accountBytes(&res, fsim, 2.0);
        }
        seconds += 2.0 * reduce_s +
                   static_cast<double>(buckets) * 2.0 * rounds *
                       params.staged_step_overhead_us * 1e-6;
    }

    // Phase 4: pipelined re-broadcast of the tree result down each
    // rack's host chain (the whole chain streams concurrently; the
    // Mr-1 hop handoffs surface as per-hop overheads).
    if (per_rack > 1) {
        ReferenceFlowSim fsim(topo);
        for (const auto &rack : shape.rack_groups) {
            for (int i = 0; i < per_host; ++i) {
                for (int j = 0; j + 1 < per_rack; ++j)
                    fsim.addFlow(orders[rack[j]][i],
                                 orders[rack[j + 1]][i], chunk);
            }
        }
        double step_s = fsim.run() / params.staged_bw_derate;
        seconds += step_s + static_cast<double>(buckets) *
                                (per_rack - 1) *
                                params.staged_step_overhead_us * 1e-6;
        accountBytes(&res, fsim, 1.0);
    }

    res.seconds =
        seconds * std::max(params.slowest_participant_scale, 1.0);
    return res;
}

/** Shape-aware automatic choice (oracle copy of
 *  net::autoHierarchicalAllReduce). */
inline net::AllReduceResult
autoHierarchicalAllReduce(const net::Topology &topo,
                          const std::vector<net::NodeId> &gpus,
                          double bytes,
                          const net::AllReduceParams &params = {})
{
    if (gpus.empty())
        sim::fatal("autoHierarchicalAllReduce: empty GPU set");
    net::FabricShape shape = reference::fabricShape(topo, gpus);
    // Single host (every Table III box): the flat fault-aware ring,
    // bit for bit.
    if (shape.node_groups.size() <= 1 || !shape.uniform())
        return reference::ringAllReduce(topo, gpus, bytes, params);
    if (shape.rack_groups.size() <= 1)
        return reference::hierarchicalRingAllReduce(topo, gpus, bytes,
                                                    params);
    net::AllReduceResult ring2d =
        reference::hierarchicalRingAllReduce(topo, gpus, bytes, params);
    net::AllReduceResult tree =
        reference::hierarchicalTreeAllReduce(topo, gpus, bytes, params);
    return ring2d.seconds <= tree.seconds ? ring2d : tree;
}

} // namespace mlps::reference

#endif // MLPSIM_TESTS_NET_REFERENCE_H
