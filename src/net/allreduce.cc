#include "net/allreduce.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "net/transfer.h"
#include "sim/logger.h"

namespace mlps::net {

namespace {

/** Accumulate a simulated phase's per-kind/per-tier bytes, scaled by
 *  the number of identical steps the simulation stands for. */
void
accountBytes(AllReduceResult *res, const FlowSimulator &fsim, double mult)
{
    res->nvlink_bytes += mult * fsim.bytesOnKind(LinkKind::NvLink);
    res->pcie_bytes += mult * fsim.bytesOnKind(LinkKind::Pcie3);
    res->upi_bytes += mult * fsim.bytesOnKind(LinkKind::Upi);
    res->eth_bytes += mult * fsim.bytesOnKind(LinkKind::Eth);
    for (int t = 0; t < kNumFabricTiers; ++t)
        res->tier_bytes[t] +=
            mult * fsim.bytesOnTier(static_cast<FabricTier>(t));
}

/** Union-find over node ids (path halving + union by size). */
class Dsu
{
  public:
    explicit Dsu(int n) : parent_(n), size_(n, 1)
    {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    int find(int x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void unite(int a, int b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return;
        if (size_[a] < size_[b])
            std::swap(a, b);
        parent_[b] = a;
        size_[a] += size_[b];
    }

  private:
    std::vector<int> parent_;
    std::vector<int> size_;
};

/** Worst per-host collective fabric across the shape's node groups:
 *  phases barrier, so the slowest host's fallback paces them all. */
CollectiveFabric
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

/** True when some (possibly down) edge directly joins a and b. */
bool
directEdgeExists(const Topology &topo, NodeId a, NodeId b)
{
    for (int e : topo.incidentEdges(a)) {
        if (joins(topo, e, a, b))
            return true;
    }
    return false;
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
                auto p = topo.route(cur, gpus[i]);
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

AllReduceResult
ringAllReduce(const Topology &topo, const std::vector<NodeId> &gpus,
              double bytes, const AllReduceParams &params)
{
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
    std::vector<NodeId> order = survivingRingOrder(topo, gpus);
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
    FlowSimulator fsim(topo);
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

AllReduceResult
treeAllReduce(const Topology &topo, const std::vector<NodeId> &gpus,
              double bytes, const AllReduceParams &params)
{
    AllReduceResult res;
    if (gpus.empty())
        sim::fatal("treeAllReduce: empty GPU set");
    for (NodeId g : gpus) {
        if (topo.kind(g) != NodeKind::Gpu)
            sim::fatal("treeAllReduce: node %d is not a GPU", g);
    }
    int n = static_cast<int>(gpus.size());
    res.fabric = topo.collectiveFabric(gpus);
    if (n == 1 || bytes <= 0.0)
        return res;

    bool staged = res.fabric == CollectiveFabric::HostStaged;
    double derate = staged ? params.staged_bw_derate : 1.0;
    double per_round_lat_us =
        staged ? params.staged_step_overhead_us : params.step_overhead_us;
    int buckets = std::max(params.buckets, 1);

    // Reduce phase: in round r, nodes at odd multiples of 2^r send
    // their full partial sum to the even partner. Broadcast mirrors
    // it. Simulate each distinct round's flow set; total time doubles
    // for the mirror phase.
    double reduce_s = 0.0;
    int rounds = 0;
    for (int stride = 1; stride < n; stride *= 2, ++rounds) {
        FlowSimulator fsim(topo);
        bool any = false;
        for (int i = 0; i + stride < n; i += 2 * stride) {
            fsim.addFlow(gpus[i + stride], gpus[i], bytes);
            any = true;
        }
        if (any)
            reduce_s += fsim.run() / derate;
        accountBytes(&res, fsim, 2.0);
    }
    res.seconds = 2.0 * reduce_s +
                  static_cast<double>(buckets) * 2.0 * rounds *
                      per_round_lat_us * 1e-6;
    res.seconds *= std::max(params.slowest_participant_scale, 1.0);
    return res;
}

AllReduceResult
autoAllReduce(const Topology &topo, const std::vector<NodeId> &gpus,
              double bytes, const AllReduceParams &params)
{
    AllReduceResult ring = ringAllReduce(topo, gpus, bytes, params);
    AllReduceResult tree = treeAllReduce(topo, gpus, bytes, params);
    return ring.seconds <= tree.seconds ? ring : tree;
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
    // intra-node fabric instead.
    Dsu node_uf(topo.nodeCount());
    Dsu rack_uf(topo.nodeCount());
    for (int e = 0; e < topo.edgeCount(); ++e) {
        auto [a, b] = topo.endpoints(e);
        FabricTier tier = topo.link(e).tier;
        if (tier == FabricTier::IntraNode)
            node_uf.unite(a, b);
        if (tier != FabricTier::CrossRack)
            rack_uf.unite(a, b);
    }

    std::unordered_map<int, int> group_of_root;
    for (NodeId g : gpus) {
        int root = node_uf.find(g);
        auto [it, fresh] = group_of_root.emplace(
            root, static_cast<int>(shape.node_groups.size()));
        if (fresh)
            shape.node_groups.emplace_back();
        shape.node_groups[it->second].push_back(g);
    }
    std::unordered_map<int, int> rack_of_root;
    for (std::size_t gi = 0; gi < shape.node_groups.size(); ++gi) {
        int root = rack_uf.find(shape.node_groups[gi][0]);
        auto [it, fresh] = rack_of_root.emplace(
            root, static_cast<int>(shape.rack_groups.size()));
        if (fresh)
            shape.rack_groups.emplace_back();
        shape.rack_groups[it->second].push_back(static_cast<int>(gi));
    }
    return shape;
}

namespace {

/** Fault-aware per-host ring orders, counting intra-node reroutes. */
std::vector<std::vector<NodeId>>
hostRingOrders(const Topology &topo, const FabricShape &shape,
               AllReduceResult *res)
{
    std::vector<std::vector<NodeId>> orders;
    orders.reserve(shape.node_groups.size());
    for (const auto &group : shape.node_groups) {
        std::vector<NodeId> order = survivingRingOrder(topo, group);
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
double
phaseSeconds(double step_s, int steps, int buckets, double lat_us)
{
    return steps * step_s +
           static_cast<double>(buckets) * steps * lat_us * 1e-6;
}

} // namespace

AllReduceResult
hierarchicalRingAllReduce(const Topology &topo,
                          const std::vector<NodeId> &gpus, double bytes,
                          const AllReduceParams &params)
{
    if (gpus.empty())
        sim::fatal("hierarchicalRingAllReduce: empty GPU set");
    FabricShape shape = fabricShape(topo, gpus);
    std::size_t hosts = shape.node_groups.size();
    // Degenerate shapes delegate to the flat ring *verbatim*: a
    // single-host pod must stay bit-identical to the box model.
    if (hosts <= 1 || !shape.uniform() || bytes <= 0.0)
        return ringAllReduce(topo, gpus, bytes, params);

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
        FlowSimulator fsim(topo);
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
        FlowSimulator fsim(topo);
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

AllReduceResult
hierarchicalTreeAllReduce(const Topology &topo,
                          const std::vector<NodeId> &gpus, double bytes,
                          const AllReduceParams &params)
{
    if (gpus.empty())
        sim::fatal("hierarchicalTreeAllReduce: empty GPU set");
    FabricShape shape = fabricShape(topo, gpus);
    std::size_t hosts = shape.node_groups.size();
    if (hosts <= 1 || !shape.uniform() || bytes <= 0.0)
        return ringAllReduce(topo, gpus, bytes, params);
    std::size_t racks = shape.rack_groups.size();
    if (racks <= 1)
        return hierarchicalRingAllReduce(topo, gpus, bytes, params);

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
        FlowSimulator fsim(topo);
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
        FlowSimulator fsim(topo);
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
            FlowSimulator fsim(topo);
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
        FlowSimulator fsim(topo);
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

AllReduceResult
autoHierarchicalAllReduce(const Topology &topo,
                          const std::vector<NodeId> &gpus, double bytes,
                          const AllReduceParams &params)
{
    if (gpus.empty())
        sim::fatal("autoHierarchicalAllReduce: empty GPU set");
    FabricShape shape = fabricShape(topo, gpus);
    // Single host (every Table III box): the flat fault-aware ring,
    // bit for bit.
    if (shape.node_groups.size() <= 1 || !shape.uniform())
        return ringAllReduce(topo, gpus, bytes, params);
    if (shape.rack_groups.size() <= 1)
        return hierarchicalRingAllReduce(topo, gpus, bytes, params);
    AllReduceResult ring2d =
        hierarchicalRingAllReduce(topo, gpus, bytes, params);
    AllReduceResult tree =
        hierarchicalTreeAllReduce(topo, gpus, bytes, params);
    return ring2d.seconds <= tree.seconds ? ring2d : tree;
}

double
analyticRingSeconds(const Topology &topo, const std::vector<NodeId> &gpus,
                    double bytes, const AllReduceParams &params)
{
    int n = static_cast<int>(gpus.size());
    if (n <= 1 || bytes <= 0.0)
        return 0.0;

    // Bottleneck neighbour-hop bandwidth around the ring.
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

} // namespace mlps::net
