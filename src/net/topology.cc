#include "net/topology.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <sstream>

#include "obs/registry.h"
#include "sim/logger.h"

namespace mlps::net {

namespace {

// Route-cache totals are process-wide (topologies are copied freely,
// the metric tracks the harness). Atomics: gauges must be readable
// from any thread, and parallel report workers share topologies.
std::atomic<std::uint64_t> g_route_cache_hits{0};
std::atomic<std::uint64_t> g_route_cache_misses{0};

void
ensureCacheMetrics()
{
    static obs::MetricRegistry::Registration hits =
        obs::MetricRegistry::global().registerGauge(
            "net.topology.route_cache.hits",
            [] {
                return static_cast<double>(
                    g_route_cache_hits.load(std::memory_order_relaxed));
            },
            obs::Volatility::Volatile);
    static obs::MetricRegistry::Registration misses =
        obs::MetricRegistry::global().registerGauge(
            "net.topology.route_cache.misses",
            [] {
                return static_cast<double>(
                    g_route_cache_misses.load(std::memory_order_relaxed));
            },
            obs::Volatility::Volatile);
    (void)hits;
    (void)misses;
}

/** Nodes a GPUDirect P2P path may not pass through: CPU root
 *  complexes and the datacenter fabric (GPUDirect P2P never crosses a
 *  NIC — remote access is RDMA, which this model treats as
 *  host-staged). */
bool
blocksP2p(NodeKind k)
{
    return k == NodeKind::Cpu || k == NodeKind::Nic ||
           k == NodeKind::TorSwitch || k == NodeKind::SpineSwitch;
}

} // namespace

std::string
toString(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Cpu: return "CPU";
      case NodeKind::Gpu: return "GPU";
      case NodeKind::PcieSwitch: return "PCIeSwitch";
      case NodeKind::Nic: return "NIC";
      case NodeKind::TorSwitch: return "ToRSwitch";
      case NodeKind::SpineSwitch: return "SpineSwitch";
    }
    sim::panic("toString: bad NodeKind %d", static_cast<int>(kind));
}

std::string
toString(CollectiveFabric fabric)
{
    switch (fabric) {
      case CollectiveFabric::NvLink: return "NVLink";
      case CollectiveFabric::PcieP2p: return "PCIe-P2P";
      case CollectiveFabric::HostStaged: return "Host-staged";
    }
    sim::panic("toString: bad CollectiveFabric %d",
               static_cast<int>(fabric));
}

Topology::Topology(const Topology &other)
{
    nodes_ = other.nodes_;
    edges_ = other.edges_;
    epoch_ = other.epoch_;
    structure_version_ = other.structure_version_;
}

Topology &
Topology::operator=(const Topology &other)
{
    if (this == &other)
        return *this;
    nodes_ = other.nodes_;
    edges_ = other.edges_;
    epoch_ = other.epoch_;
    structure_version_ = other.structure_version_;
    std::lock_guard<std::mutex> lock(cache_mu_);
    cache_ = Cache{};
    return *this;
}

Topology::Topology(Topology &&other) noexcept
{
    nodes_ = std::move(other.nodes_);
    edges_ = std::move(other.edges_);
    epoch_ = other.epoch_;
    structure_version_ = other.structure_version_;
}

Topology &
Topology::operator=(Topology &&other) noexcept
{
    if (this == &other)
        return *this;
    nodes_ = std::move(other.nodes_);
    edges_ = std::move(other.edges_);
    epoch_ = other.epoch_;
    structure_version_ = other.structure_version_;
    std::lock_guard<std::mutex> lock(cache_mu_);
    cache_ = Cache{};
    return *this;
}

NodeId
Topology::addNode(NodeKind kind, const std::string &name)
{
    nodes_.push_back(Node{kind, name, {}});
    ++structure_version_;
    return static_cast<NodeId>(nodes_.size()) - 1;
}

NodeId
Topology::addCpu(const std::string &name)
{
    return addNode(NodeKind::Cpu, name);
}

NodeId
Topology::addGpu(const std::string &name)
{
    return addNode(NodeKind::Gpu, name);
}

NodeId
Topology::addSwitch(const std::string &name)
{
    return addNode(NodeKind::PcieSwitch, name);
}

NodeId
Topology::addNic(const std::string &name)
{
    return addNode(NodeKind::Nic, name);
}

NodeId
Topology::addTorSwitch(const std::string &name)
{
    return addNode(NodeKind::TorSwitch, name);
}

NodeId
Topology::addSpineSwitch(const std::string &name)
{
    return addNode(NodeKind::SpineSwitch, name);
}

void
Topology::checkNode(NodeId n) const
{
    if (n < 0 || n >= nodeCount())
        sim::fatal("Topology: node id %d out of range [0,%d)", n,
                   nodeCount());
}

int
Topology::connect(NodeId a, NodeId b, const LinkSpec &link)
{
    checkNode(a);
    checkNode(b);
    if (a == b)
        sim::fatal("Topology::connect: self-loop on node %d", a);
    edges_.push_back(Edge{a, b, link});
    int id = static_cast<int>(edges_.size()) - 1;
    nodes_[a].edges.push_back(id);
    nodes_[b].edges.push_back(id);
    ++structure_version_;
    return id;
}

const std::vector<int> &
Topology::incidentEdges(NodeId n) const
{
    checkNode(n);
    return nodes_[n].edges;
}

NodeKind
Topology::kind(NodeId n) const
{
    checkNode(n);
    return nodes_[n].kind;
}

const std::string &
Topology::name(NodeId n) const
{
    checkNode(n);
    return nodes_[n].name;
}

const LinkSpec &
Topology::link(int edge) const
{
    if (edge < 0 || edge >= edgeCount())
        sim::fatal("Topology: edge id %d out of range", edge);
    return edges_[edge].link;
}

std::pair<NodeId, NodeId>
Topology::endpoints(int edge) const
{
    if (edge < 0 || edge >= edgeCount())
        sim::fatal("Topology: edge id %d out of range", edge);
    return {edges_[edge].a, edges_[edge].b};
}

Topology::Cache &
Topology::freshCacheLocked() const
{
    if (!cache_.primed || cache_.epoch != epoch_ ||
        cache_.structure != structure_version_) {
        cache_.routes.clear();
        cache_.host_cpu.clear();
        for (int k = 0; k < kNumNodeKinds; ++k) {
            cache_.by_kind[k].clear();
            cache_.by_kind_valid[k] = false;
        }
        cache_.nvlink_label.clear();
        cache_.p2p_label.clear();
        cache_.epoch = epoch_;
        cache_.structure = structure_version_;
        cache_.primed = true;
    }
    return cache_;
}

std::vector<NodeId>
Topology::nodesOfKind(NodeKind k) const
{
    ensureCacheMetrics();
    int ki = static_cast<int>(k);
    std::lock_guard<std::mutex> lock(cache_mu_);
    Cache &c = freshCacheLocked();
    if (c.by_kind_valid[ki]) {
        g_route_cache_hits.fetch_add(1, std::memory_order_relaxed);
        return c.by_kind[ki];
    }
    g_route_cache_misses.fetch_add(1, std::memory_order_relaxed);
    std::vector<NodeId> out;
    for (NodeId n = 0; n < nodeCount(); ++n) {
        if (nodes_[n].kind == k)
            out.push_back(n);
    }
    c.by_kind[ki] = out;
    c.by_kind_valid[ki] = true;
    return out;
}

std::optional<Path>
Topology::bfs(NodeId from, NodeId to) const
{
    checkNode(from);
    checkNode(to);
    if (from == to)
        return Path{{from}, {}};

    // Each thread reuses its buffers across searches; a visit stamp
    // replaces clearing the seen set.
    thread_local std::vector<std::uint32_t> seen;
    thread_local std::vector<int> prev_edge;
    thread_local std::vector<NodeId> frontier;
    thread_local std::uint32_t stamp = 0;
    if (seen.size() < nodes_.size()) {
        seen.assign(nodes_.size(), 0);
        prev_edge.resize(nodes_.size());
        stamp = 0;
    }
    if (++stamp == 0) {
        std::fill(seen.begin(), seen.end(), 0);
        stamp = 1;
    }
    frontier.clear();
    frontier.push_back(from);
    seen[from] = stamp;

    // NVLink preference: a first pass over a node's edges visits its
    // NVLink edges and a second pass the rest, each in connect order —
    // the order a stable NVLink-first sort gives — so equal-hop
    // NVLink routes win ties deterministically.
    for (std::size_t head = 0; head < frontier.size(); ++head) {
        NodeId n = frontier[head];
        for (bool want_nvlink : {true, false}) {
            for (int e : nodes_[n].edges) {
                const Edge &edge = edges_[e];
                if ((edge.link.kind == LinkKind::NvLink) != want_nvlink)
                    continue;
                if (edge.down)
                    continue; // a down link carries no traffic, ever
                NodeId other = edge.a == n ? edge.b : edge.a;
                if (seen[other] == stamp)
                    continue;
                seen[other] = stamp;
                prev_edge[other] = e;
                if (other == to) {
                    Path p;
                    for (NodeId cur = to; cur != from;) {
                        int pe = prev_edge[cur];
                        p.nodes.push_back(cur);
                        p.edges.push_back(pe);
                        cur = edges_[pe].a == cur ? edges_[pe].b
                                                  : edges_[pe].a;
                    }
                    p.nodes.push_back(from);
                    std::reverse(p.nodes.begin(), p.nodes.end());
                    std::reverse(p.edges.begin(), p.edges.end());
                    return p;
                }
                frontier.push_back(other);
            }
        }
    }
    return std::nullopt;
}

std::optional<Path>
Topology::route(NodeId from, NodeId to) const
{
    ensureCacheMetrics();
    checkNode(from);
    checkNode(to);
    std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
         << 32) |
        static_cast<std::uint32_t>(to);
    std::lock_guard<std::mutex> lock(cache_mu_);
    Cache &c = freshCacheLocked();
    auto it = c.routes.find(key);
    if (it != c.routes.end()) {
        g_route_cache_hits.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }
    g_route_cache_misses.fetch_add(1, std::memory_order_relaxed);
    auto p = bfs(from, to);
    c.routes.emplace(key, p);
    return p;
}

double
Topology::pathBandwidth(const Path &p) const
{
    if (p.edges.empty())
        return 0.0;
    double bw = std::numeric_limits<double>::infinity();
    for (int e : p.edges)
        bw = std::min(bw, effectiveLinkBytesPerSec(e));
    return bw;
}

double
Topology::pathLatency(const Path &p) const
{
    double lat = 0.0;
    for (int e : p.edges)
        lat += link(e).latency_us * 1e-6;
    return lat;
}

template <typename EdgePred>
std::vector<int>
Topology::componentLabels(EdgePred usable) const
{
    std::vector<int> label(nodes_.size(), -1);
    std::vector<NodeId> frontier;
    for (NodeId root = 0; root < nodeCount(); ++root) {
        if (label[root] >= 0)
            continue;
        label[root] = root;
        frontier.assign(1, root);
        for (std::size_t head = 0; head < frontier.size(); ++head) {
            NodeId n = frontier[head];
            for (int e : nodes_[n].edges) {
                const Edge &edge = edges_[e];
                if (edge.down || !usable(edge))
                    continue;
                NodeId other = edge.a == n ? edge.b : edge.a;
                if (label[other] >= 0)
                    continue;
                label[other] = root;
                frontier.push_back(other);
            }
        }
    }
    return label;
}

const Topology::Cache &
Topology::labelledCacheLocked() const
{
    Cache &c = freshCacheLocked();
    if (c.nvlink_label.empty()) {
        c.nvlink_label = componentLabels([](const Edge &edge) {
            return edge.link.kind == LinkKind::NvLink;
        });
        // A P2P-legal edge is no UPI link and touches no node that
        // blocks P2P, so a P2P path crosses neither.
        c.p2p_label = componentLabels([this](const Edge &edge) {
            return edge.link.kind != LinkKind::Upi &&
                   !blocksP2p(nodes_[edge.a].kind) &&
                   !blocksP2p(nodes_[edge.b].kind);
        });
    }
    return c;
}

bool
Topology::canPeerToPeer(NodeId gpu_a, NodeId gpu_b) const
{
    if (kind(gpu_a) != NodeKind::Gpu || kind(gpu_b) != NodeKind::Gpu)
        sim::fatal("canPeerToPeer: both endpoints must be GPUs");
    if (gpu_a == gpu_b)
        return true;
    std::lock_guard<std::mutex> lock(cache_mu_);
    const Cache &c = labelledCacheLocked();
    return c.p2p_label[gpu_a] == c.p2p_label[gpu_b];
}

bool
Topology::nvlinkConnected(NodeId gpu_a, NodeId gpu_b) const
{
    checkNode(gpu_a);
    checkNode(gpu_b);
    if (gpu_a == gpu_b)
        return true;
    std::lock_guard<std::mutex> lock(cache_mu_);
    const Cache &c = labelledCacheLocked();
    return c.nvlink_label[gpu_a] == c.nvlink_label[gpu_b];
}

CollectiveFabric
Topology::collectiveFabric(const std::vector<NodeId> &gpus) const
{
    if (gpus.empty())
        sim::fatal("collectiveFabric: empty GPU set");
    for (NodeId g : gpus) {
        if (kind(g) != NodeKind::Gpu)
            sim::fatal("collectiveFabric: node %d is not a GPU", g);
    }

    // Every pair is connected exactly when every member shares the
    // first member's component, so one pass over the set answers what
    // a BFS per pair would.
    std::lock_guard<std::mutex> lock(cache_mu_);
    const Cache &c = labelledCacheLocked();
    bool all_nvlink = true;
    bool all_p2p = true;
    for (NodeId g : gpus) {
        if (c.nvlink_label[g] != c.nvlink_label[gpus[0]])
            all_nvlink = false;
        if (c.p2p_label[g] != c.p2p_label[gpus[0]])
            all_p2p = false;
    }
    if (all_nvlink)
        return CollectiveFabric::NvLink;
    if (all_p2p)
        return CollectiveFabric::PcieP2p;
    return CollectiveFabric::HostStaged;
}

std::optional<NodeId>
Topology::computeHostCpu(NodeId gpu) const
{
    // One BFS over up links; the nearest CPU at minimum depth with the
    // lowest node id wins — identical to probing every CPU with
    // route() and keeping the first strict improvement, without
    // paying #CPUs searches on a pod-scale graph.
    std::vector<int> depth(nodes_.size(), -1);
    std::deque<NodeId> frontier;
    frontier.push_back(gpu);
    depth[gpu] = 0;
    std::optional<NodeId> best;
    int best_depth = std::numeric_limits<int>::max();
    while (!frontier.empty()) {
        NodeId n = frontier.front();
        frontier.pop_front();
        if (depth[n] > best_depth)
            break; // deeper layers cannot improve
        if (nodes_[n].kind == NodeKind::Cpu &&
            (depth[n] < best_depth || (best && n < *best))) {
            best_depth = depth[n];
            best = n;
        }
        for (int e : nodes_[n].edges) {
            if (edges_[e].down)
                continue;
            NodeId other = edges_[e].a == n ? edges_[e].b : edges_[e].a;
            if (depth[other] >= 0)
                continue;
            depth[other] = depth[n] + 1;
            frontier.push_back(other);
        }
    }
    return best;
}

std::optional<NodeId>
Topology::hostCpu(NodeId gpu) const
{
    ensureCacheMetrics();
    if (kind(gpu) != NodeKind::Gpu)
        sim::fatal("hostCpu: node %d is not a GPU", gpu);
    std::lock_guard<std::mutex> lock(cache_mu_);
    Cache &c = freshCacheLocked();
    auto it = c.host_cpu.find(gpu);
    if (it != c.host_cpu.end()) {
        g_route_cache_hits.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }
    g_route_cache_misses.fetch_add(1, std::memory_order_relaxed);
    auto best = computeHostCpu(gpu);
    c.host_cpu.emplace(gpu, best);
    return best;
}

std::string
Topology::describe() const
{
    std::ostringstream os;
    for (int e = 0; e < edgeCount(); ++e) {
        const Edge &edge = edges_[e];
        os << nodes_[edge.a].name << " <-> " << nodes_[edge.b].name
           << "  [" << toString(edge.link.kind) << " "
           << edge.link.gbps << " GB/s";
        if (edge.down)
            os << ", DOWN";
        else if (edge.bandwidth_scale != 1.0)
            os << ", x" << edge.bandwidth_scale;
        os << "]\n";
    }
    return os.str();
}

void
Topology::checkEdge(int edge) const
{
    if (edge < 0 || edge >= edgeCount())
        sim::fatal("Topology: edge id %d out of range [0,%d)", edge,
                   edgeCount());
}

void
Topology::setLinkDown(int edge, bool down)
{
    checkEdge(edge);
    if (edges_[edge].down == down)
        return;
    edges_[edge].down = down;
    ++epoch_;
}

void
Topology::setLinkBandwidthScale(int edge, double scale)
{
    checkEdge(edge);
    if (!(scale > 0.0))
        sim::fatal("Topology: bandwidth scale %g on edge %d must be "
                   "positive (use setLinkDown for a dead link)",
                   scale, edge);
    if (edges_[edge].bandwidth_scale == scale)
        return;
    edges_[edge].bandwidth_scale = scale;
    ++epoch_;
}

bool
Topology::linkDown(int edge) const
{
    checkEdge(edge);
    return edges_[edge].down;
}

double
Topology::linkBandwidthScale(int edge) const
{
    checkEdge(edge);
    return edges_[edge].bandwidth_scale;
}

double
Topology::effectiveLinkBytesPerSec(int edge) const
{
    checkEdge(edge);
    const Edge &e = edges_[edge];
    if (e.down)
        return 0.0;
    return e.link.effectiveBytesPerSec() * e.bandwidth_scale;
}

void
Topology::resetLinkState()
{
    for (Edge &e : edges_) {
        if (e.down || e.bandwidth_scale != 1.0) {
            e.down = false;
            e.bandwidth_scale = 1.0;
            ++epoch_;
        }
    }
}

bool
Topology::degraded() const
{
    for (const Edge &e : edges_) {
        if (e.down || e.bandwidth_scale != 1.0)
            return true;
    }
    return false;
}

bool
Topology::anyLinkDown() const
{
    for (const Edge &e : edges_) {
        if (e.down)
            return true;
    }
    return false;
}

void
Topology::validate() const
{
    if (nodes_.empty())
        sim::fatal("Topology: no nodes");
    for (int e = 0; e < edgeCount(); ++e) {
        const Edge &edge = edges_[e];
        if (edge.a < 0 || edge.a >= nodeCount() || edge.b < 0 ||
            edge.b >= nodeCount())
            sim::fatal("Topology: edge %d has dangling endpoint "
                       "(%d <-> %d, %d nodes exist)",
                       e, edge.a, edge.b, nodeCount());
        if (!(edge.link.gbps > 0.0))
            sim::fatal("Topology: edge %d (%s <-> %s) has non-positive "
                       "bandwidth %g GB/s",
                       e, nodes_[edge.a].name.c_str(),
                       nodes_[edge.b].name.c_str(), edge.link.gbps);
        if (!(edge.link.efficiency > 0.0))
            sim::fatal("Topology: edge %d (%s <-> %s) has non-positive "
                       "efficiency %g",
                       e, nodes_[edge.a].name.c_str(),
                       nodes_[edge.b].name.c_str(),
                       edge.link.efficiency);
        if (!(edge.bandwidth_scale > 0.0))
            sim::fatal("Topology: edge %d (%s <-> %s) has non-positive "
                       "bandwidth scale %g",
                       e, nodes_[edge.a].name.c_str(),
                       nodes_[edge.b].name.c_str(), edge.bandwidth_scale);
    }
    // Hierarchy invariants for pod fabrics. These fire before the
    // generic connectivity check so misconfigurations get an
    // actionable message instead of a bare "unreachable" one.
    for (int e = 0; e < edgeCount(); ++e) {
        const Edge &edge = edges_[e];
        NodeKind ka = nodes_[edge.a].kind;
        NodeKind kb = nodes_[edge.b].kind;
        if ((ka == NodeKind::Gpu && kb == NodeKind::SpineSwitch) ||
            (kb == NodeKind::Gpu && ka == NodeKind::SpineSwitch))
            sim::fatal("Topology: GPU '%s' wired directly to spine "
                       "switch '%s'; did you mean to attach it behind "
                       "a NIC and ToR switch?",
                       nodes_[ka == NodeKind::Gpu ? edge.a : edge.b]
                           .name.c_str(),
                       nodes_[ka == NodeKind::Gpu ? edge.b : edge.a]
                           .name.c_str());
    }
    int tor_count = 0;
    for (const Node &n : nodes_) {
        if (n.kind == NodeKind::TorSwitch)
            ++tor_count;
    }
    for (NodeId n = 0; n < nodeCount(); ++n) {
        if (nodes_[n].kind == NodeKind::Nic) {
            bool uplinked = false;
            for (int e : nodes_[n].edges) {
                NodeId other =
                    edges_[e].a == n ? edges_[e].b : edges_[e].a;
                if (nodes_[other].kind == NodeKind::TorSwitch)
                    uplinked = true;
            }
            if (!uplinked)
                sim::fatal("Topology: NIC '%s' has zero uplinks; did "
                           "you mean to connect it to a ToR switch?",
                           nodes_[n].name.c_str());
        }
        if (nodes_[n].kind == NodeKind::TorSwitch && tor_count >= 2) {
            bool spined = false;
            for (int e : nodes_[n].edges) {
                NodeId other =
                    edges_[e].a == n ? edges_[e].b : edges_[e].a;
                if (nodes_[other].kind == NodeKind::SpineSwitch)
                    spined = true;
            }
            if (!spined)
                sim::fatal("Topology: rack of ToR switch '%s' is "
                           "disconnected from the pod (%d racks, no "
                           "spine uplink); did you mean to connect it "
                           "to a spine switch?",
                           nodes_[n].name.c_str(), tor_count);
        }
    }

    // Connectivity over *up* edges: one dead link must not strand a
    // node, or routing (and therefore every transfer) silently fails.
    std::vector<bool> seen(nodes_.size(), false);
    std::deque<NodeId> frontier;
    frontier.push_back(0);
    seen[0] = true;
    int reached = 1;
    while (!frontier.empty()) {
        NodeId n = frontier.front();
        frontier.pop_front();
        for (int e : nodes_[n].edges) {
            if (edges_[e].down)
                continue;
            NodeId other = edges_[e].a == n ? edges_[e].b : edges_[e].a;
            if (seen[other])
                continue;
            seen[other] = true;
            ++reached;
            frontier.push_back(other);
        }
    }
    if (reached != nodeCount()) {
        for (NodeId n = 0; n < nodeCount(); ++n) {
            if (!seen[n])
                sim::fatal("Topology: node '%s' unreachable over up "
                           "links (%d of %d nodes connected)",
                           nodes_[n].name.c_str(), reached, nodeCount());
        }
    }
}

} // namespace mlps::net
