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

/** One thread's buffers for the graph searches, reused across
 *  searches; a visit stamp replaces clearing the seen set. */
struct SearchScratch {
    std::vector<std::uint32_t> seen;
    std::vector<NodeId> prev_node; ///< bfs: the node reached from
    std::vector<int> prev_edge;    ///< bfs: the edge reached over
    std::vector<int> depth;        ///< computeHostCpu: hops from the GPU
    std::vector<NodeId> frontier;  ///< FIFO: a head index walks it
    std::uint32_t stamp = 0;
};

/** This thread's scratch, sized for 'nodes', with a fresh stamp and an
 *  empty frontier. */
SearchScratch &
searchScratch(std::size_t nodes)
{
    thread_local SearchScratch s;
    if (s.seen.size() < nodes) {
        s.seen.assign(nodes, 0);
        s.prev_node.resize(nodes);
        s.prev_edge.resize(nodes);
        s.depth.resize(nodes);
        s.stamp = 0;
    }
    if (++s.stamp == 0) {
        std::fill(s.seen.begin(), s.seen.end(), 0);
        s.stamp = 1;
    }
    s.frontier.clear();
    return s;
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

void
Topology::CacheHolder::clear()
{
    // Callers change the Topology, so no reader holds the lock.
    if (cache.primed)
        cache = Cache{};
}

Topology::Graph &
Topology::mutableGraph()
{
    if (!graph_ || graph_mark_.shared.load(std::memory_order_relaxed)) {
        auto own = std::make_shared<Graph>();
        if (graph_) {
            // A sharer may be writing the gateways.
            std::lock_guard<std::mutex> lock(graph_->gateways_mu);
            own->nodes = graph_->nodes;
            own->edges = graph_->edges;
        }
        graph_ = std::move(own);
        graph_mark_.shared.store(false, std::memory_order_relaxed);
    }
    cache_.clear();
    // This copy is the graph's only owner, and the graph was made
    // non-const by make_shared. Its memo and gateways described the
    // old shape.
    Graph &g = const_cast<Graph &>(*graph_);
    g.memo.clear();
    g.gateways_indexed.store(false, std::memory_order_relaxed);
    return g;
}

NodeId
Topology::addNode(NodeKind kind, const std::string &name)
{
    Graph &g = mutableGraph();
    g.nodes.push_back(Node{kind, 0, name, {}, {}, {-1, -1}});
    return static_cast<NodeId>(g.nodes.size()) - 1;
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
    Graph &g = mutableGraph();
    g.edges.push_back(Edge{a, b, link});
    link_state_.emplace_back();
    int id = static_cast<int>(g.edges.size()) - 1;
    for (auto [n, other] : {std::pair{a, b}, std::pair{b, a}}) {
        Node &node = g.nodes[n];
        node.edges.push_back(id);
        // bfs order: a new NVLink edge follows the node's last one,
        // any other edge goes last.
        if (link.kind == LinkKind::NvLink)
            node.adj.insert(node.adj.begin() + node.nvlinks++,
                            {other, id});
        else
            node.adj.emplace_back(other, id);
    }
    return id;
}

const std::vector<int> &
Topology::incidentEdges(NodeId n) const
{
    checkNode(n);
    return graph_->nodes[n].edges;
}

NodeKind
Topology::kind(NodeId n) const
{
    checkNode(n);
    return graph_->nodes[n].kind;
}

const std::string &
Topology::name(NodeId n) const
{
    checkNode(n);
    return graph_->nodes[n].name;
}

const LinkSpec &
Topology::link(int edge) const
{
    checkEdge(edge);
    return graph_->edges[edge].link;
}

std::pair<NodeId, NodeId>
Topology::endpoints(int edge) const
{
    checkEdge(edge);
    return {graph_->edges[edge].a, graph_->edges[edge].b};
}

Topology::Cache &
Topology::freshCacheLocked() const
{
    Cache &c = cache_.cache;
    if (!c.primed || c.down_epoch != down_epoch_) {
        c.routes.clear();
        c.host_cpu.clear();
        c.nvlink_label.clear();
        c.p2p_label.clear();
        c.down_epoch = down_epoch_;
        c.primed = true;
    }
    return c;
}

std::vector<NodeId>
Topology::nodesOfKind(NodeKind k) const
{
    std::vector<NodeId> out;
    for (NodeId n = 0; n < nodeCount(); ++n) {
        if (graph_->nodes[n].kind == k)
            out.push_back(n);
    }
    return out;
}

std::optional<Path>
Topology::bfs(NodeId from, NodeId to) const
{
    checkNode(from);
    checkNode(to);
    if (from == to)
        return Path{{from}, {}};

    const Graph &g = *graph_;
    SearchScratch &s = searchScratch(g.nodes.size());
    s.frontier.push_back(from);
    s.seen[from] = s.stamp;
    // Each adjacency lists NVLink edges first, each kind in connect
    // order — the order a stable NVLink-first sort of the incident
    // edges gives — so equal-hop NVLink routes win ties
    // deterministically. A fabric with no down link skips the
    // per-edge state.
    const bool any_down = anyLinkDown();
    for (std::size_t head = 0; head < s.frontier.size(); ++head) {
        NodeId n = s.frontier[head];
        for (auto [other, e] : g.nodes[n].adj) {
            if (s.seen[other] == s.stamp)
                continue;
            if (any_down && link_state_[e].down)
                continue; // a down link carries no traffic, ever
            s.seen[other] = s.stamp;
            s.prev_node[other] = n;
            s.prev_edge[other] = e;
            if (other == to) {
                Path p;
                for (NodeId cur = to; cur != from;
                     cur = s.prev_node[cur]) {
                    p.nodes.push_back(cur);
                    p.edges.push_back(s.prev_edge[cur]);
                }
                p.nodes.push_back(from);
                std::reverse(p.nodes.begin(), p.nodes.end());
                std::reverse(p.edges.begin(), p.edges.end());
                return p;
            }
            s.frontier.push_back(other);
        }
    }
    return std::nullopt;
}

const Topology::Graph &
Topology::indexedGraph() const
{
    const Graph &g = *graph_;
    if (g.gateways_indexed.load(std::memory_order_acquire))
        return g;
    std::lock_guard<std::mutex> lock(g.gateways_mu);
    if (g.gateways_indexed.load(std::memory_order_relaxed))
        return g;
    // Per level, one walk per cell over the edges of that tier or
    // below, down or up (a down link removes paths, never adds an
    // exit), then the cell's exits: members with a higher-tier edge.
    std::vector<bool> seen(g.nodes.size());
    std::vector<NodeId> cell;
    for (int level = 0; level < kGatewayLevels; ++level) {
        auto inCell = [&g, level](int e) {
            return static_cast<int>(g.edges[e].link.tier) <= level;
        };
        std::fill(seen.begin(), seen.end(), false);
        for (NodeId root = 0; root < nodeCount(); ++root) {
            if (seen[root])
                continue;
            seen[root] = true;
            cell.assign(1, root);
            NodeId gateway = -1;
            int exits = 0;
            for (std::size_t head = 0; head < cell.size(); ++head) {
                NodeId n = cell[head];
                bool exit = false;
                for (auto [other, e] : g.nodes[n].adj) {
                    if (!inCell(e)) {
                        exit = true;
                    } else if (!seen[other]) {
                        seen[other] = true;
                        cell.push_back(other);
                    }
                }
                if (exit) {
                    gateway = n;
                    ++exits;
                }
            }
            for (NodeId n : cell)
                g.nodes[n].gateway[level] = exits == 1 ? gateway : -1;
        }
    }
    g.gateways_indexed.store(true, std::memory_order_release);
    return g;
}

std::shared_ptr<const Path>
Topology::composeRoute(Cache &c, NodeId from, NodeId to) const
{
    const Graph &g = indexedGraph();
    for (int level = 0; level < kGatewayLevels && from != to; ++level) {
        NodeId a = g.nodes[from].gateway[level];
        NodeId b = g.nodes[to].gateway[level];
        // Same cell, an ungated cell, or the gateways themselves,
        // which only a coarser level (or the search) joins.
        if (a < 0 || b < 0 || a == b || (a == from && b == to))
            continue;
        // Every path leaves through a and enters through b, so a
        // missing piece leaves 'to' unreachable. The cache keeps the
        // pieces alive.
        const NodeId ends[] = {from, a, b, to};
        const Path *pieces[3];
        int hops = 0;
        for (int i = 0; i < 3; ++i) {
            const std::shared_ptr<const Path> &piece =
                routeLocked(c, ends[i], ends[i + 1]);
            if (!piece)
                return nullptr;
            pieces[i] = piece.get();
            hops += piece->hops();
        }
        auto joined = std::make_shared<Path>();
        joined->nodes.reserve(hops + 1);
        joined->edges.reserve(hops);
        joined->nodes.push_back(from);
        for (const Path *piece : pieces) {
            joined->nodes.insert(joined->nodes.end(),
                                 piece->nodes.begin() + 1,
                                 piece->nodes.end());
            joined->edges.insert(joined->edges.end(),
                                 piece->edges.begin(), piece->edges.end());
        }
        return joined;
    }
    std::optional<Path> p = bfs(from, to);
    if (!p)
        return nullptr;
    return std::make_shared<const Path>(std::move(*p));
}

const std::shared_ptr<const Path> &
Topology::routeLocked(Cache &c, NodeId from, NodeId to, bool *hit) const
{
    std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
         << 32) |
        static_cast<std::uint32_t>(to);
    auto it = c.routes.find(key);
    if (hit)
        *hit = it != c.routes.end();
    if (it != c.routes.end())
        return it->second;
    // Composing stores the pieces first; the map's nodes stay put.
    std::shared_ptr<const Path> p = composeRoute(c, from, to);
    return c.routes.emplace(key, std::move(p)).first->second;
}

std::shared_ptr<const Path>
Topology::sharedRoute(NodeId from, NodeId to) const
{
    ensureCacheMetrics();
    checkNode(from);
    checkNode(to);
    std::lock_guard<std::mutex> lock(cache_.mu);
    bool hit;
    std::shared_ptr<const Path> p =
        routeLocked(freshCacheLocked(), from, to, &hit);
    (hit ? g_route_cache_hits : g_route_cache_misses)
        .fetch_add(1, std::memory_order_relaxed);
    return p;
}

std::optional<Path>
Topology::route(NodeId from, NodeId to) const
{
    std::shared_ptr<const Path> p = sharedRoute(from, to);
    if (!p)
        return std::nullopt;
    return *p;
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
    const Graph &g = *graph_;
    std::vector<int> label(g.nodes.size(), -1);
    std::vector<NodeId> frontier;
    for (NodeId root = 0; root < nodeCount(); ++root) {
        if (label[root] >= 0)
            continue;
        label[root] = root;
        frontier.assign(1, root);
        for (std::size_t head = 0; head < frontier.size(); ++head) {
            NodeId n = frontier[head];
            for (int e : g.nodes[n].edges) {
                const Edge &edge = g.edges[e];
                if (link_state_[e].down || !usable(edge))
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
        const std::vector<Node> &nodes = graph_->nodes;
        c.p2p_label = componentLabels([&nodes](const Edge &edge) {
            return edge.link.kind != LinkKind::Upi &&
                   !blocksP2p(nodes[edge.a].kind) &&
                   !blocksP2p(nodes[edge.b].kind);
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
    std::lock_guard<std::mutex> lock(cache_.mu);
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
    std::lock_guard<std::mutex> lock(cache_.mu);
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
    std::lock_guard<std::mutex> lock(cache_.mu);
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
    const Graph &g = *graph_;
    SearchScratch &s = searchScratch(g.nodes.size());
    s.frontier.push_back(gpu);
    s.seen[gpu] = s.stamp;
    s.depth[gpu] = 0;
    const bool any_down = anyLinkDown();
    std::optional<NodeId> best;
    int best_depth = std::numeric_limits<int>::max();
    for (std::size_t head = 0; head < s.frontier.size(); ++head) {
        NodeId n = s.frontier[head];
        if (s.depth[n] > best_depth)
            break; // deeper layers cannot improve
        if (g.nodes[n].kind == NodeKind::Cpu &&
            (s.depth[n] < best_depth || (best && n < *best))) {
            best_depth = s.depth[n];
            best = n;
        }
        for (auto [other, e] : g.nodes[n].adj) {
            if (s.seen[other] == s.stamp ||
                (any_down && link_state_[e].down))
                continue;
            s.seen[other] = s.stamp;
            s.depth[other] = s.depth[n] + 1;
            s.frontier.push_back(other);
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
    std::lock_guard<std::mutex> lock(cache_.mu);
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
        const Edge &edge = graph_->edges[e];
        const LinkState &state = link_state_[e];
        os << graph_->nodes[edge.a].name << " <-> "
           << graph_->nodes[edge.b].name << "  ["
           << toString(edge.link.kind) << " " << edge.link.gbps << " GB/s";
        if (state.down)
            os << ", DOWN";
        else if (state.bandwidth_scale != 1.0)
            os << ", x" << state.bandwidth_scale;
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
    if (link_state_[edge].down == down)
        return;
    link_state_[edge].down = down;
    down_links_.n += down ? 1 : -1;
    ++epoch_;
    ++down_epoch_;
}

void
Topology::setLinkBandwidthScale(int edge, double scale)
{
    checkEdge(edge);
    if (!(scale > 0.0))
        sim::fatal("Topology: bandwidth scale %g on edge %d must be "
                   "positive (use setLinkDown for a dead link)",
                   scale, edge);
    if (link_state_[edge].bandwidth_scale == scale)
        return;
    link_state_[edge].bandwidth_scale = scale;
    ++epoch_;
}

bool
Topology::linkDown(int edge) const
{
    checkEdge(edge);
    return link_state_[edge].down;
}

double
Topology::linkBandwidthScale(int edge) const
{
    checkEdge(edge);
    return link_state_[edge].bandwidth_scale;
}

double
Topology::effectiveLinkBytesPerSec(int edge) const
{
    checkEdge(edge);
    const LinkState &state = link_state_[edge];
    if (state.down)
        return 0.0;
    return graph_->edges[edge].link.effectiveBytesPerSec() *
           state.bandwidth_scale;
}

void
Topology::resetLinkState()
{
    for (LinkState &state : link_state_) {
        if (!state.healthy()) {
            if (state.down)
                ++down_epoch_;
            state = LinkState{};
            ++epoch_;
        }
    }
    down_links_.n = 0;
}

bool
Topology::degraded() const
{
    for (const LinkState &state : link_state_) {
        if (!state.healthy())
            return true;
    }
    return false;
}

Topology::Digest
Topology::memoizedDigest(DigestPass pass, const Digest &in,
                         NodeLists lists) const
{
    if (!graph_)
        return pass(in, *this, lists);
    std::vector<std::pair<int, LinkState>> unhealthy;
    for (int e = 0; e < edgeCount(); ++e) {
        if (!link_state_[e].healthy())
            unhealthy.emplace_back(e, link_state_[e]);
    }
    auto sameLists = [&](const std::vector<std::vector<NodeId>> &have) {
        if (have.size() != lists.size())
            return false;
        for (std::size_t i = 0; i < have.size(); ++i) {
            if (have[i] != *lists[i])
                return false;
        }
        return true;
    };
    return graph_->memo.get(
        [&](const DigestMemoEntry &m) {
            return m.pass == pass && m.in == in &&
                   m.unhealthy == unhealthy && sameLists(m.lists);
        },
        [&] { return pass(in, *this, lists); },
        [&](const Digest &out) {
            std::vector<std::vector<NodeId>> copied;
            for (const std::vector<NodeId> *list : lists)
                copied.push_back(*list);
            return DigestMemoEntry{pass, in, std::move(unhealthy),
                                   std::move(copied), out};
        });
}

void
Topology::validate() const
{
    if (nodeCount() == 0)
        sim::fatal("Topology: no nodes");
    const std::vector<Node> &nodes = graph_->nodes;
    const std::vector<Edge> &edges = graph_->edges;
    for (int e = 0; e < edgeCount(); ++e) {
        const Edge &edge = edges[e];
        if (edge.a < 0 || edge.a >= nodeCount() || edge.b < 0 ||
            edge.b >= nodeCount())
            sim::fatal("Topology: edge %d has dangling endpoint "
                       "(%d <-> %d, %d nodes exist)",
                       e, edge.a, edge.b, nodeCount());
        if (!(edge.link.gbps > 0.0))
            sim::fatal("Topology: edge %d (%s <-> %s) has non-positive "
                       "bandwidth %g GB/s",
                       e, nodes[edge.a].name.c_str(),
                       nodes[edge.b].name.c_str(), edge.link.gbps);
        if (!(edge.link.efficiency > 0.0))
            sim::fatal("Topology: edge %d (%s <-> %s) has non-positive "
                       "efficiency %g",
                       e, nodes[edge.a].name.c_str(),
                       nodes[edge.b].name.c_str(),
                       edge.link.efficiency);
        if (!(link_state_[e].bandwidth_scale > 0.0))
            sim::fatal("Topology: edge %d (%s <-> %s) has non-positive "
                       "bandwidth scale %g",
                       e, nodes[edge.a].name.c_str(),
                       nodes[edge.b].name.c_str(),
                       link_state_[e].bandwidth_scale);
    }
    // Hierarchy invariants for pod fabrics. These fire before the
    // generic connectivity check so misconfigurations get an
    // actionable message instead of a bare "unreachable" one.
    for (int e = 0; e < edgeCount(); ++e) {
        const Edge &edge = edges[e];
        NodeKind ka = nodes[edge.a].kind;
        NodeKind kb = nodes[edge.b].kind;
        if ((ka == NodeKind::Gpu && kb == NodeKind::SpineSwitch) ||
            (kb == NodeKind::Gpu && ka == NodeKind::SpineSwitch))
            sim::fatal("Topology: GPU '%s' wired directly to spine "
                       "switch '%s'; did you mean to attach it behind "
                       "a NIC and ToR switch?",
                       nodes[ka == NodeKind::Gpu ? edge.a : edge.b]
                           .name.c_str(),
                       nodes[ka == NodeKind::Gpu ? edge.b : edge.a]
                           .name.c_str());
    }
    int tor_count = 0;
    for (const Node &n : nodes) {
        if (n.kind == NodeKind::TorSwitch)
            ++tor_count;
    }
    for (NodeId n = 0; n < nodeCount(); ++n) {
        if (nodes[n].kind == NodeKind::Nic) {
            bool uplinked = false;
            for (int e : nodes[n].edges) {
                NodeId other =
                    edges[e].a == n ? edges[e].b : edges[e].a;
                if (nodes[other].kind == NodeKind::TorSwitch)
                    uplinked = true;
            }
            if (!uplinked)
                sim::fatal("Topology: NIC '%s' has zero uplinks; did "
                           "you mean to connect it to a ToR switch?",
                           nodes[n].name.c_str());
        }
        if (nodes[n].kind == NodeKind::TorSwitch && tor_count >= 2) {
            bool spined = false;
            for (int e : nodes[n].edges) {
                NodeId other =
                    edges[e].a == n ? edges[e].b : edges[e].a;
                if (nodes[other].kind == NodeKind::SpineSwitch)
                    spined = true;
            }
            if (!spined)
                sim::fatal("Topology: rack of ToR switch '%s' is "
                           "disconnected from the pod (%d racks, no "
                           "spine uplink); did you mean to connect it "
                           "to a spine switch?",
                           nodes[n].name.c_str(), tor_count);
        }
    }

    // Connectivity over *up* edges: one dead link must not strand a
    // node, or routing (and therefore every transfer) silently fails.
    std::vector<bool> seen = reachableOverUpLinks();
    int reached = static_cast<int>(std::count(seen.begin(), seen.end(),
                                              true));
    for (NodeId n = 0; n < nodeCount(); ++n) {
        if (!seen[n])
            sim::fatal("Topology: node '%s' unreachable over up "
                       "links (%d of %d nodes connected)",
                       nodes[n].name.c_str(), reached, nodeCount());
    }
}

std::vector<bool>
Topology::reachableOverUpLinks() const
{
    std::vector<bool> seen(nodeCount(), false);
    if (seen.empty())
        return seen;
    const std::vector<Node> &nodes = graph_->nodes;
    const std::vector<Edge> &edges = graph_->edges;
    std::deque<NodeId> frontier{0};
    seen[0] = true;
    while (!frontier.empty()) {
        NodeId n = frontier.front();
        frontier.pop_front();
        for (int e : nodes[n].edges) {
            if (link_state_[e].down)
                continue;
            NodeId other = edges[e].a == n ? edges[e].b : edges[e].a;
            if (seen[other])
                continue;
            seen[other] = true;
            frontier.push_back(other);
        }
    }
    return seen;
}

} // namespace mlps::net
