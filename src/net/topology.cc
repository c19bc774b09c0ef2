#include "net/topology.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
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

thread_local SearchScratch t_scratch;

/** This thread's scratch, sized for 'nodes', with a fresh stamp and an
 *  empty frontier. */
SearchScratch &
searchScratch(std::size_t nodes)
{
    SearchScratch &s = t_scratch;
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

/** Hops from the start of this thread's last host-CPU search to 'n',
 *  or INT_MAX when that search stopped before reaching it. */
int
lastSearchDepth(NodeId n)
{
    const SearchScratch &s = t_scratch;
    return s.seen[n] == s.stamp ? s.depth[n]
                                : std::numeric_limits<int>::max();
}

/** The root of n's set in a union-find whose roots lead their sets
 *  as their lowest node; halves the path on the way. */
NodeId
findRoot(std::vector<NodeId> &parent, NodeId n)
{
    while (parent[n] != n)
        n = parent[n] = parent[parent[n]];
    return n;
}

/** Join the sets of a and b under the lower of their roots. */
void
unite(std::vector<NodeId> &parent, NodeId a, NodeId b)
{
    a = findRoot(parent, a);
    b = findRoot(parent, b);
    parent[std::max(a, b)] = std::min(a, b);
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
            own->nodes = graph_->nodes;
            own->edges = graph_->edges;
            own->blocks = graph_->blocks;
        }
        graph_ = std::move(own);
        graph_mark_.shared.store(false, std::memory_order_relaxed);
    }
    cache_.clear();
    // This copy is the graph's only owner, and the graph was made
    // non-const by make_shared. Its memo, validated mark and index
    // described the old shape.
    Graph &g = const_cast<Graph &>(*graph_);
    g.memo.clear();
    g.validated.store(false, std::memory_order_relaxed);
    delete g.index.exchange(nullptr, std::memory_order_relaxed);
    return g;
}

void
Topology::recordBlock(int level, NodeId first_node, int first_edge)
{
    if (level < 0 || level >= kGatewayLevels || first_node < 0 ||
        first_node > nodeCount() || first_edge < 0 ||
        first_edge > edgeCount())
        sim::fatal("Topology::recordBlock: level %d block from node %d, "
                   "edge %d outside [0,%d) levels, [0,%d] nodes, [0,%d] "
                   "edges",
                   level, first_node, first_edge, kGatewayLevels,
                   nodeCount(), edgeCount());
    NodeId nodes = nodeCount() - first_node;
    int edges = edgeCount() - first_edge;
    mutableGraph().blocks[level].push_back(
        {first_node, nodes, first_edge, edges});
}

NodeId
Topology::addNode(NodeKind kind, const std::string &name)
{
    Graph &g = mutableGraph();
    g.nodes.push_back(Node{kind, name});
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
    return static_cast<int>(g.edges.size()) - 1;
}

std::span<const int>
Topology::incidentEdges(NodeId n) const
{
    checkNode(n);
    return index().edgesOf(n);
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
Topology::bfs(const GraphIndex &ix, NodeId from, NodeId to,
              bool all_links) const
{
    checkNode(from);
    checkNode(to);
    if (from == to)
        return Path{{from}, {}};

    SearchScratch &s = searchScratch(nodeCount());
    s.frontier.push_back(from);
    s.seen[from] = s.stamp;
    // Each adjacency lists NVLink edges first, each kind in connect
    // order — the order a stable NVLink-first sort of the incident
    // edges gives — so equal-hop NVLink routes win ties
    // deterministically. A fabric with no down link skips the
    // per-edge state.
    const bool any_down = !all_links && anyLinkDown();
    for (std::size_t head = 0; head < s.frontier.size(); ++head) {
        NodeId n = s.frontier[head];
        for (auto [other, e] : ix.adjOf(n)) {
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

const Topology::GraphIndex &
Topology::index() const
{
    const Graph &g = *graph_;
    if (const GraphIndex *ix = g.index.load(std::memory_order_acquire))
        return *ix;
    std::lock_guard<std::mutex> lock(g.index_mu);
    if (const GraphIndex *ix = g.index.load(std::memory_order_relaxed))
        return *ix;
    auto ix = std::make_unique<GraphIndex>();
    // Incident edges in edge-id order, then each node's adjacency:
    // NVLink edges first, so that equal-hop NVLink routes win ties.
    const int nodes = nodeCount();
    ix->first.assign(nodes + 1, 0);
    for (const Edge &edge : g.edges) {
        ++ix->first[edge.a + 1];
        ++ix->first[edge.b + 1];
    }
    std::partial_sum(ix->first.begin(), ix->first.end(), ix->first.begin());
    ix->incident.resize(ix->first[nodes]);
    ix->adj.resize(ix->first[nodes]);
    std::vector<int> next(ix->first.begin(), ix->first.end() - 1);
    for (int e = 0; e < edgeCount(); ++e) {
        ix->incident[next[g.edges[e].a]++] = e;
        ix->incident[next[g.edges[e].b]++] = e;
    }
    std::copy(ix->first.begin(), ix->first.end() - 1, next.begin());
    for (bool nvlink : {true, false}) {
        for (int e = 0; e < edgeCount(); ++e) {
            const Edge &edge = g.edges[e];
            if ((edge.link.kind == LinkKind::NvLink) != nvlink)
                continue;
            ix->adj[next[edge.a]++] = {edge.b, e};
            ix->adj[next[edge.b]++] = {edge.a, e};
        }
    }
    // Per level, the cells are the sets of a union-find over the edges
    // of that tier or below, down or up (a down link removes paths,
    // never adds an exit), each led by its lowest node; a cell's exits
    // are its members with a higher-tier edge. A level's cells join
    // the cells of the level below.
    ix->gateway.resize(nodes);
    ix->cell.resize(nodes);
    std::vector<NodeId> parent(nodes);
    std::iota(parent.begin(), parent.end(), 0);
    std::vector<char> leaves(nodes); // per node: a higher-tier edge
    std::vector<int> exits(nodes);   // per cell
    std::vector<NodeId> gate(nodes); // per cell: one of its exits
    for (int level = 0; level < kGatewayLevels; ++level) {
        std::fill(leaves.begin(), leaves.end(), 0);
        std::fill(exits.begin(), exits.end(), 0);
        for (const Edge &edge : g.edges) {
            if (static_cast<int>(edge.link.tier) <= level)
                unite(parent, edge.a, edge.b);
            else
                leaves[edge.a] = leaves[edge.b] = 1;
        }
        for (NodeId n = 0; n < nodes; ++n) {
            const NodeId cell = ix->cell[n][level] = findRoot(parent, n);
            if (leaves[n]) {
                ++exits[cell];
                gate[cell] = n;
            }
        }
        for (NodeId n = 0; n < nodes; ++n) {
            const NodeId cell = ix->cell[n][level];
            ix->gateway[n][level] = exits[cell] == 1 ? gate[cell] : -1;
        }
    }
    for (int level = 0; level < kGatewayLevels; ++level)
        ix->copies[level] = checkBlockCopies(*ix, level);
    g.index.store(ix.get(), std::memory_order_release);
    return *ix.release();
}

std::unique_ptr<const Topology::BlockCopies>
Topology::checkBlockCopies(GraphIndex &ix, int level) const
{
    const Graph &g = *graph_;
    const std::vector<BlockRecord> &blocks = g.blocks[level];
    auto c = std::make_unique<BlockCopies>();
    auto inCell = [level](const Edge &x) {
        return static_cast<int>(x.link.tier) <= level;
    };
    auto copies = [&]() {
        if (blocks.empty())
            return false;
        const BlockRecord &first = blocks[0];
        c->nodes = first.nodes;
        c->edges = first.edges;
        c->first_node = first.first_node;
        c->first_edge = first.first_edge;
        c->block_of.assign(g.nodes.size(), -1);
        for (std::size_t k = 0; k < blocks.size(); ++k) {
            const BlockRecord &h = blocks[k];
            if (h.nodes != first.nodes || h.edges != first.edges)
                return false;
            for (NodeId n = h.first_node; n < h.first_node + h.nodes; ++n) {
                if (c->block_of[n] >= 0)
                    return false;
                c->block_of[n] = static_cast<int>(k);
            }
            c->node_offset.push_back(h.first_node - first.first_node);
            c->edge_offset.push_back(h.first_edge - first.first_edge);
        }
        const NodeId gate =
            c->nodes > 0 ? ix.gateway[c->first_node][level] : -1;
        if (gate < 0 || c->block_of[gate] != 0)
            return false;
        auto inBlock = [&](int e, int k) {
            int i = e - c->first_edge - c->edge_offset[k];
            return i >= 0 && i < c->edges;
        };
        // Every edge of the first block's record touches the block, and
        // every edge of its nodes outside the record leaves the block
        // over a tier above the level's, so that the block is its own
        // cell of the level.
        for (int e = c->first_edge; e < c->first_edge + c->edges; ++e) {
            if (c->block_of[g.edges[e].a] != 0 &&
                c->block_of[g.edges[e].b] != 0)
                return false;
            if (inCell(g.edges[e]))
                c->cell_edges.push_back(e);
        }
        for (std::size_t k = 0; k < blocks.size(); ++k) {
            const NodeId dn = c->node_offset[k];
            const int de = c->edge_offset[k];
            const int block = static_cast<int>(k);
            // n0 of the first block and nk of block k correspond.
            auto same = [&](NodeId n0, NodeId nk) {
                return c->block_of[n0] == 0 ? nk == n0 + dn
                                            : c->block_of[nk] != block;
            };
            for (NodeId n0 = c->first_node; n0 < c->first_node + c->nodes;
                 ++n0) {
                const std::span<const int> a = ix.edgesOf(n0);
                const std::span<const int> b = ix.edgesOf(n0 + dn);
                if (g.nodes[n0].kind != g.nodes[n0 + dn].kind ||
                    ix.gateway[n0][level] != gate ||
                    ix.gateway[n0 + dn][level] != gate + dn ||
                    a.size() != b.size())
                    return false;
                for (std::size_t j = 0; j < a.size(); ++j) {
                    int e0 = a[j];
                    int ek = b[j];
                    const Edge &x = g.edges[e0];
                    const Edge &y = g.edges[ek];
                    bool inside = c->block_of[x.a] == 0 &&
                                  c->block_of[x.b] == 0;
                    bool in_block = inBlock(e0, 0);
                    if (in_block ? ek != e0 + de : inBlock(ek, block))
                        return false;
                    if (!in_block && inside)
                        return false;
                    if (!inside && inCell(x))
                        return false;
                    if (!same(x.a, y.a) || !same(x.b, y.b) ||
                        x.link != y.link)
                        return false;
                }
            }
        }
        // Pairs of neighbouring blocks. A path from block k to block
        // k+1 leaves block k's cell through its gateway and enters
        // block k+1's through its gateway, so it is the way to the
        // first gateway, a path between the gateways and the way on.
        // When the two gateways' ways out end, position by position
        // in BFS order, at the same far ends (nodes of neither block),
        // a BFS from the first gateway leaves over its first up way
        // out and enters the second gateway over the way out at the
        // same position: its far end lists the second gateway's ways
        // out in that gateway's own order.
        auto far = [&g](int e, NodeId n) {
            return g.edges[e].a == n ? g.edges[e].b : g.edges[e].a;
        };
        for (auto [other, e] : ix.adjOf(gate)) {
            if (!inCell(g.edges[e]))
                c->gate_edges.push_back(e);
        }
        c->pairs.assign(blocks.size(), 0);
        bool recorded = true;
        for (int e : c->gate_edges)
            recorded = recorded && inBlock(e, 0);
        for (std::size_t k = 0; recorded && k + 1 < blocks.size(); ++k) {
            const NodeId dn = c->node_offset[k];
            const int de = c->edge_offset[k];
            if (c->node_offset[k + 1] != dn + c->node_offset[1] ||
                c->edge_offset[k + 1] != de + c->edge_offset[1])
                continue;
            const NodeId gk = gate + dn;
            const NodeId next = gk + c->node_offset[1];
            const int de_next = c->edge_offset[k + 1];
            bool pair = true;
            for (int e : c->gate_edges)
                pair = pair && far(e + de, gk) == far(e + de_next, next);
            c->pairs[k] = pair;
        }
        if (level > 0)
            return true;
        // The first host's routes to and from its gateway, which
        // stay inside the host.
        for (bool out : {true, false}) {
            for (NodeId n = c->first_node; n < c->first_node + c->nodes;
                 ++n) {
                std::optional<Path> p =
                    out ? bfs(ix, n, gate, true) : bfs(ix, gate, n, true);
                if (!p)
                    return false;
                ix.gate_routes.push_back(std::move(*p));
            }
        }
        // The first host's host-CPU table. A path out of the host
        // leaves through the gateway, so a CPU in the host no farther
        // than the gateway is nearer than any outside, in every copy.
        ix.host_cpu.assign(c->nodes, -1);
        for (int i = 0; i < c->nodes; ++i) {
            NodeId n = c->first_node + i;
            if (g.nodes[n].kind != NodeKind::Gpu)
                continue;
            std::optional<NodeId> cpu = computeHostCpu(ix, n, true);
            if (!cpu || c->block_of[*cpu] != 0 ||
                lastSearchDepth(gate) < lastSearchDepth(*cpu))
                return false;
            ix.host_cpu[i] = *cpu;
        }
        return true;
    };
    if (copies())
        return c;
    if (level == 0) {
        ix.gate_routes.clear();
        ix.host_cpu.clear();
    }
    return nullptr;
}

const Topology::BlockCopies *
Topology::blockCopies(int level) const
{
    if (level < 0 || level >= kGatewayLevels)
        sim::fatal("blockCopies: no level %d", level);
    return graph_ ? index().copies[level].get() : nullptr;
}

bool
Topology::hostLinksUp(const BlockCopies &copies, int k) const
{
    if (!anyLinkDown())
        return true;
    int first = copies.first_edge + copies.edge_offset[k];
    for (int e = first; e < first + copies.edges; ++e) {
        if (link_state_[e].down)
            return false;
    }
    return true;
}

bool
Topology::blocksMatch(int level, int j, int k, bool ways_out) const
{
    const BlockCopies *copies = blockCopies(level);
    const int blocks =
        copies ? static_cast<int>(copies->node_offset.size()) : 0;
    if (j < 0 || j >= blocks || k < 0 || k >= blocks)
        sim::fatal("blocksMatch: no level %d blocks %d and %d", level, j, k);
    const int dj = copies->edge_offset[j];
    const int dk = copies->edge_offset[k];
    auto same = [&](const std::vector<int> &edges) {
        for (int e : edges) {
            if (!(link_state_[e + dj] == link_state_[e + dk]))
                return false;
        }
        return true;
    };
    return same(copies->cell_edges) && (!ways_out || same(copies->gate_edges));
}

std::shared_ptr<const Path>
Topology::composeRoute(Cache &c, NodeId from, NodeId to) const
{
    const GraphIndex &ix = index();
    for (int level = 0; level < kGatewayLevels && from != to; ++level) {
        NodeId a = ix.gateway[from][level];
        NodeId b = ix.gateway[to][level];
        // Same cell, an ungated cell, or the gateways themselves,
        // which only a coarser level (or the search) joins.
        if (a < 0 || b < 0 || a == b || (a == from && b == to))
            continue;
        // Every path leaves through a and enters through b, so a
        // missing piece leaves 'to' unreachable. The cache and the
        // graph keep the pieces alive.
        const NodeId ends[] = {from, a, b, to};
        struct Piece {
            const Path *path;
            NodeId dn = 0; ///< shift of a first-host piece
            int de = 0;
        } pieces[3];
        int hops = 0;
        const BlockCopies *copies =
            level == 0 ? ix.copies[0].get() : nullptr;
        for (int i = 0; i < 3; ++i) {
            // A way out of a host, or into one, is the first host's.
            const NodeId inner = i == 0 ? from : to;
            const int k = copies && i != 1 ? copies->block_of[inner] : -1;
            if (k >= 0 && hostLinksUp(*copies, k)) {
                const NodeId dn = copies->node_offset[k];
                const int local = inner - dn - copies->first_node +
                                  (i == 0 ? 0 : copies->nodes);
                pieces[i] = {&ix.gate_routes[local], dn,
                             copies->edge_offset[k]};
            } else {
                const std::shared_ptr<const Path> &piece =
                    routeLocked(c, ends[i], ends[i + 1]);
                if (!piece)
                    return nullptr;
                pieces[i] = {piece.get()};
            }
            hops += pieces[i].path->hops();
        }
        auto joined = std::make_shared<Path>();
        joined->nodes.reserve(hops + 1);
        joined->edges.reserve(hops);
        joined->nodes.push_back(from);
        for (const Piece &piece : pieces) {
            const Path &p = *piece.path;
            for (auto n = p.nodes.begin() + 1; n != p.nodes.end(); ++n)
                joined->nodes.push_back(*n + piece.dn);
            for (int e : p.edges)
                joined->edges.push_back(e + piece.de);
        }
        return joined;
    }
    std::optional<Path> p = bfs(ix, from, to);
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
    const GraphIndex &ix = index();
    std::vector<int> label(g.nodes.size(), -1);
    std::vector<NodeId> frontier;
    for (NodeId root = 0; root < nodeCount(); ++root) {
        if (label[root] >= 0)
            continue;
        label[root] = root;
        frontier.assign(1, root);
        for (std::size_t head = 0; head < frontier.size(); ++head) {
            NodeId n = frontier[head];
            for (int e : ix.edgesOf(n)) {
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
Topology::computeHostCpu(const GraphIndex &ix, NodeId gpu,
                         bool all_links) const
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
    const bool any_down = !all_links && anyLinkDown();
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
        for (auto [other, e] : ix.adjOf(n)) {
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
    if (kind(gpu) != NodeKind::Gpu)
        sim::fatal("hostCpu: node %d is not a GPU", gpu);
    const GraphIndex &ix = index();
    if (const BlockCopies *copies = ix.copies[0].get()) {
        int k = copies->block_of[gpu];
        if (k >= 0 && hostLinksUp(*copies, k)) {
            NodeId shift = copies->node_offset[k];
            return ix.host_cpu[gpu - shift - copies->first_node] + shift;
        }
    }
    return computeHostCpu(ix, gpu);
}

NodeId
Topology::cellOf(NodeId n, FabricTier tier) const
{
    checkNode(n);
    const int level = static_cast<int>(tier);
    if (level >= kGatewayLevels)
        sim::fatal("cellOf: the %s tier has no cells",
                   toString(tier).c_str());
    return index().cell[n][level];
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
    // A graph that passed once passes every check that reads only the
    // graph, and connectivity while no link is down; bandwidth scales
    // are positive, as setLinkBandwidthScale() accepts no other.
    if (graph_->validated.load(std::memory_order_relaxed)) {
        if (anyLinkDown())
            checkConnected();
        return;
    }
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
    // One scan of the edge list marks each NIC with an edge to a ToR
    // switch and each ToR with an edge to a spine switch.
    auto uplink = [&nodes](NodeId n, NodeId other) {
        const NodeKind up = nodes[other].kind;
        return (nodes[n].kind == NodeKind::Nic &&
                up == NodeKind::TorSwitch) ||
               (nodes[n].kind == NodeKind::TorSwitch &&
                up == NodeKind::SpineSwitch);
    };
    std::vector<char> uplinked(nodes.size(), 0);
    for (const Edge &edge : edges) {
        uplinked[edge.a] |= uplink(edge.a, edge.b);
        uplinked[edge.b] |= uplink(edge.b, edge.a);
    }
    for (NodeId n = 0; n < nodeCount(); ++n) {
        if (nodes[n].kind == NodeKind::Nic && !uplinked[n])
            sim::fatal("Topology: NIC '%s' has zero uplinks; did "
                       "you mean to connect it to a ToR switch?",
                       nodes[n].name.c_str());
        if (nodes[n].kind == NodeKind::TorSwitch && tor_count >= 2 &&
            !uplinked[n])
            sim::fatal("Topology: rack of ToR switch '%s' is "
                       "disconnected from the pod (%d racks, no "
                       "spine uplink); did you mean to connect it "
                       "to a spine switch?",
                       nodes[n].name.c_str(), tor_count);
    }

    checkConnected();
    graph_->validated.store(true, std::memory_order_relaxed);
}

void
Topology::checkConnected() const
{
    // Connectivity over *up* edges: one dead link must not strand a
    // node, or routing (and therefore every transfer) silently fails.
    std::vector<bool> seen = reachableOverUpLinks();
    int reached = static_cast<int>(std::count(seen.begin(), seen.end(),
                                              true));
    for (NodeId n = 0; n < nodeCount(); ++n) {
        if (!seen[n])
            sim::fatal("Topology: node '%s' unreachable over up "
                       "links (%d of %d nodes connected)",
                       graph_->nodes[n].name.c_str(), reached,
                       nodeCount());
    }
}

std::vector<bool>
Topology::reachableOverUpLinks() const
{
    // Node 0 leads its set of a union-find over the up edges.
    std::vector<NodeId> parent(nodeCount());
    std::iota(parent.begin(), parent.end(), 0);
    for (int e = 0; e < edgeCount(); ++e) {
        if (!link_state_[e].down)
            unite(parent, graph_->edges[e].a, graph_->edges[e].b);
    }
    std::vector<bool> reached(nodeCount());
    for (NodeId n = 0; n < nodeCount(); ++n)
        reached[n] = findRoot(parent, n) == 0;
    return reached;
}

} // namespace mlps::net
