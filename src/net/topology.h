/**
 * @file
 * Interconnect topology graph.
 *
 * Nodes are CPU sockets, GPUs, and PCIe switches; edges carry LinkSpecs.
 * The graph answers the routing questions the training model needs:
 * what path does a host-to-device copy take, can two GPUs do GPUDirect
 * peer-to-peer (no CPU root complex on the path), and what fabric is
 * available for a collective over a GPU set.
 *
 * Edges additionally carry *dynamic* state — up/down and a bandwidth
 * multiplier — so a topology can degrade (NVLink lane drops, PCIe
 * downtraining, hard link failures) without rebuilding the graph.
 * Routing, P2P legality, and fabric selection all re-answer against
 * the current state: a down link is never routed over, and degraded
 * bandwidth flows into every path/flow computation. Each state
 * mutation bumps an epoch counter so cached per-topology derivations
 * know when to recompute. Routes, host CPUs and fabric labels read
 * only which links are down, so a bandwidth change keeps them.
 *
 * The graph (node kinds and names, edge endpoints and link specs) is
 * immutable once shared: copies of a Topology share it and own only
 * their link state and route cache, so copying a pod-scale machine
 * costs its link state, not its structure. The builders copy a shared
 * graph before changing it, and append nodes and edges only: building
 * and validating a graph reads nothing but its node and edge lists.
 *
 * What the graph's readers derive from it lives in one index, built
 * on first read and shared by the graph's copies: each node's
 * incident edges and search order, and each node's gateway, the one
 * node of its host (or rack) through which every path leaves it, as
 * a NIC is for a pod host and a ToR switch for a rack. route() joins
 * cached routes through the gateways instead of searching the pod.
 *
 * A pod builder records the blocks it stamps (recordBlock()): each
 * host at level 0, and each rack at level 1 (its ToR, the ToR's spine
 * uplinks, then its hosts). With the gateways, the graph checks once
 * per level whether every block is the first block shifted by a node
 * and an edge offset, with equal link specs, and a cell of its own
 * behind one gateway (blockCopies()): the NIC for a host, the ToR for
 * a rack. A path between two nodes of such a block never leaves its
 * cell, so block k's routes, and the flows on them, are its twin's
 * shifted, the twin being the lowest block whose cell links are in
 * block k's state (blocksMatch()): the flow simulator, deciding when
 * a round runs, prices such flows without routing them. Neighbouring
 * blocks whose ways out end at the same far ends, as two hosts under
 * one ToR or two racks under the same spines do, form pairs
 * (BlockCopies::pairs): a path from block k to block k+1 is then the
 * one between the blocks of the lowest pair in the same link state,
 * its edges shifted, and the simulator prices such flows unrouted as
 * well. At the host level, route() also joins a host's way to its
 * gateway from the first host's, and hostCpu() answers from one table
 * of the first host's host CPUs.
 */

#ifndef MLPSIM_NET_TOPOLOGY_H
#define MLPSIM_NET_TOPOLOGY_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/link.h"
#include "sim/shared_memo.h"

namespace mlps::net {

/** Node index within a Topology. */
using NodeId = int;

/** Role of a topology node. */
enum class NodeKind {
    Cpu,
    Gpu,
    PcieSwitch,
    Nic,         ///< host network interface (bridges node to rack tier)
    TorSwitch,   ///< top-of-rack Ethernet switch
    SpineSwitch, ///< pod spine Ethernet switch
};

/** Human-readable name of a node kind. */
std::string toString(NodeKind kind);

/** Fabric selected for a collective over a set of GPUs. */
enum class CollectiveFabric {
    NvLink,     ///< all ring hops run over NVLink
    PcieP2p,    ///< GPUDirect P2P over a shared PCIe complex
    HostStaged, ///< bounced through CPU DRAM (and possibly UPI)
};

/** Human-readable name of a collective fabric. */
std::string toString(CollectiveFabric fabric);

/** A path through the graph: node sequence plus edge indices. */
struct Path {
    std::vector<NodeId> nodes;
    std::vector<int> edges; ///< edge ids, parallel to hops

    int hops() const { return static_cast<int>(edges.size()); }
};

/**
 * Undirected multigraph of the machine's interconnect.
 */
class Topology
{
  public:
    /** 128-bit state of a hash pass over a topology. */
    using Digest = sim::Digest;

    /** Node-id lists a hash pass mixes after the topology (a
     *  machine's CPU, GPU and switch nodes). */
    using NodeLists = std::span<const std::vector<NodeId> *const>;

    /**
     * A hash pass: the state after mixing a topology (graph and link
     * state) and then the node lists into the incoming state. Must be
     * a pure function of its arguments.
     */
    using DigestPass = Digest (*)(const Digest &in, const Topology &topo,
                                  NodeLists lists);

    /** Add a CPU socket node. @return its id. */
    NodeId addCpu(const std::string &name);

    /** Add a GPU node. @return its id. */
    NodeId addGpu(const std::string &name);

    /** Add a PCIe switch node. @return its id. */
    NodeId addSwitch(const std::string &name);

    /** Add a host NIC node. @return its id. */
    NodeId addNic(const std::string &name);

    /** Add a top-of-rack switch node. @return its id. */
    NodeId addTorSwitch(const std::string &name);

    /** Add a spine switch node. @return its id. */
    NodeId addSpineSwitch(const std::string &name);

    /** Connect two nodes with a link. @return the edge id. */
    int connect(NodeId a, NodeId b, const LinkSpec &link);

    /**
     * Levels of the gateway index and of block copies: a level-L cell
     * is a component over the edges of tier L or below (level 0, a
     * host: intra-node edges; level 1, a rack: intra-node and
     * intra-rack edges).
     */
    static constexpr int kGatewayLevels = kNumFabricTiers - 1;

    /**
     * Record nodes [first_node, nodeCount()) and edges [first_edge,
     * edgeCount()) as one block of 'level' (a pod host at level 0, a
     * rack at level 1), meant as a copy of the first block recorded at
     * that level. blockCopies() checks that it is.
     */
    void recordBlock(int level, NodeId first_node, int first_edge);

    /**
     * The recorded blocks of one level, when each is an exact copy of
     * the first: block k's nodes and edges are the first block's
     * shifted by k's offsets (kinds, endpoints, link specs and
     * incident-edge order), and every node of block k sits in one
     * gated cell of the level that is exactly the block's nodes. An
     * edge of the block may leave it over a higher tier (a host's NIC
     * uplink, a ToR's spine uplinks); its far end is not shifted.
     */
    struct BlockCopies {
        int nodes = 0; ///< nodes per block
        int edges = 0; ///< edges per block
        /** Per block: its first node and first edge, less the first
         *  block's. */
        std::vector<NodeId> node_offset;
        std::vector<int> edge_offset;
        /** Per node: its block, or -1 outside every block. */
        std::vector<int> block_of;
        NodeId first_node = 0; ///< the first block's first node
        int first_edge = 0;    ///< the first block's first edge
        /** The first block's edges inside its cell, ascending. */
        std::vector<int> cell_edges;
        /** The first block's ways out of its cell: its gateway's edges
         *  of a higher tier, in the gateway's BFS order. */
        std::vector<int> gate_edges;
        /**
         * Per block k, 1 when blocks k and k+1 are blocks 0 and 1
         * shifted by k's offsets, every way out of the first block's
         * cell lies in its record, and block k's ways out end,
         * position by position, at the far ends of block k+1's. Then a
         * path from block k to block k+1 is the one from block j to
         * block j+1 of any such pair j, its edges shifted, wherever
         * blocks j and k, and blocks j+1 and k+1, are in one link
         * state, cells and ways out (blocksMatch()); the flow
         * simulator takes the lowest such j as the pair's twin when
         * the round runs. 0 for the last block.
         */
        std::vector<char> pairs;
    };

    /**
     * The graph's block copies at 'level', checked on first use and
     * shared by its copies; null when no block of the level was
     * recorded or one is not an exact copy of the first.
     */
    const BlockCopies *blockCopies(int level) const;

    /**
     * True when the edges inside the cells of blocks j and k are in one
     * link state (down bits and bandwidth scales), and with 'ways_out'
     * also the ways out of their cells (BlockCopies::gate_edges,
     * shifted), so that a path inside block k prices as block j's
     * shifted while the link state holds. Requires blockCopies(level).
     */
    bool blocksMatch(int level, int j, int k, bool ways_out = false) const;

    int nodeCount() const {
        return graph_ ? static_cast<int>(graph_->nodes.size()) : 0;
    }
    int edgeCount() const {
        return graph_ ? static_cast<int>(graph_->edges.size()) : 0;
    }

    NodeKind kind(NodeId n) const;
    const std::string &name(NodeId n) const;
    const LinkSpec &link(int edge) const;

    /** Endpoints of an edge. */
    std::pair<NodeId, NodeId> endpoints(int edge) const;

    /** Edge ids incident to a node, in connect order (ascending). The
     *  span lives in the graph's index: do not hold it across a
     *  builder call. */
    std::span<const int> incidentEdges(NodeId n) const;

    /** All node ids of the given kind, in insertion order. */
    std::vector<NodeId> nodesOfKind(NodeKind kind) const;

    /** All GPU node ids, in insertion order. */
    std::vector<NodeId> gpus() const { return nodesOfKind(NodeKind::Gpu); }

    /**
     * Minimum-hop path between two nodes: the path a BFS from 'from'
     * finds, visiting NVLink edges first at every node (so GPU pairs
     * use the fast fabric when both exist) and never a down link.
     * When the two nodes sit in different hosts (or racks) whose
     * gateways are 'a' and 'b', the path is route(from, a) ++
     * route(a, b) ++ route(b, to), each piece memoized: a gateway is
     * a cut vertex, so the BFS reaches everything beyond it through
     * it, in the order a BFS started at it would. Routes are memoized
     * until a link goes down or comes back up; one call counts as one
     * hit or one miss of net.topology.route_cache.
     * @return nullopt when disconnected.
     */
    std::optional<Path> route(NodeId from, NodeId to) const;

    /**
     * route() as the memoized path itself, shared rather than copied
     * (null when disconnected). It stays valid after the topology
     * changes or goes away.
     */
    std::shared_ptr<const Path> sharedRoute(NodeId from, NodeId to) const;

    /** Bottleneck effective bandwidth along a path, bytes/s. */
    double pathBandwidth(const Path &p) const;

    /** Sum of link latencies along a path, seconds. */
    double pathLatency(const Path &p) const;

    /**
     * True when two GPUs can perform GPUDirect P2P: some path between
     * them traverses neither a CPU node nor a UPI link (i.e. they sit
     * behind one root complex or share NVLink).
     */
    bool canPeerToPeer(NodeId gpu_a, NodeId gpu_b) const;

    /** True when some path of up NVLink edges joins the two nodes. */
    bool nvlinkConnected(NodeId gpu_a, NodeId gpu_b) const;

    /**
     * Fabric available for a collective spanning the GPU set: NvLink if
     * the set is connected via NVLink edges only, PcieP2p if every pair
     * can P2P, else HostStaged. Every member must be a GPU.
     */
    CollectiveFabric collectiveFabric(const std::vector<NodeId> &gpus) const;

    /**
     * The CPU whose root complex hosts this GPU: the min-hop CPU over
     * up links, the lowest id among equals. A GPU of a host copy with
     * no link down answers from the graph's table of the first host's
     * healthy answers, shifted to its host; any other GPU searches.
     */
    std::optional<NodeId> hostCpu(NodeId gpu) const;

    /**
     * Label of the cell of node 'n' over links of 'tier' and below,
     * down or up: its host cell for IntraNode, its rack cell for
     * IntraRack. The label is the cell's lowest node. Read from the
     * graph's index, which its copies share.
     */
    NodeId cellOf(NodeId n, FabricTier tier) const;

    /** Render an adjacency summary (for Table III dumps). */
    std::string describe() const;

    // -- Dynamic link state ------------------------------------------------

    /** Take a link down (no route may use it) or bring it back up. */
    void setLinkDown(int edge, bool down);

    /**
     * Scale a link's bandwidth (1.0 = healthy). Models NVLink lane
     * degradation and PCIe downtraining. Must be > 0; a dead link is
     * expressed with setLinkDown, not a zero scale.
     */
    void setLinkBandwidthScale(int edge, double scale);

    bool linkDown(int edge) const;
    double linkBandwidthScale(int edge) const;

    /**
     * Effective bandwidth of an edge under its current state, bytes/s.
     * Zero when the link is down.
     */
    double effectiveLinkBytesPerSec(int edge) const;

    /** Restore every link to healthy (up, scale 1.0). */
    void resetLinkState();

    /** True when any link is down or bandwidth-scaled below 1.0. */
    bool degraded() const;

    /** True when at least one link is down (routing has changed).
     *  O(1): the topology counts its down links. */
    bool anyLinkDown() const { return down_links_.n > 0; }

    /**
     * Monotone counter bumped on every link-state change. Consumers
     * caching per-topology derivations (ring orders, fabric tiers)
     * compare epochs to detect staleness.
     */
    std::uint64_t epoch() const { return epoch_; }

    /**
     * pass(in, *this, lists), memoized on the graph this copy shares.
     * The key is the pass, 'in', this copy's link state (the edges
     * that are down or scaled, with their exact values) and the lists'
     * contents, compared by value, so a hit returns the state the pass
     * would compute. Each graph keeps a few entries.
     */
    Digest memoizedDigest(DigestPass pass, const Digest &in,
                          NodeLists lists) const;

    /**
     * Nodes reachable from node 0 over up links, by node id (node 0's
     * set of a union-find over the up edges; empty for an empty
     * topology). A false entry is a node a dead link stranded.
     */
    std::vector<bool> reachableOverUpLinks() const;

    /**
     * Check structural and dynamic invariants: every edge endpoint
     * names a real node, every link has positive bandwidth/efficiency,
     * the graph is connected over *up* edges, and the hierarchy is
     * well-formed (no GPU wired directly to a spine, no NIC without an
     * uplink, no ToR stranded from the spine layer in a multi-rack
     * pod). Calls sim::fatal (config error, exit code 3) on violation.
     * A graph that passed once is recorded as valid, for its copies
     * too: then only a copy with a link down checks again, and only
     * its connectivity.
     */
    void validate() const;

  private:
    /** A node; its edges live in the edge list and the index. */
    struct Node {
        NodeKind kind;
        std::string name;
    };

    struct Edge {
        NodeId a;
        NodeId b;
        LinkSpec link;
    };

    /** One edge's dynamic state; the default is healthy. */
    struct LinkState {
        bool down = false;
        double bandwidth_scale = 1.0;

        bool healthy() const { return !down && bandwidth_scale == 1.0; }
        bool operator==(const LinkState &) const = default;
    };

    struct DigestMemoEntry {
        DigestPass pass;
        Digest in;
        /** (edge, state) of every unhealthy edge, ascending edge id. */
        std::vector<std::pair<int, LinkState>> unhealthy;
        std::vector<std::vector<NodeId>> lists;
        Digest out;
    };

    /** One recordBlock() call. */
    struct BlockRecord {
        NodeId first_node;
        int nodes;
        int first_edge;
        int edges;
    };

    /** What the graph's readers derive from it, built once per graph
     *  and immutable after. */
    struct GraphIndex {
        /** Node n's incident edges are incident[first[n],
         *  first[n + 1]), ascending; at the same positions, adj lists
         *  (neighbour, edge) in the order bfs visits them: NVLink
         *  edges first, then the rest, each in connect order. */
        std::vector<int> first;
        std::vector<int> incident;
        std::vector<std::pair<NodeId, int>> adj;
        /** Per node and level, the gateway of the node's cell: the
         *  cell's only node with an edge of a higher tier, or -1 when
         *  it has none or several. Counts every edge, down or up. */
        std::vector<std::array<NodeId, kGatewayLevels>> gateway;
        /** Per node and level, the lowest node of the node's cell. */
        std::vector<std::array<NodeId, kGatewayLevels>> cell;
        /** Per level, the blocks, when they are exact copies of the
         *  first. */
        std::array<std::unique_ptr<const BlockCopies>, kGatewayLevels>
            copies;
        /** With host copies: the host CPU of each node of the first
         *  host in a healthy graph, -1 for a node that is no GPU. */
        std::vector<NodeId> host_cpu;
        /** With host copies: the route from each node of the first
         *  host to its gateway, then from the gateway to each node, in
         *  a healthy graph. */
        std::vector<Path> gate_routes;

        std::span<const int> edgesOf(NodeId n) const {
            return {incident.data() + first[n],
                    incident.data() + first[n + 1]};
        }
        std::span<const std::pair<NodeId, int>> adjOf(NodeId n) const {
            return {adj.data() + first[n], adj.data() + first[n + 1]};
        }
    };

    /** The structure copies share; never changed while shared, but
     *  for the index its first reader builds and the validated mark. */
    struct Graph {
        std::vector<Node> nodes;
        std::vector<Edge> edges;
        /** Per level, the recorded blocks. */
        std::array<std::vector<BlockRecord>, kGatewayLevels> blocks;
        sim::DigestMemo<DigestMemoEntry> memo;
        /** Set once validate() passed on a copy of this graph: every
         *  check that reads only the graph holds, and so does
         *  connectivity over every link. */
        mutable std::atomic<bool> validated{false};
        /** The graph's index, owned here; null until a reader builds
         *  it under index_mu and publishes it (release). */
        mutable std::atomic<const GraphIndex *> index{nullptr};
        mutable std::mutex index_mu;

        ~Graph() { delete index.load(std::memory_order_relaxed); }
    };

    NodeId addNode(NodeKind kind, const std::string &name);
    void checkNode(NodeId n) const;
    void checkEdge(int edge) const;

    /** The graph to build into: this copy's own (copied first when it
     *  may be shared), with its memo dropped and this copy's cache
     *  cold. */
    Graph &mutableGraph();

    /** Minimum-hop BFS from 'from' to 'to' over up edges (every
     *  edge when 'all_links'), one pass over each node's NVLink-first
     *  adjacency. */
    std::optional<Path> bfs(const GraphIndex &ix, NodeId from, NodeId to,
                            bool all_links = false) const;

    /** The graph's index, built on the first call. */
    const GraphIndex &index() const;

    /** Caller builds ix, this copy's graph's index, with its adjacency
     *  and gateways written; the blocks recorded at 'level' if they
     *  are exact copies of the first (else null), and at level 0
     *  ix.host_cpu and ix.gate_routes for them. */
    std::unique_ptr<const BlockCopies> checkBlockCopies(GraphIndex &ix,
                                                        int level) const;

    /** sim::fatal unless every node is reachable over up links. */
    void checkConnected() const;

    /** True when no edge of host k (of 'copies') is down. */
    bool hostLinksUp(const BlockCopies &copies, int k) const;

    struct Cache;

    /** Caller holds cache_.mu; the memoized route, computed (and
     *  stored) on a miss. Sets *hit, if given, to whether it was
     *  stored already. */
    const std::shared_ptr<const Path> &
    routeLocked(Cache &c, NodeId from, NodeId to,
                bool *hit = nullptr) const;

    /** Caller holds cache_.mu; the route joined through the gateways
     *  of the first level where 'from' and 'to' sit in different
     *  gated cells, else bfs(). At the host level, the way out of
     *  (or into) a host copy with no link down is the first host's,
     *  shifted. */
    std::shared_ptr<const Path> composeRoute(Cache &c, NodeId from,
                                             NodeId to) const;

    /** One BFS from 'gpu' over up links (every link when
     *  'all_links'): the nearest CPU, the lowest id among equals. */
    std::optional<NodeId> computeHostCpu(const GraphIndex &ix, NodeId gpu,
                                         bool all_links = false) const;

    /**
     * Component label of every node over the up edges that satisfy
     * 'usable'. Two nodes share a label exactly when a BFS restricted
     * to those edges reaches one from the other.
     */
    template <typename EdgePred>
    std::vector<int> componentLabels(EdgePred usable) const;

    /**
     * Memoized derivations of this copy, invalidated whenever a link
     * goes down or comes back up (and dropped by the builders); none
     * reads bandwidth. Guarded by a mutex so parallel report workers
     * can share one topology; route hit/miss totals feed the
     * net.topology.route_cache.* gauges in the obs registry.
     */
    struct Cache {
        std::uint64_t down_epoch = 0;
        bool primed = false;
        /** Null when disconnected. Flows share these paths. */
        std::unordered_map<std::uint64_t, std::shared_ptr<const Path>>
            routes;
        /** Components over up NVLink edges and over up P2P-legal
         *  edges; empty until a fabric check asks. */
        std::vector<int> nvlink_label;
        std::vector<int> p2p_label;
    };

    /**
     * The cache and its mutex, which a copy does not take over: a copy
     * starts cold, and a move leaves both sides cold, so a moved-from
     * Topology answers from nothing stale.
     */
    struct CacheHolder {
        CacheHolder() = default;
        CacheHolder(const CacheHolder &) {}
        CacheHolder(CacheHolder &&other) noexcept { other.clear(); }
        CacheHolder &operator=(const CacheHolder &) {
            clear();
            return *this;
        }
        CacheHolder &operator=(CacheHolder &&other) noexcept {
            clear();
            other.clear();
            return *this;
        }
        void clear();

        mutable std::mutex mu;
        mutable Cache cache;
    };

    /** Caller holds cache_.mu; drops stale results when down_epoch_
     *  has moved. */
    Cache &freshCacheLocked() const;

    /** Caller holds cache_.mu; the cache with both fabric labelings
     *  computed. */
    const Cache &labelledCacheLocked() const;

    /** Null only when empty (default-constructed or moved from). */
    std::shared_ptr<const Graph> graph_;
    /** Whether graph_ may have another owner; the builders copy the
     *  graph first when it may. */
    sim::ShareMark graph_mark_;
    /** Parallel to the graph's edges. */
    std::vector<LinkState> link_state_;
    /** Links of link_state_ that are down. A moved-from count reads
     *  zero, like the moved-from link state. */
    struct DownCount {
        int n = 0;
        DownCount() = default;
        DownCount(const DownCount &) = default;
        DownCount &operator=(const DownCount &) = default;
        DownCount(DownCount &&other) noexcept
            : n(std::exchange(other.n, 0)) {}
        DownCount &operator=(DownCount &&other) noexcept {
            n = std::exchange(other.n, 0);
            return *this;
        }
    } down_links_;
    std::uint64_t epoch_ = 0;
    /** Bumped with epoch_ when a link's down bit changes. */
    std::uint64_t down_epoch_ = 0;
    CacheHolder cache_;
};

} // namespace mlps::net

#endif // MLPSIM_NET_TOPOLOGY_H
