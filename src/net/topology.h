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
 * The graph (node kinds, names, incident lists, edge endpoints and
 * link specs) is immutable once shared: copies of a Topology share
 * it and own only their link state and route cache, so copying a
 * pod-scale machine costs its link state, not its structure. The
 * builders copy a shared graph before changing it.
 *
 * The graph also indexes, on first use, each node's gateway: the one
 * node of its host (or rack) through which every path leaves it, as
 * a NIC is for a pod host and a ToR switch for a rack. route() joins
 * cached routes through the gateways instead of searching the pod.
 */

#ifndef MLPSIM_NET_TOPOLOGY_H
#define MLPSIM_NET_TOPOLOGY_H

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

    /** Edge ids incident to a node, in connect order. */
    const std::vector<int> &incidentEdges(NodeId n) const;

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

    /** The CPU whose root complex hosts this GPU (min-hop CPU). */
    std::optional<NodeId> hostCpu(NodeId gpu) const;

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
     * Nodes reachable from node 0 over up links, by node id (a
     * breadth-first walk; empty for an empty topology). A false entry
     * is a node a dead link stranded.
     */
    std::vector<bool> reachableOverUpLinks() const;

    /**
     * Check structural and dynamic invariants: every edge endpoint
     * names a real node, every link has positive bandwidth/efficiency,
     * the graph is connected over *up* edges, and the hierarchy is
     * well-formed (no GPU wired directly to a spine, no NIC without an
     * uplink, no ToR stranded from the spine layer in a multi-rack
     * pod). Calls sim::fatal (config error, exit code 3) on violation.
     */
    void validate() const;

  private:
    /**
     * Levels of the gateway index: a level-L cell is a component over
     * the edges of tier L or below (host: intra-node edges; rack:
     * intra-node and intra-rack edges).
     */
    static constexpr int kGatewayLevels = kNumFabricTiers - 1;

    struct Node {
        NodeKind kind;
        /** Number of NVLink entries leading adj. */
        int nvlinks = 0;
        std::string name;
        /** Incident edge ids, in connect order. */
        std::vector<int> edges;
        /** (neighbour, edge) in the order bfs visits them: NVLink
         *  edges first, then the rest, each in connect order. */
        std::vector<std::pair<NodeId, int>> adj;
        /** Per level, the gateway of this node's cell: the cell's only
         *  node with an edge of a higher tier, or -1 when it has none
         *  or several. Counts every edge, down or up. Written once per
         *  graph by indexedGraph(). */
        mutable NodeId gateway[kGatewayLevels] = {-1, -1};
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

    /** The structure copies share; never changed while shared, but
     *  for the nodes' gateways, which the first route lookup writes. */
    struct Graph {
        std::vector<Node> nodes;
        std::vector<Edge> edges;
        sim::DigestMemo<DigestMemoEntry> memo;
        /** Set (release) once the nodes' gateways are written. */
        mutable std::atomic<bool> gateways_indexed{false};
        /** Held while the gateways are written, and while a builder
         *  copies the nodes. */
        mutable std::mutex gateways_mu;
    };

    NodeId addNode(NodeKind kind, const std::string &name);
    void checkNode(NodeId n) const;
    void checkEdge(int edge) const;

    /** The graph to build into: this copy's own (copied first when it
     *  may be shared), with its memo dropped and this copy's cache
     *  cold. */
    Graph &mutableGraph();

    /** Minimum-hop BFS from 'from' to 'to' over up edges, one pass
     *  over each node's NVLink-first adjacency. */
    std::optional<Path> bfs(NodeId from, NodeId to) const;

    /** The graph, with its nodes' gateways written. */
    const Graph &indexedGraph() const;

    struct Cache;

    /** Caller holds cache_.mu; the memoized route, computed (and
     *  stored) on a miss. Sets *hit, if given, to whether it was
     *  stored already. */
    const std::shared_ptr<const Path> &
    routeLocked(Cache &c, NodeId from, NodeId to,
                bool *hit = nullptr) const;

    /** Caller holds cache_.mu; the route joined through the gateways
     *  of the first level where 'from' and 'to' sit in different
     *  gated cells, else bfs(). */
    std::shared_ptr<const Path> composeRoute(Cache &c, NodeId from,
                                             NodeId to) const;

    std::optional<NodeId> computeHostCpu(NodeId gpu) const;

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
     * can share one topology; route and host-CPU hit/miss totals feed
     * the net.topology.route_cache.* gauges in the obs registry.
     */
    struct Cache {
        std::uint64_t down_epoch = 0;
        bool primed = false;
        /** Null when disconnected. Flows share these paths. */
        std::unordered_map<std::uint64_t, std::shared_ptr<const Path>>
            routes;
        std::unordered_map<NodeId, std::optional<NodeId>> host_cpu;
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
