/**
 * @file
 * Flow-level transfer simulation over a Topology.
 *
 * FlowSimulator models a set of concurrent byte streams, each following
 * a routed path, sharing link capacity max-min fairly. It advances an
 * internal clock from flow-completion event to flow-completion event,
 * re-solving the bandwidth allocation at each event — the standard
 * flow-level network simulation used when packet detail is unnecessary.
 * Each allocation is progressive filling: freeze the flows of the slot
 * (link direction) with the lowest share, the lowest slot among
 * equals, and repeat. One scan finds that share and every slot tied
 * at it; the tied slots then freeze in slot order without a new scan
 * while each provably is the slot a new scan would pick, so rates are
 * bit for bit those of one scan per frozen slot.
 *
 * The training model uses it for host-to-device input staging and for
 * the per-step flows of the ring all-reduce, where shared-bottleneck
 * contention (e.g. two staged flows crossing one UPI link) matters.
 *
 * Pods repeat the same traffic in every host and every rack. On a pod
 * whose hosts, or racks, are shifted copies of one another
 * (Topology::blockCopies(), level 0 a host, level 1 a rack with its
 * NICs and ToR), run() decides which flows are copies when the round
 * runs, from the link state of that time. A flow between two nodes of
 * block k is block k's. Block k's twin is the lowest block whose cell
 * links are in block k's link state (Topology::blocksMatch()). The
 * cell has one gateway, so a flow inside it never leaves it, and its
 * route is the twin's flow between the shifted endpoints, shifted.
 * run() keeps block k's flows as unrouted copies of its twin's when
 * they are the twin's flows in the same order, with the same bytes and
 * starts, each added after its twin, and no flow enters or leaves
 * either block. A flow inside a host lies inside its rack too; when
 * both are kept, it keeps its host twin.
 *
 * A flow from block k to block k+1 of a level, if no block kept it, is
 * a pair's: on a pod, rank i of host j to rank i of host j+1 in the 2D
 * ring's cross-node round. When blocks k and k+1 are blocks 0 and 1
 * shifted by one offset (BlockCopies::pairs), the pair's twin is the
 * lowest such pair whose two blocks are in the link state of blocks k
 * and k+1, cells and ways out. Its route is then the twin pair's flow's,
 * shifted: each end of it is a way inside a cell, and between the two
 * gateways a BFS takes the first far end both ways out reach. The
 * pair's flows are kept the same way, as copies of the twin pair's,
 * when no other flow crosses a directed slot (one direction of a link)
 * of either pair. The wrap pair, from the last block to the first, is
 * no pair and is routed.
 *
 * A copy's twin may itself be a copy (a rack's twin one of the first
 * rack's pair copies); its route is the routed root's, shifted. Every
 * other flow is routed when the round runs, over the links up then.
 * Fair sharing runs over the routed flows; the event loop advances
 * every flow, a kept copy at its twin's rate.
 *
 * That is exact: no other flow crosses a slot of a kept copy or of its
 * twin, and a copy's flows are its twin's with every slot shifted by
 * one offset, in the same relative slot order, over links of equal
 * capacity. Progressive filling freezes them at the same levels, event
 * by event, as it freezes the twins, so each copy moves its twin's
 * bytes at every event and ends with it, and leaving the copies out of
 * fair sharing changes no other flow's rate. Each event adds every
 * flow's bytes to its edges in flow-id order, as the reference
 * simulator does: a host's NIC uplink carries one pair up and another
 * down, at rates that may differ.
 */

#ifndef MLPSIM_NET_TRANSFER_H
#define MLPSIM_NET_TRANSFER_H

#include <memory>
#include <span>
#include <vector>

#include "net/topology.h"

namespace mlps::net {

/** Identifier of a flow within a FlowSimulator. */
using FlowId = int;

/** Final report for one completed flow. */
struct FlowReport {
    FlowId id = -1;
    double bytes = 0.0;
    double start_s = 0.0;
    double finish_s = 0.0;
    /** Average throughput, bytes/s. */
    double throughput() const {
        double d = finish_s - start_s;
        return d > 0.0 ? bytes / d : 0.0;
    }
};

/**
 * Max-min fair flow-level simulator.
 *
 * Usage: addFlow() any number of times, then run(). The simulator is
 * single-shot; construct a fresh one per episode.
 */
class FlowSimulator
{
  public:
    explicit FlowSimulator(const Topology &topo);

    /**
     * Add a flow of 'bytes' from node 'from' to node 'to', departing at
     * time 'start_s' (seconds). run() routes it over the links up when
     * it runs: the flow holds the topology's memoized path
     * (Topology::sharedRoute), which every flow on that route shares,
     * rather than a copy.
     * @return the flow id.
     */
    FlowId addFlow(NodeId from, NodeId to, double bytes,
                   double start_s = 0.0);

    /**
     * Run to completion of all flows.
     * @return the makespan in seconds (time the last flow finishes).
     */
    double run();

    /** Reports for all flows, indexed by FlowId. Valid after run(). */
    const std::vector<FlowReport> &reports() const { return reports_; }

    /** Bytes each edge carried, indexed by edge id. Valid after run(). */
    const std::vector<double> &edgeBytes() const { return edge_bytes_; }

    /** Bytes that traversed links, totalled per link kind and per
     *  fabric tier, each over the edges in id order. */
    struct LinkBytes {
        double kind[kNumLinkKinds] = {};
        double tier[kNumFabricTiers] = {};

        double onKind(LinkKind k) const { return kind[static_cast<int>(k)]; }
    };

    /** Every kind's and tier's total, in one pass. Valid after run(). */
    LinkBytes linkBytes() const;

  private:
    struct Flow {
        /** The topology's memoized route, shared, not copied; for a
         *  copy its root's, every edge shifted by 'shift'. Set by
         *  run(). */
        std::shared_ptr<const Path> path;
        NodeId from; ///< as added
        NodeId to;
        /** A copy's twin, whose rate it takes, else -1. */
        int twin = -1;
        /** A pair's flow: its pair, level + kGatewayLevels * its first
         *  block; else -1. */
        int pair = -1;
        /** A copy's routed root, the end of its chain of twins, and
         *  what it adds to the root's edge ids; 0 for a routed flow. */
        int root = -1;
        int shift = 0;
        /** A routed flow's slots: flow_slots_[slot_begin, slot_end). */
        int slot_begin = 0;
        int slot_end = 0;
        double bytes;
        double remaining;
        double start_s;
        double latency_s = 0.0;
        bool done = false;
    };

    /** Slots of flow 'fi': directed (edge*2 + dir) until
     *  prepareFairShare() rewrites the simulated flows' as dense. */
    std::span<const int> slotsOf(int fi) const
    {
        return {flow_slots_.data() + flows_[fi].slot_begin,
                flow_slots_.data() + flows_[fi].slot_end};
    }

    /** Make the flows of every block, then of every pair, that repeat
     *  their twin's flows copies of them. */
    void findCopies();

    /** Make flows 'copy' copies of flows 'twin', their edges 'shift'
     *  apart, when each is its twin with the ends 'dn' nodes on and
     *  was added after it. */
    void keepCopies(std::span<const int> copy, std::span<const int> twin,
                    NodeId dn, int shift);

    /** Give flow 'fi' the topology's route and its slots. */
    void route(int fi);

    /** Route every pair copy whose pair, or twin pair, shares a
     *  directed slot with another flow. */
    void breakSharedPairs();

    /** Call fn(slot) for every directed slot of flow 'fi'. */
    template <typename Fn>
    void forEachSlot(int fi, Fn fn) const;

    /** Give flow 'fi', a copy, its twin's route shifted to its
     *  block. */
    void routeCopy(int fi);

    /** Number the simulated flows' slots densely and size the
     *  fair-share state for them. */
    void prepareFairShare();

    /** The event loop: fair sharing over the routed flows, every
     *  flow advancing, a kept copy at its twin's rate. */
    void simulate();

    /** Recompute max-min fair rates of the active flows into rate_. */
    void fairShare(const std::vector<int> &active);

    /** Freeze the unfrozen flows crossing slot 't' at 'level'.
     *  @return true when every slot they cross that still has users
     *  is left strictly above the level. */
    bool freezeAbove(int t, double level);

    const Topology &topo_;
    std::vector<Flow> flows_;
    std::vector<FlowReport> reports_;
    std::vector<double> edge_bytes_;
    bool ran_ = false;

    /** Every flow's slots, flow after flow. */
    std::vector<int> flow_slots_;
    /** Edges some flow's path crosses, ascending; set by run(). Every
     *  other edge carries no bytes. */
    std::vector<int> routed_edges_;
    /** Every routed flow, ascending: what fair sharing runs. */
    std::vector<int> simulated_;

    // Fair-share state, sized once by prepareFairShare() and reused
    // at every completion event.
    /** Flows crossing each dense slot, in flow-id order (CSR). */
    std::vector<int> slot_flows_begin_;
    std::vector<int> slot_flows_;
    std::vector<double> base_cap_;
    std::vector<double> cap_;
    /** Per dense slot, unfrozen flows crossing it; all zero between
     *  fairShare() calls. */
    std::vector<int> users_;
    std::vector<double> rate_;
    /** Per flow, within one fairShare() call: 1 while active with no
     *  rate set, 2 while freezeAbove() checks it, else 0. */
    std::vector<char> unfrozen_;
    /** Slots some unfrozen flow crosses, ascending. */
    std::vector<int> live_;
    /** Slots at the last scan's lowest share, ascending. */
    std::vector<int> ties_;
};

} // namespace mlps::net

#endif // MLPSIM_NET_TRANSFER_H
