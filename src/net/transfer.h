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
 * whose hosts, or racks, are copies of the first one
 * (Topology::blockCopies(), level 0 a host, level 1 a rack with its
 * NICs and ToR), a flow inside block k, whose cell links are in the
 * first block's state, is the first block's flow of the same bytes
 * and start between the shifted endpoints: the block's cell has one
 * gateway, so its route is that flow's, shifted, and never leaves the
 * cell. addFlow() records it as a shifted copy of that twin, unrouted,
 * when block k's flows so far are the first block's in the same order.
 * It tries the host level first; a flow copied there is no flow of its
 * rack's sequence, so it breaks its rack. run() keeps the copies of a
 * block whose flows are all the first block's, in order, when no flow
 * into or out of either block was added and the link state has not
 * changed since.
 *
 * A flow from block k to block k+1 of a level, if no block copied it,
 * is a pair's: on a pod, rank i of host j to rank i of host j+1 in the
 * 2D ring's cross-node round. When blocks k and k+1 are blocks 0 and
 * 1 shifted by one offset (BlockCopies::pairs) and the four blocks'
 * cells and ways out are in the first block's link state, its route
 * is the first pair's flow's, shifted: each end of it is a way inside
 * a cell, and between the two gateways a BFS takes the first far end
 * both ways out reach. It is kept the same way, as a copy of the
 * first pair's flow, when no other flow crosses a directed slot (one
 * direction of a link) of the pair or of the first pair. The wrap
 * pair, from the last block to the first, is no pair and is routed.
 *
 * A copy's twin may itself be a copy (a rack's twin one of the first
 * rack's pair copies); its route is the routed root's, shifted. Any
 * copy that is not kept gets that route and prices as a routed flow.
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

#include <cstdint>
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
     * time 'start_s' (seconds). The route is fixed at add time: the
     * flow holds the topology's memoized path (Topology::sharedRoute),
     * which every flow on that route shares, rather than a copy.
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
         *  copy its twin's, every edge shifted by 'shift'. */
        std::shared_ptr<const Path> path;
        NodeId from; ///< as added
        NodeId to;
        /** A copy's twin, whose rate it takes, level and block (a
         *  pair copy's first block), else -1. */
        int twin = -1;
        int level = -1;
        int block = -1;
        /** A copy of a first-pair flow, not of a first-block flow. */
        bool pair = false;
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

    /** What addFlow() knows of one block of a level's copies, and of
     *  the pair of it and the next block. */
    struct BlockState {
        /** blockMatchesFirst(), gateMatchesFirst(), or -1 until
         *  asked. */
        signed char matches = -1;
        signed char gate_matches = -1;
        /** A flow into or out of the block, or one not its copy. */
        bool broken = false;
        /** Its flows so far, all copies of the first block's. */
        int copies = 0;
        /** A flow to the next block not the first pair's copy, or a
         *  pair flow sharing a slot with another flow. */
        bool pair_broken = false;
        /** Its flows to the next block so far, all copies of the first
         *  pair's. */
        int pair_copies = 0;
    };

    /** One level of the topology's block copies, as addFlow() sees
     *  it. */
    struct Level {
        /** The topology's block copies at this level, or null. */
        const Topology::BlockCopies *copies = nullptr;
        /** Per block, once a flow touches a block. */
        std::vector<BlockState> blocks;
        /** Flows inside the first block, in add order, but for those
         *  a lower level copied. */
        std::vector<int> first_flows;
        /** Flows from the first block to the second, the same way. */
        std::vector<int> first_pair;
    };

    /** Make 'f' a copy of a first-block or first-pair flow at the
     *  lowest level where it is the next flow its block or pair needs;
     *  else note what it breaks. */
    bool addCopy(Flow &f);

    /** addCopy() at one level; 'claimed' when a lower level copied
     *  'f', which then only breaks its blocks. */
    bool copyAt(int level, Flow &f, bool claimed);

    /** addCopy() of a flow from block a to block a+1 of one level. */
    bool copyPair(int level, Flow &f, bool claimed);

    /** True when block 'k' of 'level' is in the first block's link
     *  state: its cell, and with 'gate' also its ways out. */
    bool blockMatches(int level, int k, bool gate);

    /** Make 'f' a copy of flow 'twin', in block 'k' of 'level'. */
    void makeCopy(Flow &f, int twin, int level, int k, bool pair);

    /** True when copy 'f' may stay unrouted. */
    bool copyHolds(const Flow &f) const;

    /** Break every pair whose copies, or the first pair, share a
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
    Level levels_[Topology::kGatewayLevels];
    std::vector<Flow> flows_;
    /** Flows added as copies, and the link-state epoch they saw. */
    int copies_ = 0;
    std::uint64_t copy_epoch_ = 0;
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
