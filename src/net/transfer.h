/**
 * @file
 * Flow-level transfer simulation over a Topology.
 *
 * FlowSimulator models a set of concurrent byte streams, each following
 * a routed path, sharing link capacity max-min fairly. It advances an
 * internal clock from flow-completion event to flow-completion event,
 * re-solving the bandwidth allocation at each event — the standard
 * flow-level network simulation used when packet detail is unnecessary.
 *
 * The training model uses it for host-to-device input staging and for
 * the per-step flows of the ring all-reduce, where shared-bottleneck
 * contention (e.g. two staged flows crossing one UPI link) matters.
 */

#ifndef MLPSIM_NET_TRANSFER_H
#define MLPSIM_NET_TRANSFER_H

#include <cstdint>
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

/** Per-link traffic accounting after a simulation completes. */
struct LinkTraffic {
    int edge = -1;
    LinkKind kind = LinkKind::Pcie3;
    double bytes = 0.0;
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
     * time 'start_s' (seconds). The route is fixed at add time.
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

    /** Per-link byte totals. Valid after run(). */
    std::vector<LinkTraffic> linkTraffic() const;

    /** Total bytes that traversed links of the given kind. */
    double bytesOnKind(LinkKind kind) const;

    /** Total bytes that traversed links of the given fabric tier. */
    double bytesOnTier(FabricTier tier) const;

  private:
    struct Flow {
        Path path;
        /** The path's dense slots: flow_slots_[slot_begin, slot_end). */
        int slot_begin = 0;
        int slot_end = 0;
        double bytes;
        double remaining;
        double start_s;
        double finish_s = -1.0;
        double latency_s = 0.0;
        bool started = false;
        bool done = false;
    };

    /** Dense indices of the directed slots flow 'fi' traverses. */
    std::span<const int> slotsOf(int fi) const
    {
        return {flow_slots_.data() + flows_[fi].slot_begin,
                flow_slots_.data() + flows_[fi].slot_end};
    }

    /** Size the fair-share state and index each slot's flows; run()
     *  calls it once all flows are in. */
    void prepareFairShare();

    /** Recompute max-min fair rates of the active flows into rate_. */
    void fairShare(const std::vector<int> &active);

    const Topology &topo_;
    std::vector<Flow> flows_;
    std::vector<FlowReport> reports_;
    std::vector<double> edge_bytes_;
    bool ran_ = false;

    /** Directed slot (edge*2 + dir) -> dense index; -1 unused, 0 used
     *  until prepareFairShare() numbers the used ones. */
    std::vector<int> slot_index_;
    /** Dense index -> directed slot. */
    std::vector<int> slot_of_;
    /** Every flow's slots, flow after flow: directed slots until
     *  prepareFairShare() rewrites them as dense indices. */
    std::vector<int> flow_slots_;
    /** Edges some flow's path crosses, ascending; set by run(). Every
     *  other edge carries no bytes. */
    std::vector<int> routed_edges_;

    // Fair-share state, sized once by prepareFairShare() and reused
    // at every completion event.
    /** Flows crossing each dense slot, in flow-id order (CSR). */
    std::vector<int> slot_flows_begin_;
    std::vector<int> slot_flows_;
    std::vector<double> base_cap_;
    std::vector<double> cap_;
    std::vector<int> users_;
    std::vector<double> rate_;
    /** Per flow, within one fairShare() call: active, rate not set. */
    std::vector<char> unfrozen_;
    /** Slots some unfrozen flow crosses, ascending. */
    std::vector<int> live_;
};

/**
 * Convenience: time to move 'bytes' alone over the route between two
 * nodes (bandwidth-bottleneck plus per-hop latency).
 * @return seconds; +inf when disconnected.
 */
double soloTransferSeconds(const Topology &topo, NodeId from, NodeId to,
                           double bytes);

} // namespace mlps::net

#endif // MLPSIM_NET_TRANSFER_H
