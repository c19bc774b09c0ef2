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
 *
 * Pods repeat the same traffic in every host: flows that share no link
 * form components, and components that are exact copies of each other
 * (same bytes, start times and latencies, paired links of equal
 * capacity, in the same relative slot order) form a symmetry class.
 * run() simulates one representative per class — all classes in one
 * event loop, so every event splits every class's steps as it would
 * with all flows present — and copies the representative's finish
 * times and link bytes to the other members. Results are bit-identical
 * to simulating every flow.
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

    /** Bytes each edge carried, indexed by edge id. Valid after run(). */
    const std::vector<double> &edgeBytes() const { return edge_bytes_; }

    /** Total bytes that traversed links of the given kind. */
    double bytesOnKind(LinkKind kind) const;

    /** Total bytes that traversed links of the given fabric tier. */
    double bytesOnTier(FabricTier tier) const;

  private:
    struct Flow {
        Path path;
        /** The path's slots: flow_slots_[slot_begin, slot_end). */
        int slot_begin = 0;
        int slot_end = 0;
        double bytes;
        double remaining;
        double start_s;
        double latency_s = 0.0;
        bool done = false;
    };

    /** Flows of component 'c', ascending. */
    std::span<const int> flowsOf(int c) const
    {
        return {component_flows_.data() + component_begin_[c],
                component_flows_.data() + component_begin_[c + 1]};
    }

    /** Slots of flow 'fi': directed (edge*2 + dir) until
     *  prepareFairShare() rewrites the simulated flows' as dense. */
    std::span<const int> slotsOf(int fi) const
    {
        return {flow_slots_.data() + flows_[fi].slot_begin,
                flow_slots_.data() + flows_[fi].slot_end};
    }

    /** sameClass()'s scratch maps, defined in transfer.cc. */
    struct PairMaps;

    /** Split the flows into components that share no undirected edge,
     *  map each to the representative of its symmetry class, and list
     *  the representatives' flows in simulated_. */
    void classify();

    /** True when component 'c' is an exact copy of component 'r' (see
     *  the file comment). */
    bool sameClass(int r, int c, PairMaps &maps) const;

    /** Number the simulated flows' slots densely and size the
     *  fair-share state for them. */
    void prepareFairShare();

    /** The event loop over the simulated flows. */
    void simulate();

    /** Recompute max-min fair rates of the active flows into rate_. */
    void fairShare(const std::vector<int> &active);

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
    /** Flows grouped by component, each group ascending (CSR); a
     *  component's first flow is its lowest. */
    std::vector<int> component_flows_;
    std::vector<int> component_begin_;
    /** Per component, the representative of its class. */
    std::vector<int> rep_of_;
    /** The flows of every representative, ascending: what simulate()
     *  runs. */
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
    /** Per flow, within one fairShare() call: active, rate not set. */
    std::vector<char> unfrozen_;
    /** Slots some unfrozen flow crosses, ascending. */
    std::vector<int> live_;
};

} // namespace mlps::net

#endif // MLPSIM_NET_TRANSFER_H
