/**
 * @file
 * Gradient all-reduce cost model.
 *
 * Data-parallel training synchronises gradients every iteration with an
 * all-reduce. We model NCCL's ring algorithm: each of the 2*(N-1) steps
 * moves bytes/N per GPU to its ring neighbour. Steps are simulated at
 * flow level over the machine topology, so the fabric choice (NVLink,
 * PCIe P2P, or staged through host DRAM/UPI) and its contention fall
 * out of the graph rather than being hard-coded — this is what drives
 * the paper's Figure 5 and the NVLink columns of Table V.
 */

#ifndef MLPSIM_NET_ALLREDUCE_H
#define MLPSIM_NET_ALLREDUCE_H

#include <vector>

#include "net/topology.h"

namespace mlps::net {

/** Outcome of one modeled all-reduce. */
struct AllReduceResult {
    /** Wall time of the collective, seconds. */
    double seconds = 0.0;
    /** Fabric the collective ran over. */
    CollectiveFabric fabric = CollectiveFabric::HostStaged;
    /** Bytes that crossed NVLink links, summed over links. */
    double nvlink_bytes = 0.0;
    /** Bytes that crossed PCIe links, summed over links. */
    double pcie_bytes = 0.0;
    /** Bytes that crossed UPI links, summed over links. */
    double upi_bytes = 0.0;
    /** Bytes that crossed Ethernet links, summed over links. */
    double eth_bytes = 0.0;
    /**
     * Bytes per fabric tier, indexed by FabricTier. Every link has
     * exactly one kind and one tier, so the tier totals and the kind
     * totals are two partitions of the same traffic.
     */
    double tier_bytes[kNumFabricTiers] = {0.0, 0.0, 0.0};
    /**
     * Ring hops that lost their direct link to a fault and were
     * routed around it (0 on a healthy fabric). Hierarchical
     * collectives count intra-node hops only: cross-node phases ride
     * routed Ethernet paths where BFS re-pathing is the norm, not a
     * fault response.
     */
    int reroutes = 0;
};

/** Tunables of the collective model. */
struct AllReduceParams {
    /**
     * Gradient bucket count: frameworks all-reduce gradients in
     * buckets as the backward pass produces them, so every ring step
     * is paid per bucket. Latency-bound workloads (many layers, small
     * tensors) are dominated by this term.
     */
    int buckets = 1;
    /** Per-bucket-step software overhead on P2P-capable fabrics, us. */
    double step_overhead_us = 12.0;
    /**
     * Per-bucket-step overhead when staging through host memory:
     * bounce-buffer management and CPU involvement per transfer.
     */
    double staged_step_overhead_us = 80.0;
    /**
     * Effective-bandwidth derating of host-staged transfers: without
     * GPUDirect P2P, NCCL falls back to device-to-host-to-device
     * copies that reach only a fraction of the PCIe link rate.
     */
    double staged_bw_derate = 0.55;
    /**
     * Straggler stretch: a ring (or tree) collective completes at the
     * pace of its slowest participant, so a thermally-throttled GPU
     * stretches every step. 1.0 = no straggler; values < 1 are
     * treated as 1.
     */
    double slowest_participant_scale = 1.0;
};

/**
 * Ring order over the surviving fabric. On a healthy topology this
 * returns 'gpus' unchanged (so healthy results are bit-identical to
 * the fault-oblivious model). With links down it greedily re-chains
 * the ring to prefer direct surviving links — NVLink first — so the
 * collective avoids multi-hop detours where the fabric still allows.
 */
std::vector<NodeId> survivingRingOrder(const Topology &topo,
                                       const std::vector<NodeId> &gpus);

/**
 * Ring all-reduce of 'bytes' per GPU across the given GPU set.
 *
 * @param topo  machine topology.
 * @param gpus  participating GPU node ids (ring order = given order).
 * @param bytes gradient payload per GPU, bytes.
 * @param params model tunables.
 */
AllReduceResult ringAllReduce(const Topology &topo,
                              const std::vector<NodeId> &gpus,
                              double bytes,
                              const AllReduceParams &params = {});

/**
 * GPU grouping derived from the static link tiers: GPUs connected by
 * intra-node links form one node group; node groups connected without
 * crossing a cross-rack link share a rack. Derived from the *static*
 * structure (down links still group), so a fault degrades a tier's
 * collective rather than silently re-homing GPUs to another host.
 */
struct FabricShape {
    /** GPUs per host, hosts in first-appearance order. */
    std::vector<std::vector<NodeId>> node_groups;
    /** Indices into node_groups per rack, racks in appearance order. */
    std::vector<std::vector<int>> rack_groups;

    /** All node groups the same size, all racks the same host count. */
    bool uniform() const;
};

/** Derive the tier grouping of a GPU set. */
FabricShape fabricShape(const Topology &topo,
                        const std::vector<NodeId> &gpus);

/**
 * 2D-ring hierarchical all-reduce: intra-node reduce-scatter (ring,
 * L-1 steps of bytes/L), cross-node ring all-reduce of each shard
 * over the NIC fabric (2*(M-1) steps of bytes/(L*M), L concurrent
 * rank-rings), intra-node allgather (L-1 steps). Each tier picks its
 * own fallback: intra-node phases use the worst per-host fabric
 * (NVLink -> PCIe P2P -> host-staged as links fail), cross-node
 * phases are always host-staged. Delegates to ringAllReduce verbatim
 * when the set occupies a single host (or groups are non-uniform), so
 * a degenerate pod is bit-identical to the flat ring.
 */
AllReduceResult hierarchicalRingAllReduce(
    const Topology &topo, const std::vector<NodeId> &gpus, double bytes,
    const AllReduceParams &params = {});

/**
 * Cross-rack tree hierarchical all-reduce: intra-node reduce-scatter,
 * intra-rack cross-node ring all-reduce, binary-tree reduce+broadcast
 * of each shard across rack leaders, intra-rack re-broadcast,
 * intra-node allgather. Latency-optimal across racks — 2*ceil(log2 R)
 * rounds instead of the 2D ring's 2*(R*Mr-1) — so it wins for small
 * payloads or many racks. Falls back to hierarchicalRingAllReduce on
 * single-rack sets.
 */
AllReduceResult hierarchicalTreeAllReduce(
    const Topology &topo, const std::vector<NodeId> &gpus, double bytes,
    const AllReduceParams &params = {});

/**
 * Shape-aware automatic choice: single-host sets delegate exactly to
 * ringAllReduce, single-rack multi-host sets run the 2D ring, and
 * multi-rack sets take the faster of 2D ring and cross-rack tree.
 */
AllReduceResult autoHierarchicalAllReduce(
    const Topology &topo, const std::vector<NodeId> &gpus, double bytes,
    const AllReduceParams &params = {});

} // namespace mlps::net

#endif // MLPSIM_NET_ALLREDUCE_H
