#include "net/fabric.h"

#include "sim/logger.h"

namespace mlps::net {

PodShape::PodShape()
{
    // NICs sit on PCIe behind the host root complex; uplinks are
    // 100 GbE to the ToR and per-spine 100 GbE upward. Routing is
    // single-path (BFS, no ECMP), so each ToR pair effectively rides
    // one spine uplink — cross-rack degradation therefore bites as
    // soon as those links drop below the NIC rate.
    nic_link = pcie3(16);
    tor_uplink = ethernet(100.0, FabricTier::IntraRack);
    spine_uplink = ethernet(100.0, FabricTier::CrossRack);
}

PodTopology
buildPodTopology(const PodShape &shape, const LeafBuilder &leaf)
{
    if (shape.racks <= 0)
        sim::fatal("buildPodTopology: rack count must be positive, "
                   "got %d", shape.racks);
    if (shape.nodes_per_rack <= 0)
        sim::fatal("buildPodTopology: nodes per rack must be "
                   "positive, got %d", shape.nodes_per_rack);
    if (shape.racks > 1 && shape.spines <= 0)
        sim::fatal("buildPodTopology: a %d-rack pod needs at least "
                   "one spine switch, got %d",
                   shape.racks, shape.spines);

    PodTopology pod;

    // Spines first so the switch layer has stable low ids regardless
    // of pod size changes below them. Single-rack pods need no spine.
    int spines = shape.racks > 1 ? shape.spines : 0;
    for (int s = 0; s < spines; ++s)
        pod.spines.push_back(
            pod.topo.addSpineSwitch("spine" + std::to_string(s)));

    for (int r = 0; r < shape.racks; ++r) {
        // Each rack is one block of nodes and edges: its ToR's, its
        // spine uplinks, then its hosts'.
        const NodeId rack_node = pod.topo.nodeCount();
        const int rack_edge = pod.topo.edgeCount();
        NodeId tor = pod.topo.addTorSwitch("tor" + std::to_string(r));
        pod.tors.push_back(tor);
        for (NodeId spine : pod.spines)
            pod.topo.connect(tor, spine, shape.spine_uplink);

        for (int n = 0; n < shape.nodes_per_rack; ++n) {
            const std::string prefix =
                "r" + std::to_string(r) + "n" + std::to_string(n) + ".";
            // Each host is one block of nodes and edges: the leaf's,
            // then its NIC's.
            const NodeId first_node = pod.topo.nodeCount();
            const int first_edge = pod.topo.edgeCount();
            LeafNodes nodes = leaf(pod.topo, prefix);
            if (nodes.cpus.empty())
                sim::fatal("buildPodTopology: leaf builder for host "
                           "%s produced no CPU to attach a NIC to",
                           prefix.c_str());

            PodHost host;
            host.rack = r;
            host.node = n;
            host.cpus = std::move(nodes.cpus);
            host.gpus = std::move(nodes.gpus);
            host.switches = std::move(nodes.switches);
            host.nic = pod.topo.addNic(prefix + "NIC0");
            pod.topo.connect(host.cpus[0], host.nic, shape.nic_link);
            pod.topo.connect(host.nic, tor, shape.tor_uplink);
            pod.topo.recordBlock(0, first_node, first_edge);

            for (NodeId g : host.gpus)
                pod.gpus.push_back(g);
            pod.hosts.push_back(std::move(host));
        }
        pod.topo.recordBlock(1, rack_node, rack_edge);
    }

    pod.topo.validate();
    return pod;
}

} // namespace mlps::net
