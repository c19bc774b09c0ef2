/**
 * @file
 * The experimental platforms of the paper's Table III, plus the MLPerf
 * v0.5 reference machine.
 *
 * Topology highlights (driving Figure 5 / Table V behaviour):
 *  - T640:      2 sockets; 2 GPUs per socket on CPU PCIe; cross-socket
 *               GPU traffic crosses UPI; no GPUDirect P2P.
 *  - C4140 (B): 4 GPUs behind one 96-lane PCIe switch; P2P over the
 *               switch, single root complex.
 *  - C4140 (K): 4 SXM2 GPUs in an NVLink mesh; host links aggregated
 *               by a PCIe switch.
 *  - C4140 (M): 4 SXM2 GPUs in an NVLink mesh; host links direct to
 *               the CPUs' PCIe ports.
 *  - R940xa:    4 sockets; one GPU per socket on CPU PCIe; no P2P.
 *  - DSS 8440:  2 sockets; 8 GPUs, 4 behind each of two PCIe switches.
 */

#ifndef MLPSIM_SYS_MACHINES_H
#define MLPSIM_SYS_MACHINES_H

#include <span>
#include <string_view>
#include <vector>

#include "sys/system_config.h"

namespace mlps::sys {

/** Dell PowerEdge T640: 4x V100-PCIe-32GB on CPU PCIe + UPI. */
SystemConfig t640();

/** Dell PowerEdge C4140 config B: 4x V100-PCIe-16GB on a PCIe switch. */
SystemConfig c4140B();

/** Dell PowerEdge C4140 config K: 4x V100-SXM2-16GB, NVLink + switch. */
SystemConfig c4140K();

/** Dell PowerEdge C4140 config M: 4x V100-SXM2-16GB, NVLink, CPU PCIe. */
SystemConfig c4140M();

/** Dell PowerEdge R940xa: 4 sockets, 4x V100-PCIe-32GB, one per CPU. */
SystemConfig r940xa();

/** Dell DSS 8440: 8x V100-PCIe-16GB behind two PCIe switches. */
SystemConfig dss8440();

/** MLPerf v0.5 reference machine: one Tesla P100. */
SystemConfig mlperfReference();

/**
 * NVIDIA DGX-1V: 8x V100-SXM2 in the hybrid cube-mesh NVLink
 * topology — the machine NVIDIA's v0.5 submissions actually ran on.
 */
SystemConfig dgx1();

/** NVIDIA DGX-2: 16x V100-SXM3 through NVSwitch (all-to-all). */
SystemConfig dgx2();

/** All five 4-GPU platforms of the Figure 5 study, NVLink systems first. */
std::vector<SystemConfig> figure5Systems();

/**
 * Copy of a system with its nth NVLink edge (by edge id) hard-down —
 * the "one dead lane group" degraded-fabric scenario. Fatal when the
 * system has no NVLink edge. The name gains a " [nvlink N down]"
 * suffix so reports distinguish the variant.
 */
SystemConfig withNvlinkEdgeDown(const SystemConfig &base, int which = 0);

/**
 * Copy of a system with every PCIe edge bandwidth-scaled to 'scale'
 * (downtrained lanes). The name gains a " [pcie xS]" suffix.
 */
SystemConfig withPcieDowntrained(const SystemConfig &base, double scale);

/**
 * Pod prefab: racks x nodes_per_rack replicas of 'base' (any Table
 * III box) wired through per-host NICs, per-rack ToR switches and a
 * pod spine layer (see net/fabric.h). The name becomes
 * "<base> pod <R>x<N>"; cpu/gpu node lists are host-major so
 * gpuSubset(n) fills whole hosts first. Single-rack pods get no
 * spine layer regardless of 'spines'.
 */
SystemConfig withPod(const SystemConfig &base, int racks,
                     int nodes_per_rack, int spines = 2);

/**
 * Copy of a pod with every cross-rack (ToR->spine) link scaled to
 * 'scale' — the oversubscribed-spine scenario. Fatal on topologies
 * without a cross-rack tier. Name gains " [spine xS]".
 */
SystemConfig withSpineDegraded(const SystemConfig &base, double scale);

/**
 * Copy of a pod with rack 'rack's ToR uplinks (its cross-rack edges
 * only — a strict subset of withSpineDegraded's edge set, so the
 * healthy <= ToR-degraded <= spine-degraded time ordering is emergent)
 * scaled to 'scale'. Name gains " [torR xS]".
 */
SystemConfig withTorDegraded(const SystemConfig &base, int rack,
                             double scale);

/**
 * Resolve a system spec string: an exact machine name, the
 * "reference" alias, or the pod grammar
 * `pod(<box>,<racks>x<nodes>[,spines=S])` (e.g. "pod(C4140 (M),4x4)").
 * Returns false with a did-you-mean error message on unknown names or
 * malformed grammar; both the CLI and the serve catalog route through
 * this so their vocabularies never drift.
 */
bool systemFromSpec(const std::string &spec, SystemConfig *out,
                    std::string *error);

/** Every Table III machine. */
std::vector<SystemConfig> allMachines();

/** One machine of the CLI and serve vocabulary. */
struct Machine {
    std::string_view name;  ///< the built config's name
    std::string_view alias; ///< the name offered instead, if any
    SystemConfig (*build)();

    /** The name `mlpsim list` and did-you-mean hints offer. */
    std::string_view offered() const {
        return alias.empty() ? name : alias;
    }
};

/**
 * The machine vocabulary: the Table III boxes in allMachines() order,
 * then the reference machine, which is offered as "reference".
 */
std::span<const Machine> machineCatalogue();

} // namespace mlps::sys

#endif // MLPSIM_SYS_MACHINES_H
