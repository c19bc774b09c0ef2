/**
 * @file
 * Link types for the host/GPU interconnect fabric.
 *
 * The paper's Figure 5 and Table V hinge on three fabrics: PCI Express
 * 3.0 (CPU-GPU and, behind a switch, GPU-GPU), NVIDIA NVLink (GPU-GPU),
 * and Intel UPI (CPU-CPU). LinkSpec captures their datasheet bandwidth
 * plus a protocol efficiency derating observed in practice.
 */

#ifndef MLPSIM_NET_LINK_H
#define MLPSIM_NET_LINK_H

#include <string>

namespace mlps::net {

/** Fabric family of a link. */
enum class LinkKind {
    Pcie3,   ///< PCI Express 3.0, width given by lanes
    NvLink,  ///< NVLink bricks between two GPUs
    Upi,     ///< Intel Ultra Path Interconnect between sockets
    Eth,     ///< Ethernet/RoCE datacenter fabric (NIC/ToR/spine)
};

/** Number of LinkKind values (for per-kind accounting arrays). */
inline constexpr int kNumLinkKinds = 4;

/** Human-readable name of a link kind. */
std::string toString(LinkKind kind);

/**
 * Hierarchy tier a link belongs to. Single-box links (PCIe, NVLink,
 * UPI) are intra-node; pod composition adds NIC->ToR (intra-rack) and
 * ToR->spine (cross-rack) tiers. Hierarchical collectives and fault
 * classes key off this attribute.
 */
enum class FabricTier {
    IntraNode, ///< inside one host (PCIe/NVLink/UPI, and CPU->NIC)
    IntraRack, ///< host NIC to top-of-rack switch
    CrossRack, ///< top-of-rack switch to spine layer
};

/** Number of FabricTier values (for per-tier accounting arrays). */
inline constexpr int kNumFabricTiers = 3;

/** Human-readable name of a fabric tier. */
std::string toString(FabricTier tier);

/** One physical link between two topology nodes. */
struct LinkSpec {
    LinkKind kind = LinkKind::Pcie3;
    /** Theoretical unidirectional bandwidth, GB/s. */
    double gbps = 15.8;
    /** One-way latency, microseconds. */
    double latency_us = 1.3;
    /** Achievable fraction of theoretical bandwidth. */
    double efficiency = 0.8;
    /** Hierarchy tier; single-box builders leave the default. */
    FabricTier tier = FabricTier::IntraNode;

    /** Effective unidirectional bandwidth in bytes/s. */
    double effectiveBytesPerSec() const { return gbps * 1e9 * efficiency; }

    bool operator==(const LinkSpec &) const = default;
};

/** PCIe 3.0 link of the given lane count (15.8 GB/s at x16). */
LinkSpec pcie3(int lanes);

/** NVLink connection of the given brick count (25 GB/s per brick). */
LinkSpec nvlink(int bricks);

/** UPI socket-to-socket link (Skylake-SP: 20.8 GB/s unidirectional). */
LinkSpec upi();

/**
 * Ethernet/RoCE link of the given line rate in Gbit/s (100 GbE =
 * 12.5 GB/s), tagged with its hierarchy tier. Used for NIC->ToR and
 * ToR->spine pod links.
 */
LinkSpec ethernet(double gbit_per_s, FabricTier tier);

} // namespace mlps::net

#endif // MLPSIM_NET_LINK_H
