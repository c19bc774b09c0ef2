#include "sys/machines.h"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string_view>

#include "net/fabric.h"
#include "net/link.h"
#include "sim/logger.h"
#include "sim/strings.h"

namespace mlps::sys {

namespace {

using net::NodeId;

/** Add a dual-socket CPU pair joined by UPI. */
std::vector<NodeId>
addSockets(net::Topology &topo, int count)
{
    std::vector<NodeId> cpus;
    for (int i = 0; i < count; ++i)
        cpus.push_back(topo.addCpu("CPU" + std::to_string(i)));
    // Sockets are joined in a chain (2 sockets) or ring (4 sockets),
    // which matches the UPI wiring of the Dell platforms.
    for (int i = 0; i + 1 < count; ++i)
        topo.connect(cpus[i], cpus[i + 1], net::upi());
    if (count > 2)
        topo.connect(cpus[count - 1], cpus[0], net::upi());
    return cpus;
}

/** Add n GPUs named GPU0..GPUn-1. */
std::vector<NodeId>
addGpus(net::Topology &topo, int count)
{
    std::vector<NodeId> gpus;
    for (int i = 0; i < count; ++i)
        gpus.push_back(topo.addGpu("GPU" + std::to_string(i)));
    return gpus;
}

/**
 * Fully connect a 4-GPU SXM2 board with NVLink. V100 has six bricks;
 * in the quad layout every pair gets two bricks (50 GB/s/dir).
 */
void
nvlinkMesh4(net::Topology &topo, const std::vector<NodeId> &gpus)
{
    for (std::size_t i = 0; i < gpus.size(); ++i)
        for (std::size_t j = i + 1; j < gpus.size(); ++j)
            topo.connect(gpus[i], gpus[j], net::nvlink(2));
}

} // namespace

SystemConfig
t640()
{
    SystemConfig s;
    s.name = "T640";
    s.cpu = hw::xeonGold6148();
    s.cpu.dram.dimms = 6; // 12 DIMMs across 2 sockets
    s.num_cpus = 2;
    s.gpu = hw::teslaV100Pcie_32();
    s.num_gpus = 4;

    s.cpu_nodes = addSockets(s.topo, 2);
    s.gpu_nodes = addGpus(s.topo, 4);
    // Two GPUs per socket, each on CPU PCIe x16: P2P impossible, and
    // cross-socket GPU pairs must cross UPI.
    for (int g = 0; g < 4; ++g)
        s.topo.connect(s.gpu_nodes[g], s.cpu_nodes[g / 2], net::pcie3(16));
    s.validate();
    return s;
}

SystemConfig
c4140B()
{
    SystemConfig s;
    s.name = "C4140 (B)";
    s.cpu = hw::xeonGold6148();
    s.cpu.dram.dimms = 6;
    s.num_cpus = 2;
    s.gpu = hw::teslaV100Pcie_16();
    s.num_gpus = 4;

    s.cpu_nodes = addSockets(s.topo, 2);
    s.gpu_nodes = addGpus(s.topo, 4);
    NodeId sw = s.topo.addSwitch("PLX0");
    s.switch_nodes.push_back(sw);
    // 96-lane switch: x16 to each GPU, x16 uplink to CPU0. All four
    // GPUs share one root complex -> GPUDirect P2P over the switch.
    s.topo.connect(sw, s.cpu_nodes[0], net::pcie3(16));
    for (int g = 0; g < 4; ++g)
        s.topo.connect(s.gpu_nodes[g], sw, net::pcie3(16));
    s.validate();
    return s;
}

SystemConfig
c4140K()
{
    SystemConfig s;
    s.name = "C4140 (K)";
    s.cpu = hw::xeonGold6148();
    s.cpu.dram.dimms = 6;
    s.num_cpus = 2;
    s.gpu = hw::teslaV100Sxm2_16();
    s.num_gpus = 4;

    s.cpu_nodes = addSockets(s.topo, 2);
    s.gpu_nodes = addGpus(s.topo, 4);
    nvlinkMesh4(s.topo, s.gpu_nodes);
    // Host connectivity aggregated by a PCIe switch on CPU0.
    NodeId sw = s.topo.addSwitch("PLX0");
    s.switch_nodes.push_back(sw);
    s.topo.connect(sw, s.cpu_nodes[0], net::pcie3(16));
    for (int g = 0; g < 4; ++g)
        s.topo.connect(s.gpu_nodes[g], sw, net::pcie3(16));
    s.validate();
    return s;
}

SystemConfig
c4140M()
{
    SystemConfig s;
    s.name = "C4140 (M)";
    s.cpu = hw::xeonGold6148();
    s.cpu.dram.dimms = 12; // 24 DIMMs across 2 sockets
    s.num_cpus = 2;
    s.gpu = hw::teslaV100Sxm2_16();
    s.num_gpus = 4;

    s.cpu_nodes = addSockets(s.topo, 2);
    s.gpu_nodes = addGpus(s.topo, 4);
    nvlinkMesh4(s.topo, s.gpu_nodes);
    // Host links straight to the CPUs, two GPUs per socket.
    for (int g = 0; g < 4; ++g)
        s.topo.connect(s.gpu_nodes[g], s.cpu_nodes[g / 2], net::pcie3(16));
    s.validate();
    return s;
}

SystemConfig
r940xa()
{
    SystemConfig s;
    s.name = "R940xa";
    s.cpu = hw::xeonGold6148();
    s.cpu.dram.dimms = 6; // 24 DIMMs across 4 sockets
    s.num_cpus = 4;
    s.gpu = hw::teslaV100Pcie_32();
    s.num_gpus = 4;

    s.cpu_nodes = addSockets(s.topo, 4);
    s.gpu_nodes = addGpus(s.topo, 4);
    // One GPU per socket: every GPU pair crosses at least one UPI hop.
    for (int g = 0; g < 4; ++g)
        s.topo.connect(s.gpu_nodes[g], s.cpu_nodes[g], net::pcie3(16));
    s.validate();
    return s;
}

SystemConfig
dss8440()
{
    SystemConfig s;
    s.name = "DSS 8440";
    s.cpu = hw::xeonGold6142();
    s.cpu.dram.dimms = 6;
    s.cpu.dram.dimm_gib = 32.0;
    s.num_cpus = 2;
    s.gpu = hw::teslaV100Pcie_16();
    s.num_gpus = 8;

    s.cpu_nodes = addSockets(s.topo, 2);
    s.gpu_nodes = addGpus(s.topo, 8);
    // Four GPUs behind each of two PCIe switches, one per socket. The
    // switches are also linked to each other, so GPUDirect P2P works
    // across the whole GPU complex without touching a root complex.
    for (int sw_i = 0; sw_i < 2; ++sw_i) {
        NodeId sw = s.topo.addSwitch("PLX" + std::to_string(sw_i));
        s.switch_nodes.push_back(sw);
        s.topo.connect(sw, s.cpu_nodes[sw_i], net::pcie3(16));
        for (int g = 0; g < 4; ++g)
            s.topo.connect(s.gpu_nodes[sw_i * 4 + g], sw, net::pcie3(16));
    }
    s.topo.connect(s.switch_nodes[0], s.switch_nodes[1], net::pcie3(16));
    s.validate();
    return s;
}

SystemConfig
mlperfReference()
{
    SystemConfig s;
    s.name = "MLPerf reference (P100)";
    s.cpu = hw::xeonGold6148();
    s.num_cpus = 1;
    s.gpu = hw::teslaP100Pcie_16();
    s.num_gpus = 1;

    s.cpu_nodes.push_back(s.topo.addCpu("CPU0"));
    s.gpu_nodes.push_back(s.topo.addGpu("GPU0"));
    s.topo.connect(s.gpu_nodes[0], s.cpu_nodes[0], net::pcie3(16));
    s.validate();
    return s;
}

SystemConfig
dgx1()
{
    SystemConfig s;
    s.name = "DGX-1V";
    s.cpu = hw::xeonGold6148();
    s.cpu.dram.dimms = 8;
    s.cpu.dram.dimm_gib = 32.0;
    s.num_cpus = 2;
    s.gpu = hw::teslaV100Sxm2_16();
    s.num_gpus = 8;

    s.cpu_nodes = addSockets(s.topo, 2);
    s.gpu_nodes = addGpus(s.topo, 8);
    // Hybrid cube mesh: two quads {0..3} and {4..7}. Within a quad,
    // ring edges get two bricks and one diagonal a single brick;
    // each GPU also has one vertical brick to its cube partner.
    // That spends exactly the six V100 NVLink bricks per GPU.
    for (int q = 0; q < 2; ++q) {
        int base = q * 4;
        const auto &g = s.gpu_nodes;
        s.topo.connect(g[base + 0], g[base + 1], net::nvlink(2));
        s.topo.connect(g[base + 1], g[base + 2], net::nvlink(2));
        s.topo.connect(g[base + 2], g[base + 3], net::nvlink(2));
        s.topo.connect(g[base + 3], g[base + 0], net::nvlink(2));
        s.topo.connect(g[base + 0], g[base + 2], net::nvlink(1));
        s.topo.connect(g[base + 1], g[base + 3], net::nvlink(1));
    }
    for (int i = 0; i < 4; ++i)
        s.topo.connect(s.gpu_nodes[i], s.gpu_nodes[i + 4],
                       net::nvlink(1));
    // Host connectivity: four PCIe switches, two GPUs each.
    for (int sw_i = 0; sw_i < 4; ++sw_i) {
        NodeId sw = s.topo.addSwitch("PLX" + std::to_string(sw_i));
        s.switch_nodes.push_back(sw);
        s.topo.connect(sw, s.cpu_nodes[sw_i / 2], net::pcie3(16));
        s.topo.connect(s.gpu_nodes[sw_i * 2], sw, net::pcie3(16));
        s.topo.connect(s.gpu_nodes[sw_i * 2 + 1], sw, net::pcie3(16));
    }
    s.validate();
    return s;
}

SystemConfig
dgx2()
{
    SystemConfig s;
    s.name = "DGX-2";
    s.cpu = hw::xeonGold6148();
    s.cpu.dram.dimms = 12;
    s.cpu.dram.dimm_gib = 64.0;
    s.num_cpus = 2;
    s.gpu = hw::teslaV100Sxm2_32();
    s.num_gpus = 16;

    s.cpu_nodes = addSockets(s.topo, 2);
    s.gpu_nodes = addGpus(s.topo, 16);
    // NVSwitch plane: every GPU reaches every other at full NVLink
    // bandwidth through the switch fabric (modeled as one node with
    // six bricks per GPU).
    NodeId nvswitch = s.topo.addSwitch("NVSwitch");
    s.switch_nodes.push_back(nvswitch);
    for (int g = 0; g < 16; ++g)
        s.topo.connect(s.gpu_nodes[g], nvswitch, net::nvlink(6));
    // Host connectivity via PCIe switches, four GPUs each.
    for (int sw_i = 0; sw_i < 4; ++sw_i) {
        NodeId sw = s.topo.addSwitch("PLX" + std::to_string(sw_i));
        s.switch_nodes.push_back(sw);
        s.topo.connect(sw, s.cpu_nodes[sw_i / 2], net::pcie3(16));
        for (int g = 0; g < 4; ++g)
            s.topo.connect(s.gpu_nodes[sw_i * 4 + g], sw,
                           net::pcie3(16));
    }
    s.validate();
    return s;
}

std::vector<SystemConfig>
figure5Systems()
{
    return {c4140M(), c4140K(), c4140B(), t640(), r940xa()};
}

SystemConfig
withNvlinkEdgeDown(const SystemConfig &base, int which)
{
    SystemConfig s = base;
    int seen = 0;
    for (int e = 0; e < s.topo.edgeCount(); ++e) {
        if (s.topo.link(e).kind != net::LinkKind::NvLink)
            continue;
        if (seen++ == which) {
            s.topo.setLinkDown(e, true);
            s.name += " [nvlink " + std::to_string(which) + " down]";
            s.validate();
            return s;
        }
    }
    sim::fatal("withNvlinkEdgeDown: '%s' has %d NVLink edges, wanted "
               "index %d",
               base.name.c_str(), seen, which);
}

SystemConfig
withPcieDowntrained(const SystemConfig &base, double scale)
{
    SystemConfig s = base;
    for (int e = 0; e < s.topo.edgeCount(); ++e) {
        if (s.topo.link(e).kind == net::LinkKind::Pcie3)
            s.topo.setLinkBandwidthScale(e, scale);
    }
    std::ostringstream suffix;
    suffix << " [pcie x" << scale << "]";
    s.name += suffix.str();
    s.validate();
    return s;
}

SystemConfig
withPod(const SystemConfig &base, int racks, int nodes_per_rack,
        int spines)
{
    net::PodShape shape;
    shape.racks = racks;
    shape.nodes_per_rack = nodes_per_rack;
    shape.spines = spines;

    // Stamp the box's intra-node graph verbatim as each host's leaf,
    // with "r<rack>n<node>." name prefixes.
    net::LeafBuilder leaf = [&base](net::Topology &topo,
                                    const std::string &prefix) {
        std::vector<net::NodeId> map(base.topo.nodeCount(), -1);
        for (net::NodeId n = 0; n < base.topo.nodeCount(); ++n) {
            std::string name = prefix + base.topo.name(n);
            switch (base.topo.kind(n)) {
              case net::NodeKind::Cpu:
                map[n] = topo.addCpu(name);
                break;
              case net::NodeKind::Gpu:
                map[n] = topo.addGpu(name);
                break;
              case net::NodeKind::PcieSwitch:
                map[n] = topo.addSwitch(name);
                break;
              default:
                sim::fatal("withPod: base system '%s' already "
                           "contains fabric node '%s'; pods compose "
                           "single boxes, not other pods",
                           base.name.c_str(),
                           base.topo.name(n).c_str());
            }
        }
        for (int e = 0; e < base.topo.edgeCount(); ++e) {
            auto [a, b] = base.topo.endpoints(e);
            topo.connect(map[a], map[b], base.topo.link(e));
        }
        auto mapped = [&map](const std::vector<net::NodeId> &ids) {
            std::vector<net::NodeId> out(ids.size());
            std::transform(ids.begin(), ids.end(), out.begin(),
                           [&map](net::NodeId n) { return map[n]; });
            return out;
        };
        return net::LeafNodes{mapped(base.cpu_nodes),
                              mapped(base.gpu_nodes),
                              mapped(base.switch_nodes)};
    };
    net::PodTopology pod = net::buildPodTopology(shape, leaf);

    SystemConfig s;
    std::ostringstream name;
    name << base.name << " pod " << racks << "x" << nodes_per_rack;
    s.name = name.str();
    s.cpu = base.cpu;
    s.num_cpus = base.num_cpus * racks * nodes_per_rack;
    s.gpu = base.gpu;
    s.num_gpus = base.num_gpus * racks * nodes_per_rack;
    s.topo = std::move(pod.topo);
    for (const net::PodHost &host : pod.hosts) {
        s.cpu_nodes.insert(s.cpu_nodes.end(), host.cpus.begin(),
                           host.cpus.end());
        s.gpu_nodes.insert(s.gpu_nodes.end(), host.gpus.begin(),
                           host.gpus.end());
        s.switch_nodes.insert(s.switch_nodes.end(),
                              host.switches.begin(),
                              host.switches.end());
    }
    s.validate();
    return s;
}

SystemConfig
withSpineDegraded(const SystemConfig &base, double scale)
{
    SystemConfig s = base;
    int touched = 0;
    for (int e = 0; e < s.topo.edgeCount(); ++e) {
        if (s.topo.link(e).tier == net::FabricTier::CrossRack) {
            s.topo.setLinkBandwidthScale(e, scale);
            ++touched;
        }
    }
    if (touched == 0)
        sim::fatal("withSpineDegraded: '%s' has no cross-rack links "
                   "(single-rack pod or plain box)",
                   base.name.c_str());
    std::ostringstream suffix;
    suffix << " [spine x" << scale << "]";
    s.name += suffix.str();
    s.validate();
    return s;
}

SystemConfig
withTorDegraded(const SystemConfig &base, int rack, double scale)
{
    SystemConfig s = base;
    std::string tor_name = "tor" + std::to_string(rack);
    net::NodeId tor = -1;
    for (net::NodeId n = 0; n < s.topo.nodeCount(); ++n) {
        if (s.topo.kind(n) == net::NodeKind::TorSwitch &&
            s.topo.name(n) == tor_name) {
            tor = n;
            break;
        }
    }
    if (tor < 0)
        sim::fatal("withTorDegraded: '%s' has no ToR switch '%s'",
                   base.name.c_str(), tor_name.c_str());
    int touched = 0;
    for (int e = 0; e < s.topo.edgeCount(); ++e) {
        auto [a, b] = s.topo.endpoints(e);
        if ((a == tor || b == tor) &&
            s.topo.link(e).tier == net::FabricTier::CrossRack) {
            s.topo.setLinkBandwidthScale(e, scale);
            ++touched;
        }
    }
    if (touched == 0)
        sim::fatal("withTorDegraded: ToR '%s' of '%s' has no "
                   "cross-rack uplinks (single-rack pod)",
                   tor_name.c_str(), base.name.c_str());
    std::ostringstream suffix;
    suffix << " [tor" << rack << " x" << scale << "]";
    s.name += suffix.str();
    s.validate();
    return s;
}

namespace {

/** machineCatalogue(); the reference machine also answers to its
 *  built name. */
constexpr Machine kMachines[] = {
    {"T640", "", t640},
    {"C4140 (B)", "", c4140B},
    {"C4140 (K)", "", c4140K},
    {"C4140 (M)", "", c4140M},
    {"R940xa", "", r940xa},
    {"DSS 8440", "", dss8440},
    {"MLPerf reference (P100)", "reference", mlperfReference},
};

/** Build the machine 'name' calls, and nothing else. */
bool
boxByName(std::string_view name, SystemConfig *out)
{
    for (const Machine &m : kMachines) {
        if (name == m.name || name == m.offered()) {
            *out = m.build();
            return true;
        }
    }
    return false;
}

/** Names offered in did-you-mean suggestions. */
std::vector<std::string>
knownSystemNames()
{
    std::vector<std::string> names;
    for (const Machine &m : kMachines)
        names.emplace_back(m.offered());
    return names;
}

} // namespace

std::span<const Machine>
machineCatalogue()
{
    return kMachines;
}

std::vector<SystemConfig>
allMachines()
{
    // Every entry but the last, the reference machine.
    std::vector<SystemConfig> boxes;
    for (const Machine &m :
         std::span(kMachines).first(std::size(kMachines) - 1))
        boxes.push_back(m.build());
    return boxes;
}

bool
systemFromSpec(const std::string &spec, SystemConfig *out,
               std::string *error)
{
    if (spec.rfind("pod(", 0) == 0 && spec.back() == ')') {
        std::string inner = spec.substr(4, spec.size() - 5);
        std::vector<std::string> parts;
        std::istringstream in(inner);
        std::string part;
        while (std::getline(in, part, ','))
            parts.push_back(part);
        if (parts.size() < 2) {
            *error = "pod spec '" + spec +
                     "' needs pod(<box>,<racks>x<nodes>[,spines=S])";
            return false;
        }

        SystemConfig base;
        if (!boxByName(parts[0], &base)) {
            *error = "unknown pod box '" + parts[0] + "'" +
                     sim::didYouMean(parts[0], knownSystemNames());
            return false;
        }

        std::size_t x = parts[1].find('x');
        char *end = nullptr;
        long racks = 0;
        long nodes = 0;
        if (x != std::string::npos) {
            racks = std::strtol(parts[1].c_str(), &end, 10);
            bool racks_ok =
                end == parts[1].c_str() + x && racks > 0;
            nodes = std::strtol(parts[1].c_str() + x + 1, &end, 10);
            bool nodes_ok = end == parts[1].c_str() + parts[1].size() &&
                            *end == '\0' && nodes > 0;
            if (!racks_ok || !nodes_ok)
                x = std::string::npos;
        }
        if (x == std::string::npos) {
            *error = "pod shape '" + parts[1] +
                     "' is not <racks>x<nodes> (e.g. 4x4)";
            return false;
        }

        long spines = racks > 1 ? 2 : 0;
        for (std::size_t i = 2; i < parts.size(); ++i) {
            const std::string &opt = parts[i];
            if (opt.rfind("spines=", 0) == 0) {
                spines = std::strtol(opt.c_str() + 7, &end, 10);
                if (end == opt.c_str() + 7 || *end != '\0' ||
                    spines <= 0) {
                    *error = "pod option '" + opt +
                             "' needs a positive spine count";
                    return false;
                }
            } else {
                std::string key = opt.substr(0, opt.find('='));
                *error = "unknown pod option '" + opt + "'" +
                         sim::didYouMean(key, {"spines"});
                return false;
            }
        }

        *out = withPod(base, static_cast<int>(racks),
                       static_cast<int>(nodes),
                       static_cast<int>(spines));
        return true;
    }

    if (boxByName(spec, out))
        return true;
    *error = "unknown system '" + spec + "'" +
             sim::didYouMean(spec, knownSystemNames()) +
             "; or use pod(<box>,<racks>x<nodes>[,spines=S])";
    return false;
}

} // namespace mlps::sys
