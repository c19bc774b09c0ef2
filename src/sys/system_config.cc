#include "sys/system_config.h"

#include <cstdlib>
#include <sstream>

#include "sim/logger.h"
#include "sim/strings.h"

namespace mlps::sys {

double
SystemConfig::dramCapacityGib() const
{
    return num_cpus * cpu.dram.capacityGib();
}

double
SystemConfig::dramBandwidthGbps() const
{
    return num_cpus * cpu.dram.bandwidthGbps();
}

double
SystemConfig::hostCoreGhz() const
{
    return num_cpus * cpu.coreGhzTotal();
}

double
SystemConfig::hbmCapacityGib() const
{
    return num_gpus * gpu.hbm_gib;
}

std::vector<net::NodeId>
SystemConfig::gpuSubset(int n) const
{
    if (n < 1 || n > num_gpus)
        sim::fatal("SystemConfig '%s': GPU count %d out of range [1,%d]",
                   name.c_str(), n, num_gpus);
    return {gpu_nodes.begin(), gpu_nodes.begin() + n};
}

net::CollectiveFabric
SystemConfig::fabricFor(int n) const
{
    return topo.collectiveFabric(gpuSubset(n));
}

std::string
SystemConfig::describe() const
{
    std::ostringstream os;
    os << name << "\n"
       << "  CPUs: " << num_cpus << " x " << cpu.name << " ("
       << cpu.cores << " cores @ " << cpu.base_ghz << " GHz)\n"
       << "  DRAM: " << dramCapacityGib() << " GiB, "
       << dramBandwidthGbps() << " GB/s aggregate\n"
       << "  GPUs: " << num_gpus << " x " << gpu.name << " ("
       << gpu.hbm_gib << " GiB HBM2 @ " << gpu.hbm_gbps << " GB/s)\n"
       << "  Links:\n";
    std::istringstream links(topo.describe());
    std::string line;
    while (std::getline(links, line))
        os << "    " << line << "\n";
    return os.str();
}

void
SystemConfig::validate() const
{
    if (name.empty())
        sim::fatal("SystemConfig: empty machine name");
    if (num_cpus <= 0)
        sim::fatal("SystemConfig '%s': non-positive CPU count %d",
                   name.c_str(), num_cpus);
    if (num_gpus <= 0)
        sim::fatal("SystemConfig '%s': non-positive GPU count %d "
                   "(a machine needs at least one accelerator)",
                   name.c_str(), num_gpus);
    if (gpu.hbm_gib <= 0.0 || gpu.hbm_gbps <= 0.0)
        sim::fatal("SystemConfig '%s': GPU '%s' has non-positive HBM "
                   "capacity (%g GiB) or bandwidth (%g GB/s)",
                   name.c_str(), gpu.name.c_str(), gpu.hbm_gib,
                   gpu.hbm_gbps);
    if (cpu.cores <= 0 || cpu.base_ghz <= 0.0)
        sim::fatal("SystemConfig '%s': CPU '%s' has non-positive "
                   "cores (%d) or clock (%g GHz)",
                   name.c_str(), cpu.name.c_str(), cpu.cores,
                   cpu.base_ghz);
    if (static_cast<int>(cpu_nodes.size()) != num_cpus)
        sim::fatal("SystemConfig '%s': cpu_nodes size %zu != num_cpus %d",
                   name.c_str(), cpu_nodes.size(), num_cpus);
    if (static_cast<int>(gpu_nodes.size()) != num_gpus)
        sim::fatal("SystemConfig '%s': gpu_nodes size %zu != num_gpus %d",
                   name.c_str(), gpu_nodes.size(), num_gpus);
    for (net::NodeId n : cpu_nodes) {
        if (topo.kind(n) != net::NodeKind::Cpu)
            sim::fatal("SystemConfig '%s': node %d not a CPU",
                       name.c_str(), n);
    }
    for (net::NodeId n : gpu_nodes) {
        if (topo.kind(n) != net::NodeKind::Gpu)
            sim::fatal("SystemConfig '%s': node %d not a GPU",
                       name.c_str(), n);
    }
    // Structural graph invariants: dangling endpoints, non-positive
    // bandwidths, disconnection over up links. A connected graph with
    // at least one CPU node gives every GPU a host CPU (for H2D
    // staging), and a stranded GPU fails here by its node's name.
    topo.validate();
}

namespace {

/** Edges whose link kind matches a type token, or empty. */
std::vector<int>
edgesOfKindToken(const net::Topology &topo, const std::string &token)
{
    net::LinkKind kind;
    if (token == "nvlink")
        kind = net::LinkKind::NvLink;
    else if (token == "pcie")
        kind = net::LinkKind::Pcie3;
    else if (token == "upi")
        kind = net::LinkKind::Upi;
    else if (token == "eth")
        kind = net::LinkKind::Eth;
    else
        return {};
    std::vector<int> out;
    for (int e = 0; e < topo.edgeCount(); ++e) {
        if (topo.link(e).kind == kind)
            out.push_back(e);
    }
    return out;
}

/** Node id by exact name, or -1. */
net::NodeId
nodeByName(const net::Topology &topo, const std::string &name)
{
    for (net::NodeId n = 0; n < topo.nodeCount(); ++n) {
        if (topo.name(n) == name)
            return n;
    }
    return -1;
}

/** All valid target names: node names plus link-type tokens. */
std::vector<std::string>
targetNames(const net::Topology &topo)
{
    std::vector<std::string> names = {"nvlink", "pcie", "upi", "eth"};
    for (net::NodeId n = 0; n < topo.nodeCount(); ++n)
        names.push_back(topo.name(n));
    return names;
}

} // namespace

void
applyDegradedLinks(SystemConfig &system, const std::string &spec)
{
    net::Topology &topo = system.topo;
    std::istringstream items(spec);
    std::string item;
    while (std::getline(items, item, ',')) {
        if (item.empty())
            continue;
        std::size_t colon = item.rfind(':');
        if (colon == std::string::npos || colon + 1 == item.size())
            sim::fatal("--degraded-links: item '%s' is not "
                       "<target>:<down|fraction>",
                       item.c_str());
        std::string target = item.substr(0, colon);
        std::string state = item.substr(colon + 1);

        // Resolve the target to an edge set.
        std::vector<int> edges = edgesOfKindToken(topo, target);
        if (edges.empty()) {
            std::size_t dash = target.find('-');
            if (dash == std::string::npos) {
                sim::fatal("--degraded-links: unknown link type '%s'%s",
                           target.c_str(),
                           sim::didYouMean(target, {"nvlink", "pcie",
                                                    "upi", "eth"})
                               .c_str());
            }
            std::string na = target.substr(0, dash);
            std::string nb = target.substr(dash + 1);
            net::NodeId a = nodeByName(topo, na);
            net::NodeId b = nodeByName(topo, nb);
            if (a < 0)
                sim::fatal("--degraded-links: unknown node '%s'%s",
                           na.c_str(),
                           sim::didYouMean(na, targetNames(topo))
                               .c_str());
            if (b < 0)
                sim::fatal("--degraded-links: unknown node '%s'%s",
                           nb.c_str(),
                           sim::didYouMean(nb, targetNames(topo))
                               .c_str());
            for (int e = 0; e < topo.edgeCount(); ++e) {
                auto [x, y] = topo.endpoints(e);
                if ((x == a && y == b) || (x == b && y == a))
                    edges.push_back(e);
            }
            if (edges.empty())
                sim::fatal("--degraded-links: no link joins '%s' and "
                           "'%s' in system '%s'",
                           na.c_str(), nb.c_str(),
                           system.name.c_str());
        }

        // Apply the state.
        if (state == "down") {
            for (int e : edges)
                topo.setLinkDown(e, true);
        } else {
            char *end = nullptr;
            double scale = std::strtod(state.c_str(), &end);
            if (end == state.c_str() || *end != '\0')
                sim::fatal("--degraded-links: state '%s' is neither "
                           "'down' nor a number",
                           state.c_str());
            if (scale <= 0.0 || scale > 1.0)
                sim::fatal("--degraded-links: bandwidth fraction %g "
                           "out of (0, 1] (use 'down' for a dead link)",
                           scale);
            for (int e : edges)
                topo.setLinkBandwidthScale(e, scale);
        }
    }
    // A spec that strands a node is a config error, not a crash deep
    // inside the flow simulator.
    system.validate();
}

} // namespace mlps::sys
