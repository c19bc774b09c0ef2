/**
 * @file
 * Closed-form network oracles the flow-level model is checked
 * against. Production prices every transfer with net::FlowSimulator
 * and the all-reduce models; these estimates only cross-check them on
 * contention-free cases, so they live with the tests.
 */

#ifndef MLPSIM_TESTS_NET_REFERENCE_H
#define MLPSIM_TESTS_NET_REFERENCE_H

#include <algorithm>
#include <limits>
#include <vector>

#include "net/allreduce.h"
#include "net/topology.h"
#include "net/transfer.h"
#include "sim/logger.h"

namespace mlps::reference {

/**
 * Time to move 'bytes' alone over the route between two nodes
 * (bandwidth bottleneck plus per-hop latency); +inf when disconnected.
 */
inline double
soloTransferSeconds(const net::Topology &topo, net::NodeId from,
                    net::NodeId to, double bytes)
{
    if (from == to)
        return 0.0;
    auto path = topo.route(from, to);
    if (!path)
        return std::numeric_limits<double>::infinity();
    double bw = topo.pathBandwidth(*path);
    double lat = topo.pathLatency(*path);
    if (bw <= 0.0)
        return std::numeric_limits<double>::infinity();
    return lat + bytes / bw;
}

/**
 * Closed-form ring all-reduce: 2*(N-1)/N * bytes / ring_bw plus step
 * latencies, at the bottleneck neighbour-hop bandwidth. Agrees with
 * the flow-level model on contention-free rings.
 */
inline double
analyticRingSeconds(const net::Topology &topo,
                    const std::vector<net::NodeId> &gpus, double bytes,
                    const net::AllReduceParams &params = {})
{
    int n = static_cast<int>(gpus.size());
    if (n <= 1 || bytes <= 0.0)
        return 0.0;
    double bw = std::numeric_limits<double>::infinity();
    double lat = 0.0;
    for (int i = 0; i < n; ++i) {
        auto path = topo.route(gpus[i], gpus[(i + 1) % n]);
        if (!path)
            sim::fatal("analyticRingSeconds: ring hop disconnected");
        bw = std::min(bw, topo.pathBandwidth(*path));
        lat = std::max(lat, topo.pathLatency(*path));
    }
    int steps = 2 * (n - 1);
    double chunk = bytes / n;
    return steps * (chunk / bw + lat + params.step_overhead_us * 1e-6);
}

/** One edge that carried bytes in a finished flow simulation. */
struct LinkTraffic {
    int edge = -1;
    net::LinkKind kind = net::LinkKind::Pcie3;
    double bytes = 0.0;
};

/** The edges of `fsim` (after run()) that carried bytes, by edge id. */
inline std::vector<LinkTraffic>
linkTraffic(const net::FlowSimulator &fsim, const net::Topology &topo)
{
    std::vector<LinkTraffic> out;
    for (int e = 0; e < topo.edgeCount(); ++e)
        if (fsim.edgeBytes()[e] > 0.0)
            out.push_back({e, topo.link(e).kind, fsim.edgeBytes()[e]});
    return out;
}

} // namespace mlps::reference

#endif // MLPSIM_TESTS_NET_REFERENCE_H
