/**
 * @file
 * The unmemoized machine and workload fingerprints, kept as the
 * references that exec::fingerprintOf must equal bit for bit. The
 * machine's topology pass mixes every node name, every edge's link
 * spec and link state and every CPU/GPU/switch node id on every call,
 * and the workload's graph pass mixes every op; the library memoizes
 * both passes on the structure copies share (the topology graph and
 * the op-graph block).
 */

#ifndef MLPSIM_TESTS_FINGERPRINT_REFERENCE_H
#define MLPSIM_TESTS_FINGERPRINT_REFERENCE_H

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/fingerprint.h"
#include "exec/supervisor.h"
#include "sim/rng.h"
#include "sys/system_config.h"
#include "wl/workload.h"

namespace mlps::reference {

inline void
mixInto(exec::HashStream &h, const hw::DramSpec &d)
{
    h.mixInt(d.dimms);
    h.mixDouble(d.dimm_gib);
    h.mixInt(d.channels);
    h.mixDouble(d.channel_gbps);
}

inline void
mixInto(exec::HashStream &h, const hw::CpuSpec &c)
{
    h.mixString(c.name);
    h.mixInt(c.cores);
    h.mixDouble(c.base_ghz);
    h.mixInt(c.pcie_lanes);
    h.mixDouble(c.idle_watts);
    h.mixDouble(c.tdp_watts);
    mixInto(h, c.dram);
}

inline void
mixInto(exec::HashStream &h, const hw::GpuSpec &g)
{
    h.mixString(g.name);
    h.mixDouble(g.fp64_tflops);
    h.mixDouble(g.fp32_tflops);
    h.mixDouble(g.fp16_tflops);
    h.mixDouble(g.tensor_tflops);
    h.mixDouble(g.hbm_gbps);
    h.mixDouble(g.hbm_gib);
    h.mixInt(static_cast<int>(g.form));
    h.mixInt(g.nvlink_lanes);
    h.mixDouble(g.nvlink_lane_gbps);
    h.mixDouble(g.launch_overhead_us);
    h.mixDouble(g.idle_watts);
    h.mixDouble(g.tdp_watts);
}

inline void
mixInto(exec::HashStream &h, const net::LinkSpec &l)
{
    h.mixInt(static_cast<int>(l.kind));
    h.mixInt(static_cast<int>(l.tier));
    h.mixDouble(l.gbps);
    h.mixDouble(l.latency_us);
    h.mixDouble(l.efficiency);
}

inline void
mixInto(exec::HashStream &h, const net::Topology &t)
{
    h.mixInt(t.nodeCount());
    for (net::NodeId n = 0; n < t.nodeCount(); ++n) {
        h.mixInt(static_cast<int>(t.kind(n)));
        h.mixString(t.name(n));
    }
    h.mixInt(t.edgeCount());
    for (int e = 0; e < t.edgeCount(); ++e) {
        auto [a, b] = t.endpoints(e);
        h.mixInt(a);
        h.mixInt(b);
        mixInto(h, t.link(e));
        h.mixInt(t.linkDown(e) ? 1 : 0);
        h.mixDouble(t.linkBandwidthScale(e));
    }
}

/** exec::fingerprintOf(system) without the topology memo. */
inline exec::Fingerprint
fingerprintOf(const sys::SystemConfig &system)
{
    exec::HashStream h;
    h.mixString(system.name);
    h.mixInt(system.num_cpus);
    h.mixInt(system.num_gpus);
    mixInto(h, system.cpu);
    mixInto(h, system.gpu);
    mixInto(h, system.topo);
    h.mixU64(system.cpu_nodes.size());
    for (net::NodeId n : system.cpu_nodes)
        h.mixInt(n);
    h.mixU64(system.gpu_nodes.size());
    for (net::NodeId n : system.gpu_nodes)
        h.mixInt(n);
    h.mixU64(system.switch_nodes.size());
    for (net::NodeId n : system.switch_nodes)
        h.mixInt(n);
    return h.digest();
}

inline void
mixInto(exec::HashStream &h, const wl::Op &op)
{
    h.mixString(op.name);
    h.mixInt(static_cast<int>(op.kind));
    h.mixDouble(op.flops);
    h.mixDouble(op.bytes);
    h.mixDouble(op.param_bytes);
    h.mixDouble(op.activation_bytes);
}

inline void
mixInto(exec::HashStream &h, const wl::DatasetSpec &d)
{
    h.mixString(d.name);
    h.mixDouble(d.num_samples);
    h.mixDouble(d.raw_bytes_per_sample);
    h.mixDouble(d.input_bytes_per_sample);
}

inline void
mixInto(exec::HashStream &h, const wl::ConvergenceModel &c)
{
    h.mixString(c.quality_target);
    h.mixDouble(c.base_epochs);
    h.mixDouble(c.reference_global_batch);
    h.mixDouble(c.penalty_exponent);
    h.mixDouble(c.global_batch_cap);
    h.mixDouble(c.eval_overhead);
}

inline void
mixInto(exec::HashStream &h, const wl::HostPipelineSpec &p)
{
    h.mixDouble(p.cpu_core_us_per_sample);
    h.mixDouble(p.serial_cpu_us_per_sample);
    h.mixDouble(p.framework_dram_bytes);
    h.mixDouble(p.per_gpu_dram_bytes);
    h.mixDouble(p.dataset_residency);
    h.mixDouble(p.os_baseline_cpu_pct);
}

/** exec::fingerprintOf(workload) without the graph memo. */
inline exec::Fingerprint
fingerprintOf(const wl::WorkloadSpec &workload)
{
    exec::HashStream h;
    h.mixString(workload.abbrev);
    h.mixString(workload.domain);
    h.mixString(workload.model_name);
    h.mixString(workload.framework);
    h.mixString(workload.submitter);
    h.mixInt(static_cast<int>(workload.suite));
    h.mixInt(static_cast<int>(workload.mode));

    h.mixString(workload.graph.name());
    h.mixU64(workload.graph.size());
    for (const wl::Op &op : workload.graph.ops())
        mixInto(h, op);
    mixInto(h, workload.dataset);
    mixInto(h, workload.convergence);
    mixInto(h, workload.host);

    h.mixDouble(workload.per_gpu_batch);
    h.mixDouble(workload.comm_overlap);
    h.mixDouble(workload.sync_penalty_base);
    h.mixDouble(workload.sync_penalty_log);
    h.mixDouble(workload.tc_efficiency);
    h.mixBool(workload.fp32_gradients);
    h.mixDouble(workload.staged_overlap_retention);
    h.mixDouble(workload.staged_iteration_penalty);
    h.mixDouble(workload.iteration_overhead_us);
    h.mixDouble(workload.reference_code_derate);
    h.mixDouble(workload.kernel_iterations);
    h.mixDouble(workload.collective_bytes);
    h.mixDouble(workload.collective_iterations);
    return h.digest();
}

/**
 * Seeded walk of link-state changes over copies of one machine (they
 * share its graph): each step takes a link of one copy down or up,
 * rescales it, heals the copy or overwrites it with another copy, then
 * requires exec::fingerprintOf == the reference for that copy and for
 * a random other, twice (the second call is a memo hit). A few hot
 * edges and scales make link states recur; more copies than the memo
 * holds entries make it evict.
 */
inline void
expectMemoMatchesReferenceOnWalk(std::vector<sys::SystemConfig> copies,
                                 std::uint64_t seed, int steps)
{
    sim::Rng rng(seed);
    const int edges = copies.front().topo.edgeCount();
    std::vector<int> hot;
    for (int i = 0; i < 6; ++i)
        hot.push_back(static_cast<int>(rng.below(edges)));
    const double scales[] = {0.25, 0.5, 1.0};
    for (int step = 0; step < steps; ++step) {
        sys::SystemConfig &s = copies[rng.below(copies.size())];
        const int e = rng.chance(0.8)
                          ? hot[rng.below(hot.size())]
                          : static_cast<int>(rng.below(edges));
        switch (rng.below(8)) {
          case 0:
            s.topo.resetLinkState();
            break;
          case 1:
            s = copies[rng.below(copies.size())];
            break;
          case 2:
          case 3:
            s.topo.setLinkDown(e, !s.topo.linkDown(e));
            break;
          default:
            s.topo.setLinkBandwidthScale(e, scales[rng.below(3)]);
            break;
        }
        for (const sys::SystemConfig *c :
             {&s, &copies[rng.below(copies.size())]}) {
            const std::string want = exec::toHex(fingerprintOf(*c));
            ASSERT_EQ(exec::toHex(exec::fingerprintOf(*c)), want)
                << "step " << step;
            ASSERT_EQ(exec::toHex(exec::fingerprintOf(*c)), want)
                << "step " << step << " (repeat)";
        }
    }
}

} // namespace mlps::reference

#endif // MLPSIM_TESTS_FINGERPRINT_REFERENCE_H
