#include "exec/fingerprint.h"

#include <cstring>

namespace mlps::exec {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** Second-lane offset: FNV offset mixed with a golden-ratio salt. */
constexpr std::uint64_t kLane2Offset =
    kFnvOffset ^ 0x9e3779b97f4a7c15ULL;

} // namespace

HashStream::HashStream() : hi_(kLane2Offset), lo_(kFnvOffset) {}

void
HashStream::mixBytes(const void *data, std::size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        lo_ = (lo_ ^ p[i]) * kFnvPrime;
        // Lane 2 sees the byte offset too, so permuted inputs of equal
        // multiset diverge even harder.
        hi_ = (hi_ ^ (p[i] + 0x9d)) * kFnvPrime;
        hi_ ^= hi_ >> 29;
    }
}

void
HashStream::mixU64(std::uint64_t v)
{
    unsigned char bytes[8];
    std::memcpy(bytes, &v, sizeof(bytes));
    mixBytes(bytes, sizeof(bytes));
}

void
HashStream::mixInt(long long v)
{
    mixU64(static_cast<std::uint64_t>(v));
}

void
HashStream::mixBool(bool v)
{
    mixU64(v ? 1 : 0);
}

void
HashStream::mixDouble(double v)
{
    if (v == 0.0)
        v = 0.0; // merge -0.0 with +0.0
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mixU64(bits);
}

void
HashStream::mixString(const std::string &s)
{
    mixU64(s.size());
    mixBytes(s.data(), s.size());
}

void
HashStream::mix(const Fingerprint &f)
{
    mixU64(f.hi);
    mixU64(f.lo);
}

namespace {

void
mixInto(HashStream &h, const hw::DramSpec &d)
{
    h.mixInt(d.dimms);
    h.mixDouble(d.dimm_gib);
    h.mixInt(d.channels);
    h.mixDouble(d.channel_gbps);
}

void
mixInto(HashStream &h, const hw::CpuSpec &c)
{
    h.mixString(c.name);
    h.mixInt(c.cores);
    h.mixDouble(c.base_ghz);
    h.mixInt(c.pcie_lanes);
    h.mixDouble(c.idle_watts);
    h.mixDouble(c.tdp_watts);
    mixInto(h, c.dram);
}

void
mixInto(HashStream &h, const hw::GpuSpec &g)
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

void
mixInto(HashStream &h, const net::LinkSpec &l)
{
    h.mixInt(static_cast<int>(l.kind));
    h.mixInt(static_cast<int>(l.tier));
    h.mixDouble(l.gbps);
    h.mixDouble(l.latency_us);
    h.mixDouble(l.efficiency);
}

net::Topology::Digest
topologyPass(const net::Topology::Digest &in, const net::Topology &t,
             net::Topology::NodeLists lists)
{
    HashStream h(Fingerprint{in[0], in[1]});
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
        // Dynamic link state changes every modeled transfer, so a
        // degraded topology must never alias the healthy cache entry.
        h.mixInt(t.linkDown(e) ? 1 : 0);
        h.mixDouble(t.linkBandwidthScale(e));
    }
    for (const std::vector<net::NodeId> *list : lists) {
        h.mixU64(list->size());
        for (net::NodeId n : *list)
            h.mixInt(n);
    }
    const Fingerprint out = h.digest();
    return {out.hi, out.lo};
}

void
mixInto(HashStream &h, const wl::Op &op)
{
    h.mixString(op.name);
    h.mixInt(static_cast<int>(op.kind));
    h.mixDouble(op.flops);
    h.mixDouble(op.bytes);
    h.mixDouble(op.param_bytes);
    h.mixDouble(op.activation_bytes);
}

wl::OpGraph::Digest
graphPass(const wl::OpGraph::Digest &in, const wl::OpGraph &g)
{
    HashStream h(Fingerprint{in[0], in[1]});
    h.mixString(g.name());
    h.mixU64(g.size());
    for (const wl::Op &op : g.ops())
        mixInto(h, op);
    const Fingerprint out = h.digest();
    return {out.hi, out.lo};
}

void
mixInto(HashStream &h, const wl::OpGraph &g)
{
    const Fingerprint in = h.digest();
    const wl::OpGraph::Digest out =
        g.memoizedDigest(graphPass, {in.hi, in.lo});
    h = HashStream(Fingerprint{out[0], out[1]});
}

void
mixInto(HashStream &h, const wl::DatasetSpec &d)
{
    h.mixString(d.name);
    h.mixDouble(d.num_samples);
    h.mixDouble(d.raw_bytes_per_sample);
    h.mixDouble(d.input_bytes_per_sample);
}

void
mixInto(HashStream &h, const wl::ConvergenceModel &c)
{
    h.mixString(c.quality_target);
    h.mixDouble(c.base_epochs);
    h.mixDouble(c.reference_global_batch);
    h.mixDouble(c.penalty_exponent);
    h.mixDouble(c.global_batch_cap);
    h.mixDouble(c.eval_overhead);
}

void
mixInto(HashStream &h, const wl::HostPipelineSpec &p)
{
    h.mixDouble(p.cpu_core_us_per_sample);
    h.mixDouble(p.serial_cpu_us_per_sample);
    h.mixDouble(p.framework_dram_bytes);
    h.mixDouble(p.per_gpu_dram_bytes);
    h.mixDouble(p.dataset_residency);
    h.mixDouble(p.os_baseline_cpu_pct);
}

} // namespace

Fingerprint
fingerprintOf(const sys::SystemConfig &system)
{
    HashStream h;
    h.mixString(system.name);
    h.mixInt(system.num_cpus);
    h.mixInt(system.num_gpus);
    mixInto(h, system.cpu);
    mixInto(h, system.gpu);
    // The topology and the node-id lists after it (~900 ids on a pod)
    // are hashed once per graph and link state.
    const std::vector<net::NodeId> *lists[] = {
        &system.cpu_nodes, &system.gpu_nodes, &system.switch_nodes};
    const Fingerprint in = h.digest();
    const net::Topology::Digest out =
        system.topo.memoizedDigest(topologyPass, {in.hi, in.lo}, lists);
    return Fingerprint{out[0], out[1]};
}

Fingerprint
fingerprintOf(const wl::WorkloadSpec &workload)
{
    HashStream h;
    h.mixString(workload.abbrev);
    h.mixString(workload.domain);
    h.mixString(workload.model_name);
    h.mixString(workload.framework);
    h.mixString(workload.submitter);
    h.mixInt(static_cast<int>(workload.suite));
    h.mixInt(static_cast<int>(workload.mode));

    mixInto(h, workload.graph);
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

Fingerprint
fingerprintOf(const train::RunOptions &options)
{
    HashStream h;
    h.mixInt(options.num_gpus);
    h.mixInt(static_cast<int>(options.precision));
    h.mixBool(options.reference_code);
    h.mixBool(options.grad_accumulation);
    return h.digest();
}

} // namespace mlps::exec
