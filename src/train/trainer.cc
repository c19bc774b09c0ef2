#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "hw/kernel_timing.h"
#include "net/allreduce.h"
#include "net/transfer.h"
#include "sim/logger.h"

namespace mlps::train {

namespace {

/** Fraction of host cores the data-loader worker pool can use. */
constexpr double kHostPoolEfficiency = 0.88;

/** Per-GPU driver/runtime busy-polling cost, cores. */
constexpr double kDriverCoresPerGpu = 0.35;

/** cuDNN workspace + CUDA context per replica, bytes. */
constexpr double kGpuRuntimeReserveBytes = 1.3e9;

/** Caching-allocator slack on top of live activations. */
constexpr double kAllocatorSlack = 1.45;

/** Fraction of forward activations retained for the backward pass. */
constexpr double kActivationRetention = 1.0;

PrecisionPolicy
policyFor(hw::Precision p)
{
    PrecisionPolicy pol;
    pol.precision = p;
    return pol;
}

} // namespace

double
overlapFabricFactor(net::CollectiveFabric fabric,
                    const wl::WorkloadSpec &spec)
{
    switch (fabric) {
      case net::CollectiveFabric::NvLink: return 1.0;
      case net::CollectiveFabric::PcieP2p: return 0.8;
      case net::CollectiveFabric::HostStaged:
        return spec.staged_overlap_retention;
    }
    return 1.0;
}

double
gradientBytes(const wl::WorkloadSpec &spec, hw::Precision precision)
{
    double params = spec.graph.totals().param_bytes / 4.0;
    if (spec.fp32_gradients)
        return params * 4.0;
    return params * policyFor(precision).gradientBytesPerParam();
}

net::AllReduceResult
gradientAllReduce(const sys::SystemConfig &system,
                  const wl::WorkloadSpec &spec, hw::Precision precision,
                  int num_gpus)
{
    net::AllReduceParams ar_params;
    ar_params.buckets = spec.gradientBuckets();
    // Shape-aware: exact flat ring on single boxes, hierarchical
    // (2D ring / cross-rack tree) on pod topologies.
    return net::autoHierarchicalAllReduce(
        system.topo, system.gpuSubset(num_gpus),
        gradientBytes(spec, precision), ar_params);
}

Trainer::Trainer(const sys::SystemConfig &system) : system_(system)
{
    system_.validate();
}

double
Trainer::effectiveBatch(const wl::WorkloadSpec &spec, int num_gpus,
                        const PrecisionPolicy &policy) const
{
    double batch = spec.per_gpu_batch;

    // Global-batch cap (small datasets, Section IV-D): shrink the
    // per-GPU batch so the global batch stays at the cap.
    double cap = spec.convergence.global_batch_cap;
    if (cap > 0.0 && batch * num_gpus > cap)
        batch = cap / num_gpus;

    // HBM capacity: the submission batches target a 16 GiB V100; fit
    // the batch to the actual card by shrinking until it fits.
    double capacity = system_.gpu.hbmCapacityBytes() * 0.97;
    while (batch > 1.0 &&
           hbmFootprintBytes(spec, batch, policy) > capacity)
        batch = std::floor(batch * 0.8);
    return std::max(batch, 1.0);
}

void
Trainer::timeGraphPass(const wl::WorkloadSpec &spec, double batch,
                       hw::Precision precision, bool backward,
                       double derate, double &seconds_out,
                       double &flops_out, double &bytes_out,
                       int &kernels_out, prof::KernelProfiler *profiler,
                       std::uint64_t iterations) const
{
    seconds_out = 0.0;
    flops_out = 0.0;
    bytes_out = 0.0;
    kernels_out = 0;
    for (const wl::Op &op : spec.graph.ops()) {
        hw::KernelProfile k = backward ? op.backwardProfile(batch)
                                       : op.forwardProfile(batch);
        k.tensor_eff_scale *= spec.tc_efficiency;
        hw::KernelTiming t = hw::timeKernel(system_.gpu, k, precision);
        double secs = t.total() * derate;
        seconds_out += secs;
        flops_out += k.flops;
        bytes_out += k.bytes * hw::trafficScaleVsFp32(precision);
        ++kernels_out;
        if (profiler) {
            double measured_bytes = k.bytes *
                                    hw::trafficScaleVsFp32(precision) *
                                    wl::measuredTrafficExpansion(op);
            // Physical cap: a kernel cannot move more DRAM traffic
            // than bandwidth x duration; keeps profiled points on or
            // below the roofline.
            measured_bytes = std::min(
                measured_bytes, secs * system_.gpu.hbmBytesPerSec() *
                                    0.98);
            profiler->record(
                op.name, op.kind,
                backward ? prof::Pass::Backward : prof::Pass::Forward,
                iterations, secs * iterations, k.flops * iterations,
                measured_bytes * iterations);
        }
    }
}

double
Trainer::hbmFootprintBytes(const wl::WorkloadSpec &spec, double batch,
                           const PrecisionPolicy &policy) const
{
    wl::GraphTotals totals = spec.graph.totals();
    double params = totals.param_bytes / 4.0;
    double state = params * policy.stateBytesPerParam();
    double act_elems = totals.activation_bytes / 4.0;
    double activations = act_elems * batch *
                         policy.activationBytesPerElement() *
                         kActivationRetention * kAllocatorSlack;
    double inputs = batch * spec.dataset.input_bytes_per_sample * 2.0;
    return state + activations + inputs + kGpuRuntimeReserveBytes;
}

double
Trainer::dramFootprintBytes(const wl::WorkloadSpec &spec,
                            int num_gpus) const
{
    double staged = spec.dataset.totalBytes() * spec.host.dataset_residency;
    // The staging window grows with consumer count (deeper prefetch
    // queues per worker) but is bounded by the dataset itself.
    staged = std::min(staged * (1.0 + 0.45 * (num_gpus - 1)),
                      spec.dataset.totalBytes());
    double pinned = 2.0 * num_gpus * spec.per_gpu_batch *
                    spec.dataset.input_bytes_per_sample;
    return spec.host.framework_dram_bytes +
           num_gpus * spec.host.per_gpu_dram_bytes + staged + pinned;
}

double
Trainer::inputStagingSeconds(const wl::WorkloadSpec &spec, double batch,
                             int num_gpus) const
{
    double bytes = batch * spec.dataset.input_bytes_per_sample;
    if (bytes <= 0.0)
        return 0.0;
    // One flow per GPU from its host socket; shared switch uplinks
    // contend inside the flow simulator.
    net::FlowSimulator fsim(system_.topo);
    for (int g = 0; g < num_gpus; ++g) {
        net::NodeId gpu = system_.gpu_nodes[g];
        auto cpu = system_.topo.hostCpu(gpu);
        if (!cpu)
            sim::fatal("Trainer: GPU %d has no host CPU", g);
        fsim.addFlow(*cpu, gpu, bytes);
    }
    return fsim.run();
}

TrainResult
Trainer::run(const wl::WorkloadSpec &spec, const RunOptions &opts,
             prof::KernelProfiler *profiler) const
{
    spec.validate();
    if (opts.num_gpus < 1 || opts.num_gpus > system_.num_gpus)
        sim::fatal("Trainer: %d GPUs requested on '%s' (%d present)",
                   opts.num_gpus, system_.name.c_str(),
                   system_.num_gpus);
    switch (spec.mode) {
      case wl::RunMode::Training:
        return runTraining(spec, opts, profiler);
      case wl::RunMode::KernelLoop:
        return runKernelLoop(spec, opts, profiler);
      case wl::RunMode::CollectiveLoop:
        return runCollectiveLoop(spec, opts, profiler);
    }
    sim::panic("Trainer::run: bad RunMode");
}

TrainResult
Trainer::runTraining(const wl::WorkloadSpec &spec, const RunOptions &opts,
                     prof::KernelProfiler *profiler) const
{
    PrecisionPolicy policy = policyFor(opts.precision);
    int n = opts.num_gpus;
    double derate = opts.reference_code ? spec.reference_code_derate : 1.0;

    TrainResult res;
    res.workload = spec.abbrev;
    res.system = system_.name;
    res.num_gpus = n;
    res.precision = opts.precision;
    res.reference_code = opts.reference_code;

    double fitted = effectiveBatch(spec, n, policy);
    IterationBreakdown &it = res.iter;
    it.micro_batches = 1;
    if (opts.grad_accumulation) {
        // Accumulate micro-batches so the optimizer step still sees
        // the submission batch (capped by the convergence rule).
        double asked = spec.per_gpu_batch;
        double cap = spec.convergence.global_batch_cap;
        if (cap > 0.0 && asked * n > cap)
            asked = cap / n;
        if (asked > fitted) {
            it.micro_batches =
                static_cast<int>(std::ceil(asked / fitted));
        }
        res.per_gpu_batch = fitted * it.micro_batches;
    } else {
        res.per_gpu_batch = fitted;
    }
    res.global_batch =
        spec.convergence.usableGlobalBatch(res.per_gpu_batch, n);
    res.steps_per_epoch = spec.dataset.stepsPerEpoch(res.global_batch);
    res.epochs = spec.convergence.epochsAt(res.global_batch);

    std::uint64_t iterations = static_cast<std::uint64_t>(
        std::ceil(res.steps_per_epoch * res.epochs));

    // --- GPU kernels (per micro-batch, repeated micro_batches x) ---
    double fwd_flops = 0.0, fwd_bytes = 0.0;
    double bwd_flops = 0.0, bwd_bytes = 0.0;
    int fwd_kernels = 0, bwd_kernels = 0;
    std::uint64_t kernel_invocations =
        iterations * static_cast<std::uint64_t>(it.micro_batches);
    timeGraphPass(spec, fitted, opts.precision, false, derate,
                  it.fwd_s, fwd_flops, fwd_bytes, fwd_kernels, profiler,
                  kernel_invocations);
    timeGraphPass(spec, fitted, opts.precision, true, derate,
                  it.bwd_s, bwd_flops, bwd_bytes, bwd_kernels, profiler,
                  kernel_invocations);
    it.fwd_s *= it.micro_batches;
    it.bwd_s *= it.micro_batches;
    fwd_flops *= it.micro_batches;
    bwd_flops *= it.micro_batches;
    fwd_bytes *= it.micro_batches;
    bwd_bytes *= it.micro_batches;

    // Optimizer: bandwidth-bound sweep over the parameter state.
    wl::GraphTotals totals = spec.graph.totals();
    double params = totals.param_bytes / 4.0;
    {
        hw::KernelProfile k;
        k.flops = 4.0 * params; // momentum + update math
        k.bytes = params * policy.stateBytesPerParam();
        k.tensor_eligible = false;
        k.compute_eff = wl::computeEfficiency(wl::OpKind::Optimizer);
        k.memory_eff = wl::memoryEfficiency(wl::OpKind::Optimizer);
        hw::KernelTiming t = hw::timeKernel(system_.gpu, k,
                                            hw::Precision::FP32);
        it.optimizer_s = t.total() * derate;
        if (profiler) {
            profiler->record("sgd_update", wl::OpKind::Optimizer,
                             prof::Pass::Optimizer, iterations,
                             it.optimizer_s * iterations,
                             k.flops * iterations, k.bytes * iterations);
        }
    }
    it.kernel_launches = fwd_kernels + bwd_kernels + 1;

    // --- Gradient all-reduce ---
    res.fabric = system_.topo.collectiveFabric(system_.gpuSubset(n));
    net::AllReduceResult ar;
    if (n > 1) {
        double grad_bytes = gradientBytes(spec, opts.precision);
        ar = gradientAllReduce(system_, spec, opts.precision, n);
        it.comm_s = ar.seconds;
        it.reroutes = ar.reroutes;
        std::copy(std::begin(ar.tier_bytes), std::end(ar.tier_bytes),
                  it.comm_tier_bytes);
        double overlap =
            spec.comm_overlap * overlapFabricFactor(res.fabric, spec);
        it.exposed_comm_s = ar.seconds * (1.0 - overlap);
        if (profiler) {
            profiler->record("nccl_all_reduce", wl::OpKind::Elementwise,
                             prof::Pass::Collective, iterations,
                             it.comm_s * iterations, 0.0,
                             grad_bytes * 2.0 * iterations);
        }
    }

    // --- Host pipeline and input staging ---
    double global_samples = res.global_batch;
    double usable_cores = system_.hostCoreGhz() / system_.cpu.base_ghz *
                          kHostPoolEfficiency;
    double parallel_host_s = global_samples *
                             spec.host.cpu_core_us_per_sample * 1e-6 /
                             usable_cores;
    double serial_host_s =
        global_samples * spec.host.serial_cpu_us_per_sample * 1e-6;
    it.host_s = std::max(parallel_host_s, serial_host_s);
    it.h2d_s = inputStagingSeconds(spec, res.per_gpu_batch, n);

    // --- Iteration assembly ---
    it.overhead_s = spec.iteration_overhead_us * 1e-6 *
                    (opts.reference_code ? 1.6 : 1.0);
    double sync = spec.syncPenalty(n);
    it.gpu_busy_s =
        (it.fwd_s + it.bwd_s + it.optimizer_s) * sync +
        it.exposed_comm_s;
    // The input pipeline (host + H2D) runs software-pipelined with
    // compute; whichever stage is longest gates the iteration.
    it.iteration_s = std::max({it.gpu_busy_s + it.overhead_s, it.host_s,
                               it.h2d_s});
    if (n > 1 && res.fabric == net::CollectiveFabric::HostStaged)
        it.iteration_s *= 1.0 + spec.staged_iteration_penalty;

    // --- End-to-end time ---
    res.total_seconds = iterations * it.iteration_s *
                        (1.0 + spec.convergence.eval_overhead);

    // --- Resource usage (Table V) ---
    ResourceUsage &u = res.usage;
    double host_core_s = global_samples *
                         (spec.host.cpu_core_us_per_sample +
                          spec.host.serial_cpu_us_per_sample) * 1e-6;
    double total_cores = static_cast<double>(system_.num_cpus) *
                         system_.cpu.cores;
    u.cpu_util_pct = 100.0 *
        (host_core_s / it.iteration_s + kDriverCoresPerGpu * n) /
        total_cores + spec.host.os_baseline_cpu_pct;
    u.cpu_util_pct = std::min(u.cpu_util_pct, 100.0);

    u.gpu_util_pct_sum = 100.0 * n *
        std::min(1.0, it.gpu_busy_s / it.iteration_s);

    u.hbm_footprint_mb =
        n * hbmFootprintBytes(spec, fitted, policy) / 1e6;
    u.dram_footprint_mb = dramFootprintBytes(spec, n) / 1e6;

    double h2d_bytes = n * res.per_gpu_batch *
                       spec.dataset.input_bytes_per_sample;
    double pcie_bytes = h2d_bytes * 1.04 + ar.pcie_bytes; // +D2H misc
    u.pcie_mbps = pcie_bytes / it.iteration_s * 8.0 / 1e6;
    u.nvlink_mbps = ar.nvlink_bytes / it.iteration_s * 8.0 / 1e6;

    // --- Roofline placement ---
    double kernel_time = it.fwd_s + it.bwd_s + it.optimizer_s;
    if (kernel_time > 0.0) {
        double iter_flops = (fwd_flops + bwd_flops + 4.0 * params) * n;
        double iter_bytes =
            (fwd_bytes + bwd_bytes +
             params * policy.stateBytesPerParam()) * n;
        res.achieved_flops = iter_flops / it.iteration_s;
        res.achieved_bytes_per_sec = iter_bytes / it.iteration_s;
    }
    return res;
}

TrainResult
Trainer::runKernelLoop(const wl::WorkloadSpec &spec,
                       const RunOptions &opts,
                       prof::KernelProfiler *profiler) const
{
    TrainResult res;
    res.workload = spec.abbrev;
    res.system = system_.name;
    res.num_gpus = opts.num_gpus;
    res.precision = opts.precision;
    res.per_gpu_batch = spec.per_gpu_batch;
    res.global_batch = spec.per_gpu_batch;
    res.steps_per_epoch = spec.kernel_iterations;
    res.epochs = 1.0;
    res.fabric = system_.topo.collectiveFabric(
        system_.gpuSubset(opts.num_gpus));

    std::uint64_t iterations =
        static_cast<std::uint64_t>(spec.kernel_iterations);

    IterationBreakdown &it = res.iter;
    double flops = 0.0, bytes = 0.0;
    int kernels = 0;
    // DeepBench times both forward and backward (dgrad/wgrad) kernels.
    double fwd_s = 0.0, bwd_s = 0.0;
    double bwd_flops = 0.0, bwd_bytes = 0.0;
    int bwd_kernels = 0;
    timeGraphPass(spec, spec.per_gpu_batch, opts.precision, false, 1.0,
                  fwd_s, flops, bytes, kernels, profiler, iterations);
    timeGraphPass(spec, spec.per_gpu_batch, opts.precision, true, 1.0,
                  bwd_s, bwd_flops, bwd_bytes, bwd_kernels, profiler,
                  iterations);
    it.fwd_s = fwd_s;
    it.bwd_s = bwd_s;
    it.kernel_launches = kernels + bwd_kernels;
    it.overhead_s = spec.iteration_overhead_us * 1e-6;
    it.gpu_busy_s = fwd_s + bwd_s;
    it.host_s = spec.host.cpu_core_us_per_sample * 1e-6;
    it.iteration_s = it.gpu_busy_s + it.overhead_s;
    res.total_seconds = iterations * it.iteration_s;

    ResourceUsage &u = res.usage;
    double total_cores = static_cast<double>(system_.num_cpus) *
                         system_.cpu.cores;
    u.cpu_util_pct = 100.0 * kDriverCoresPerGpu / total_cores +
                     spec.host.os_baseline_cpu_pct +
                     100.0 * it.host_s / it.iteration_s / total_cores;
    u.gpu_util_pct_sum =
        100.0 * std::min(1.0, it.gpu_busy_s / it.iteration_s);
    u.hbm_footprint_mb = (spec.dataset.raw_bytes_per_sample +
                          kGpuRuntimeReserveBytes * 0.3) / 1e6;
    u.dram_footprint_mb = (spec.host.framework_dram_bytes +
                           spec.host.per_gpu_dram_bytes) / 1e6;
    u.pcie_mbps = 13.0; // housekeeping traffic only
    u.nvlink_mbps = 0.0;

    res.achieved_flops = (flops + bwd_flops) / it.gpu_busy_s;
    res.achieved_bytes_per_sec = (bytes + bwd_bytes) / it.gpu_busy_s;
    return res;
}

TrainResult
Trainer::runCollectiveLoop(const wl::WorkloadSpec &spec,
                           const RunOptions &opts,
                           prof::KernelProfiler *profiler) const
{
    TrainResult res;
    res.workload = spec.abbrev;
    res.system = system_.name;
    res.num_gpus = opts.num_gpus;
    res.precision = opts.precision;
    res.per_gpu_batch = 1.0;
    res.global_batch = 1.0;
    res.steps_per_epoch = spec.collective_iterations;
    res.epochs = 1.0;

    int n = opts.num_gpus;
    res.fabric = system_.topo.collectiveFabric(system_.gpuSubset(n));

    IterationBreakdown &it = res.iter;
    net::AllReduceResult ar;
    if (n > 1) {
        ar = net::autoHierarchicalAllReduce(
            system_.topo, system_.gpuSubset(n), spec.collective_bytes);
        it.comm_s = ar.seconds;
        it.exposed_comm_s = ar.seconds;
        it.reroutes = ar.reroutes;
        std::copy(std::begin(ar.tier_bytes), std::end(ar.tier_bytes),
                  it.comm_tier_bytes);
    } else {
        // Single GPU: a local reduction kernel only.
        hw::KernelProfile k;
        k.flops = spec.collective_bytes / 4.0;
        k.bytes = 2.0 * spec.collective_bytes;
        k.compute_eff = wl::computeEfficiency(wl::OpKind::Elementwise);
        k.memory_eff = wl::memoryEfficiency(wl::OpKind::Elementwise);
        it.comm_s = hw::timeKernel(system_.gpu, k,
                                   hw::Precision::FP32).total();
        it.exposed_comm_s = it.comm_s;
    }
    std::uint64_t iterations =
        static_cast<std::uint64_t>(spec.collective_iterations);
    if (profiler) {
        profiler->record("nccl_all_reduce", wl::OpKind::Elementwise,
                         prof::Pass::Collective, iterations,
                         it.comm_s * iterations, 0.0,
                         spec.collective_bytes * 2.0 * iterations);
    }

    it.overhead_s = spec.iteration_overhead_us * 1e-6;
    it.gpu_busy_s = it.comm_s;
    it.iteration_s = it.comm_s + it.overhead_s;
    res.total_seconds = iterations * it.iteration_s;

    ResourceUsage &u = res.usage;
    double total_cores = static_cast<double>(system_.num_cpus) *
                         system_.cpu.cores;
    u.cpu_util_pct = 100.0 * kDriverCoresPerGpu * n / total_cores +
                     spec.host.os_baseline_cpu_pct;
    u.gpu_util_pct_sum = 100.0 * n *
        std::min(1.0, it.gpu_busy_s / it.iteration_s);
    u.hbm_footprint_mb =
        n * (spec.collective_bytes * 2.0 + 0.45e9) / 1e6;
    u.dram_footprint_mb = (spec.host.framework_dram_bytes +
                           n * spec.host.per_gpu_dram_bytes * 0.3) / 1e6;
    u.pcie_mbps = (ar.pcie_bytes / it.iteration_s) * 8.0 / 1e6 + 27.0;
    u.nvlink_mbps = (ar.nvlink_bytes / it.iteration_s) * 8.0 / 1e6;

    res.achieved_flops = 0.0;
    res.achieved_bytes_per_sec =
        spec.collective_bytes * 2.0 / it.iteration_s;
    return res;
}

} // namespace mlps::train
