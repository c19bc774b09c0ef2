/**
 * @file
 * Run configuration and result types of the training engine.
 */

#ifndef MLPSIM_TRAIN_TRAINING_JOB_H
#define MLPSIM_TRAIN_TRAINING_JOB_H

#include <string>

#include "hw/precision.h"
#include "net/topology.h"
#include "wl/workload.h"

namespace mlps::train {

/** Options of one training (or kernel-loop) run. */
struct RunOptions {
    /** Data-parallel replica count (<= system GPU count). */
    int num_gpus = 1;
    /** Numeric regime. */
    hw::Precision precision = hw::Precision::Mixed;
    /**
     * Run the unoptimised v0.5 reference implementation instead of the
     * tuned vendor submission (the paper's P100 reference column).
     * Applies the workload's reference_code_derate.
     */
    bool reference_code = false;
    /**
     * When HBM capacity cannot hold the submission batch, run several
     * micro-batches per optimizer step instead of shrinking the
     * global batch (framework gradient accumulation). Preserves
     * convergence behaviour at the cost of extra compute passes.
     */
    bool grad_accumulation = false;
};

/** Steady-state per-iteration time breakdown, seconds. */
struct IterationBreakdown {
    double fwd_s = 0.0;           ///< forward kernels
    double bwd_s = 0.0;           ///< backward kernels
    double optimizer_s = 0.0;     ///< weight update
    double comm_s = 0.0;          ///< full all-reduce duration
    double exposed_comm_s = 0.0;  ///< all-reduce not hidden under bwd
    double h2d_s = 0.0;           ///< input staging over PCIe
    double host_s = 0.0;          ///< host pipeline wall time
    double overhead_s = 0.0;      ///< serial framework overhead
    double gpu_busy_s = 0.0;      ///< kernels + exposed collectives
    double iteration_s = 0.0;     ///< pipelined iteration time
    int kernel_launches = 0;      ///< kernels per iteration per GPU
    int micro_batches = 1;        ///< gradient-accumulation passes
    int reroutes = 0;             ///< ring hops routed around down links
    /** Bytes the all-reduce moved per net::FabricTier (0 on 1 GPU). */
    double comm_tier_bytes[net::kNumFabricTiers] = {0.0, 0.0, 0.0};
};

/** Steady-state system resource usage (Table V quantities). */
struct ResourceUsage {
    double cpu_util_pct = 0.0;      ///< % of all host cores
    double gpu_util_pct_sum = 0.0;  ///< summed over GPUs (100% each)
    double dram_footprint_mb = 0.0; ///< host DRAM
    double hbm_footprint_mb = 0.0;  ///< summed over GPUs
    double pcie_mbps = 0.0;         ///< summed bidirectional Mbit/s
    double nvlink_mbps = 0.0;       ///< summed Mbit/s
};

/** Complete result of one run. */
struct TrainResult {
    std::string workload;            ///< abbrev
    std::string system;              ///< system name
    int num_gpus = 1;
    hw::Precision precision = hw::Precision::Mixed;
    bool reference_code = false;

    double per_gpu_batch = 0.0;
    double global_batch = 0.0;
    double steps_per_epoch = 0.0;
    double epochs = 0.0;

    IterationBreakdown iter;
    ResourceUsage usage;
    net::CollectiveFabric fabric = net::CollectiveFabric::HostStaged;

    /** End-to-end time to the quality target, seconds. */
    double total_seconds = 0.0;

    /** Achieved training FLOP/s across all GPUs. */
    double achieved_flops = 0.0;
    /** Achieved HBM traffic, bytes/s across all GPUs. */
    double achieved_bytes_per_sec = 0.0;

    /** Total time in minutes (Table IV unit). */
    double totalMinutes() const { return total_seconds / 60.0; }
    /** Training arithmetic intensity, FLOPs/byte. */
    double arithmeticIntensity() const {
        return achieved_bytes_per_sec > 0.0
                   ? achieved_flops / achieved_bytes_per_sec
                   : 0.0;
    }
};

/**
 * The one list of a run result's persisted fields: calls f(key, field)
 * for each, in the order the journal stores them and the serve wire
 * sends them (both codecs are visitors over this list). R is
 * TrainResult or const TrainResult. A field is a std::string, int,
 * bool, double, hw::Precision, net::CollectiveFabric, or the per-tier
 * all-reduce bytes (a double[net::kNumFabricTiers] under
 * "comm_tier_bytes", which the wire sends as one "<tier>_bytes" member
 * per tier). serve::canonicalResultLine keeps its own names and order.
 */
template <class R, class F>
void
forEachField(R &t, F &&f)
{
    f("workload", t.workload);
    f("system", t.system);
    f("gpus", t.num_gpus);
    f("precision", t.precision);
    f("reference", t.reference_code);
    f("per_gpu_batch", t.per_gpu_batch);
    f("global_batch", t.global_batch);
    f("steps_per_epoch", t.steps_per_epoch);
    f("epochs", t.epochs);
    f("fwd_s", t.iter.fwd_s);
    f("bwd_s", t.iter.bwd_s);
    f("optimizer_s", t.iter.optimizer_s);
    f("comm_s", t.iter.comm_s);
    f("exposed_comm_s", t.iter.exposed_comm_s);
    f("h2d_s", t.iter.h2d_s);
    f("host_s", t.iter.host_s);
    f("overhead_s", t.iter.overhead_s);
    f("gpu_busy_s", t.iter.gpu_busy_s);
    f("iteration_s", t.iter.iteration_s);
    f("kernel_launches", t.iter.kernel_launches);
    f("micro_batches", t.iter.micro_batches);
    f("reroutes", t.iter.reroutes);
    f("comm_tier_bytes", t.iter.comm_tier_bytes);
    f("cpu_util_pct", t.usage.cpu_util_pct);
    f("gpu_util_pct_sum", t.usage.gpu_util_pct_sum);
    f("dram_footprint_mb", t.usage.dram_footprint_mb);
    f("hbm_footprint_mb", t.usage.hbm_footprint_mb);
    f("pcie_mbps", t.usage.pcie_mbps);
    f("nvlink_mbps", t.usage.nvlink_mbps);
    f("fabric", t.fabric);
    f("total_seconds", t.total_seconds);
    f("achieved_flops", t.achieved_flops);
    f("achieved_bytes_per_sec", t.achieved_bytes_per_sec);
}

} // namespace mlps::train

#endif // MLPSIM_TRAIN_TRAINING_JOB_H
