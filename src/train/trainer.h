/**
 * @file
 * The data-parallel training engine.
 *
 * Trainer models one workload running on one system configuration:
 * per-kernel roofline timing on the GPUs, software-pipelined input
 * staging over PCIe (flow-simulated, so shared uplinks contend), the
 * host preprocessing pipeline, and ring all-reduce gradient exchange
 * with backward-pass overlap. It produces the steady-state iteration
 * breakdown, Table V resource usage, and the end-to-end time to the
 * MLPerf quality target.
 *
 * Thread contract: run() is const and touches no mutable shared
 * state — all working state lives on the stack of the call (the flow
 * simulator is constructed per run). Concurrent run() calls on one
 * Trainer, or on distinct Trainers, are therefore safe PROVIDED each
 * call gets its own KernelProfiler (the profiler itself is
 * unsynchronized; see prof/kernel_profiler.h). The exec::Engine
 * relies on this contract to evaluate batches in parallel.
 */

#ifndef MLPSIM_TRAIN_TRAINER_H
#define MLPSIM_TRAIN_TRAINER_H

#include "net/allreduce.h"
#include "prof/kernel_profiler.h"
#include "sys/system_config.h"
#include "train/precision_policy.h"
#include "train/training_job.h"
#include "wl/workload.h"

namespace mlps::train {

/** Training engine bound to one system configuration. */
class Trainer
{
  public:
    /** Binds to a copy of the configuration (safe with temporaries). */
    explicit Trainer(const sys::SystemConfig &system);

    /**
     * Model a full run of a workload.
     *
     * @param spec workload to run.
     * @param opts GPU count / precision / reference-code selection.
     * @param profiler optional kernel profiler; receives one record
     *        per kernel class with whole-run totals.
     */
    TrainResult run(const wl::WorkloadSpec &spec, const RunOptions &opts,
                    prof::KernelProfiler *profiler = nullptr) const;

    /** The bound system. */
    const sys::SystemConfig &system() const { return system_; }

    /**
     * The per-GPU batch a run would use: the submission batch, shrunk
     * when the global-batch cap or HBM capacity binds.
     */
    double effectiveBatch(const wl::WorkloadSpec &spec, int num_gpus,
                          const PrecisionPolicy &policy) const;

  private:
    TrainResult runTraining(const wl::WorkloadSpec &spec,
                            const RunOptions &opts,
                            prof::KernelProfiler *profiler) const;
    TrainResult runKernelLoop(const wl::WorkloadSpec &spec,
                              const RunOptions &opts,
                              prof::KernelProfiler *profiler) const;
    TrainResult runCollectiveLoop(const wl::WorkloadSpec &spec,
                                  const RunOptions &opts,
                                  prof::KernelProfiler *profiler) const;

    /** Sum kernel timings of one pass over the graph at a batch size. */
    void timeGraphPass(const wl::WorkloadSpec &spec, double batch,
                       hw::Precision precision, bool backward,
                       double derate, double &seconds_out,
                       double &flops_out, double &bytes_out,
                       int &kernels_out,
                       prof::KernelProfiler *profiler,
                       std::uint64_t iterations) const;

    /** HBM footprint of one replica, bytes. */
    double hbmFootprintBytes(const wl::WorkloadSpec &spec, double batch,
                             const PrecisionPolicy &policy) const;

    /** Host DRAM footprint of the whole run, bytes. */
    double dramFootprintBytes(const wl::WorkloadSpec &spec,
                              int num_gpus) const;

    /** Input staging time for one iteration over PCIe, seconds. */
    double inputStagingSeconds(const wl::WorkloadSpec &spec, double batch,
                               int num_gpus) const;

    sys::SystemConfig system_;
};

/**
 * How well comm/compute overlap survives on a fabric: staged
 * transports involve the CPU and the shared PCIe links, fighting the
 * backward pass they are supposed to hide under. The staged retention
 * is workload-specific (WorkloadSpec::staged_overlap_retention).
 */
double overlapFabricFactor(net::CollectiveFabric fabric,
                           const wl::WorkloadSpec &spec);

/** Gradient payload one replica contributes to the all-reduce, bytes. */
double gradientBytes(const wl::WorkloadSpec &spec,
                     hw::Precision precision);

/**
 * The exact gradient all-reduce runTraining models at num_gpus
 * replicas: same payload, same bucket count, same shape-aware
 * hierarchical schedule. Its per-tier byte split reaches callers as
 * IterationBreakdown::comm_tier_bytes, so nothing downstream has to
 * price it again. Requires num_gpus > 1.
 */
net::AllReduceResult gradientAllReduce(const sys::SystemConfig &system,
                                       const wl::WorkloadSpec &spec,
                                       hw::Precision precision,
                                       int num_gpus);

} // namespace mlps::train

#endif // MLPSIM_TRAIN_TRAINER_H
