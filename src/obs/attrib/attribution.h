/**
 * @file
 * Deterministic cost attribution over the simulated cluster.
 *
 * Every modeled iteration is decomposed into a causal span graph:
 * per-GPU forward/backward/optimizer compute (data-parallel replicas
 * aggregated into one representative lane so pod-scale graphs stay
 * O(tiers), not O(gpus)), per-fabric-tier exposed collective phases
 * (split by the per-tier bytes the trainer's all-reduce moved, which
 * IterationBreakdown::comm_tier_bytes carries), the software-pipelined
 * host and H2D input stages, the pipeline bubble the GPU spends
 * waiting on them, and framework / staged-fabric overhead. Parent
 * edges make the graph causal; a longest-path pass extracts the
 * critical path and classifies every nanosecond of iteration time
 * into four buckets — exposed compute, exposed comm per tier, bubble,
 * overhead — whose sum equals the iteration time (within
 * floating-point re-association of the trainer's own arithmetic; the
 * property tests pin 1e-9 relative).
 *
 * Attribution is plain arithmetic over the workload and its result:
 * no clocks, no allocation-order dependence, no global state, and no
 * network pricing. The same (workload, TrainResult) pair always yields
 * byte-identical toJson() output, which is what lets `mlpsim explain`
 * promise byte-equality across --jobs, journal warmth and reruns.
 * Nothing here runs unless explicitly invoked, so the training hot
 * path pays zero cost when attribution is not requested.
 */

#ifndef MLPSIM_OBS_ATTRIB_ATTRIBUTION_H
#define MLPSIM_OBS_ATTRIB_ATTRIBUTION_H

#include <cstddef>
#include <string>
#include <vector>

#include "net/link.h"
#include "train/training_job.h"
#include "wl/workload.h"

namespace mlps::exec {
struct RunRequest;
}

namespace mlps::obs::attrib {

/** Cost class of a span — where its nanoseconds are booked. */
enum class Bucket {
    /** GPU kernels serialized on the critical path (fwd/bwd/opt). */
    ExposedCompute,
    /** All-reduce time not hidden under the backward pass. */
    ExposedComm,
    /** GPU idle: the input pipeline (host/H2D) gates the iteration. */
    Bubble,
    /** Framework/launch overhead and staged-fabric penalties. */
    Overhead,
    /** Host/H2D pipeline stages; run concurrently, off the GPU
     *  chain. Booked only when they surface as Bubble time. */
    Pipeline,
};

/** Stable lowercase token ("exposed-compute", "bubble", ...). */
const char *toString(Bucket b);

/** One node of the causal span graph. */
struct Span {
    int id = 0;
    std::string name;
    /** Display lane: "GPU", "Host", "H2D" or "Runtime". */
    std::string lane;
    double start_s = 0.0;
    double duration_s = 0.0;
    Bucket bucket = Bucket::Overhead;
    /** net::FabricTier index when bucket == ExposedComm; -1 else. */
    int tier = -1;
    /** Data-parallel replicas this span stands for (GPU lanes). */
    int replicas = 1;
    /** Causal predecessors (span ids). */
    std::vector<int> parents;
    /** Set by the longest-path pass. */
    bool critical = false;

    double end_s() const { return start_s + duration_s; }
};

/** Full attribution of one modeled run's steady-state iteration. */
struct Attribution {
    std::string workload;
    std::string system;
    int num_gpus = 1;
    hw::Precision precision = hw::Precision::Mixed;
    bool reference_code = false;
    wl::RunMode mode = wl::RunMode::Training;
    net::CollectiveFabric fabric = net::CollectiveFabric::NvLink;

    /** Trainer's iteration time — the quantity the buckets explain. */
    double iteration_s = 0.0;

    /** Bucket totals, seconds. exposed_comm_s is FabricTier-indexed. */
    double exposed_compute_s = 0.0;
    double exposed_comm_s[net::kNumFabricTiers] = {0.0, 0.0, 0.0};
    double bubble_s = 0.0;
    double overhead_s = 0.0;

    /** What gates the iteration: "gpu", "host" or "h2d". */
    std::string gated_by = "gpu";

    std::vector<Span> spans;
    /** Critical-path span ids, source to sink. */
    std::vector<int> critical_path;

    double exposedCommTotal() const;
    /** Sum of the four buckets; equals iteration_s (1e-9 relative). */
    double bucketTotal() const;
};

/**
 * Attribute one modeled run. Pure and deterministic: derives the span
 * graph from the workload's run mode and sync penalty plus the
 * trainer's result, whose comm_tier_bytes give the per-tier split.
 * Fatals if the result does not look like the output of Trainer::run
 * on the same workload (negative durations).
 */
Attribution attributeRun(const wl::WorkloadSpec &spec,
                         const train::TrainResult &result);

/** Convenience overload over an exec request/result pair. */
Attribution attributeRun(const exec::RunRequest &request,
                         const train::TrainResult &result);

/**
 * Critical-path spans ordered by descending duration (ties: graph
 * order) — the top-k "where the time goes" contributors.
 */
std::vector<const Span *> topContributors(const Attribution &a,
                                          std::size_t k);

/**
 * Stable `mlpsim-attribution-v1` JSON document. All doubles render
 * via sim::jsonDouble (%.17g shortest round-trip), so equal
 * attributions produce byte-identical documents.
 */
std::string toJson(const Attribution &a);

} // namespace mlps::obs::attrib

#endif // MLPSIM_OBS_ATTRIB_ATTRIBUTION_H
