/**
 * @file
 * OpGraph: the per-sample operator list of a workload, with aggregate
 * work/traffic/footprint queries used by the trainer and the profilers.
 *
 * The graph is a sequence (models here are trained layer-by-layer; true
 * dataflow parallelism inside one GPU is folded into per-op efficiency),
 * but ops carry enough information to reconstruct per-kernel profiles.
 *
 * Copies share one immutable block (name, ops, totals), so copying a
 * WorkloadSpec into every request of a sweep copies a pointer, not
 * the ops. add/append/scaleWork copy the block first when another
 * graph may share it (copy-on-write). The block also carries a small
 * memo of hash passes (memoizedDigest), which exec::fingerprintOf
 * uses so that a workload's ops are hashed once per block.
 */

#ifndef MLPSIM_WL_OP_GRAPH_H
#define MLPSIM_WL_OP_GRAPH_H

#include <memory>
#include <string>
#include <vector>

#include "sim/shared_memo.h"
#include "wl/op.h"

namespace mlps::wl {

/** Aggregate work summary of a graph (per sample unless noted). */
struct GraphTotals {
    double fwd_flops = 0.0;
    double bwd_flops = 0.0;
    double fwd_bytes = 0.0;
    double bwd_bytes = 0.0;
    double param_bytes = 0.0;      ///< absolute, not per sample
    double activation_bytes = 0.0; ///< per-sample live activations
    int op_count = 0;

    double trainFlops() const { return fwd_flops + bwd_flops; }
    double trainBytes() const { return fwd_bytes + bwd_bytes; }
};

/** Operator list of one model. */
class OpGraph
{
  public:
    /** 128-bit state of a hash pass over a graph. */
    using Digest = sim::Digest;

    /**
     * A hash pass: the state after mixing a graph (name and ops) into
     * the incoming state. Must be a pure function of its arguments.
     */
    using DigestPass = Digest (*)(const Digest &in, const OpGraph &graph);

    OpGraph() = default;
    explicit OpGraph(std::string name);

    /** Append an op. @return *this for chaining. */
    OpGraph &add(Op op);

    /** Append all ops of another graph (e.g. a backbone). */
    OpGraph &append(const OpGraph &other);

    const std::string &name() const;
    const std::vector<Op> &ops() const;
    bool empty() const { return ops().empty(); }
    std::size_t size() const { return ops().size(); }

    /** Aggregate totals over all ops, summed in op order as ops are
     *  added (so reading them is O(1)). */
    GraphTotals totals() const;

    /** Total trainable parameter count (fp32 elements). */
    double paramCount() const;

    /**
     * Fraction of training FLOPs in tensor-core-eligible ops; the
     * Amdahl limit of mixed-precision speedup (paper Figure 3).
     */
    double tensorEligibleFlopFraction() const;

    /**
     * Scale the flops/bytes of every op by a factor — used to express
     * input resolutions or sequence-length re-scaling without
     * rebuilding the graph.
     */
    void scaleWork(double factor);

    /** Multi-line summary of the graph's ops (debugging aid). */
    std::string describe() const;

    /**
     * pass(in, *this), memoized on the block this copy shares. The key
     * is the pass and 'in' (a write gives the graph a block with no
     * memo), so a hit returns the state the pass would compute. Each
     * block keeps a few entries.
     */
    Digest memoizedDigest(DigestPass pass, const Digest &in) const;

  private:
    struct DigestMemoEntry {
        DigestPass pass;
        Digest in;
        Digest out;
    };

    /** The data copies share; never changed while shared. */
    struct Block {
        std::string name;
        std::vector<Op> ops;
        GraphTotals totals;
        sim::DigestMemo<DigestMemoEntry> memo;
    };

    /** The block to write into: this graph's own (copied first when
     *  it may be shared), with its memo dropped. */
    Block &mutableBlock();

    /** Null only when empty (default-constructed or moved from). */
    std::shared_ptr<const Block> block_;
    /** Whether block_ may have another owner. */
    sim::ShareMark mark_;
};

} // namespace mlps::wl

#endif // MLPSIM_WL_OP_GRAPH_H
