#include "wl/op_graph.h"

#include <sstream>

namespace mlps::wl {

namespace {

/** One step of the totals sum; totals are these steps in op order. */
void
accumulate(GraphTotals &t, const Op &op)
{
    t.fwd_flops += op.flops;
    t.bwd_flops += op.flops * backwardFlopScale(op.kind);
    t.fwd_bytes += op.bytes;
    t.bwd_bytes += op.bytes * backwardFlopScale(op.kind);
    t.param_bytes += op.param_bytes;
    t.activation_bytes += op.activation_bytes;
    ++t.op_count;
}

} // namespace

OpGraph::OpGraph(std::string name)
{
    mutableBlock().name = std::move(name);
}

OpGraph::Block &
OpGraph::mutableBlock()
{
    if (!block_ || mark_.shared.load(std::memory_order_relaxed)) {
        auto own = std::make_shared<Block>();
        if (block_) {
            own->name = block_->name;
            own->ops = block_->ops;
            own->totals = block_->totals;
        }
        block_ = std::move(own);
        mark_.shared.store(false, std::memory_order_relaxed);
    }
    // This graph is the block's only owner, and the block was made
    // non-const by make_shared. Its memo described the old contents.
    Block &b = const_cast<Block &>(*block_);
    b.memo.clear();
    return b;
}

const std::string &
OpGraph::name() const
{
    static const std::string empty;
    return block_ ? block_->name : empty;
}

const std::vector<Op> &
OpGraph::ops() const
{
    static const std::vector<Op> empty;
    return block_ ? block_->ops : empty;
}

OpGraph &
OpGraph::add(Op op)
{
    Block &b = mutableBlock();
    accumulate(b.totals, op);
    b.ops.push_back(std::move(op));
    return *this;
}

OpGraph &
OpGraph::append(const OpGraph &other)
{
    if (&other == this) {
        const OpGraph copy = other;
        return append(copy);
    }
    Block &b = mutableBlock();
    for (const Op &op : other.ops()) {
        accumulate(b.totals, op);
        b.ops.push_back(op);
    }
    return *this;
}

GraphTotals
OpGraph::totals() const
{
    return block_ ? block_->totals : GraphTotals{};
}

double
OpGraph::paramCount() const
{
    return totals().param_bytes / 4.0;
}

double
OpGraph::tensorEligibleFlopFraction() const
{
    double eligible = 0.0;
    double total = 0.0;
    for (const Op &op : ops()) {
        double train = op.flops * (1.0 + backwardFlopScale(op.kind));
        total += train;
        if (tensorEligible(op.kind))
            eligible += train;
    }
    return total > 0.0 ? eligible / total : 0.0;
}

void
OpGraph::scaleWork(double factor)
{
    Block &b = mutableBlock();
    b.totals = GraphTotals{};
    for (Op &op : b.ops) {
        op.flops *= factor;
        op.bytes *= factor;
        op.activation_bytes *= factor;
        accumulate(b.totals, op);
    }
}

std::string
OpGraph::describe() const
{
    std::ostringstream os;
    os << name() << " (" << size() << " ops)\n";
    for (const Op &op : ops()) {
        os << "  " << op.name << " [" << toString(op.kind) << "] "
           << op.flops / 1e6 << " MFLOP/sample, "
           << op.bytes / 1e6 << " MB/sample, "
           << op.param_bytes / 1e6 << " MB params\n";
    }
    return os.str();
}

OpGraph::Digest
OpGraph::memoizedDigest(DigestPass pass, const Digest &in) const
{
    if (!block_)
        return pass(in, *this);
    return block_->memo.get(
        [&](const DigestMemoEntry &m) { return m.pass == pass && m.in == in; },
        [&] { return pass(in, *this); },
        [&](const Digest &out) { return DigestMemoEntry{pass, in, out}; });
}

} // namespace mlps::wl
