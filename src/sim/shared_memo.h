/**
 * @file
 * The two pieces of a copy-on-write structure that copies share and
 * that carries memoized hash passes: net::Topology's graph and
 * wl::OpGraph's block.
 *
 * ShareMark tells the owner whether it must copy the structure before
 * writing; DigestMemo keeps the last few results of a pure hash pass
 * over it. A write copies a shared structure and then clears its
 * memo, so an entry never describes other contents.
 */

#ifndef MLPSIM_SIM_SHARED_MEMO_H
#define MLPSIM_SIM_SHARED_MEMO_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace mlps::sim {

/** 128-bit state of a hash pass. */
using Digest = std::array<std::uint64_t, 2>;

/**
 * Whether a structure held by shared_ptr may have another owner. A
 * copy marks both sides, so either copies the structure before
 * writing (use_count() cannot prove that another thread has finished
 * reading it); a move hands the mark over and leaves the source
 * unmarked, like its null pointer.
 */
struct ShareMark {
    ShareMark() = default;
    ShareMark(const ShareMark &other) { other.shared = shared = true; }
    ShareMark(ShareMark &&other) noexcept
        : shared(other.shared.exchange(false)) {}
    ShareMark &operator=(const ShareMark &other) {
        other.shared = shared = true;
        return *this;
    }
    ShareMark &operator=(ShareMark &&other) noexcept {
        shared = other.shared.exchange(false);
        return *this;
    }

    mutable std::atomic<bool> shared{false};
};

/**
 * The last few results of a pure hash pass, behind a mutex. Entry is
 * the caller's key type with a Digest member `out`.
 */
template <typename Entry>
class DigestMemo
{
  public:
    /**
     * The `out` of the first entry `match` accepts; else compute()'s
     * result, stored as make(out). compute() runs unlocked, so callers
     * hashing other keys in parallel never wait on it. Two callers
     * missing on one key (an engine batch keyed in parallel with two
     * requests on copies of one fresh graph) may both compute it; the
     * pass is pure, so either result is right and the first stored
     * wins. Waiting for an in-flight twin would save one pass at the
     * cost of a wait on every miss.
     */
    template <typename Match, typename Compute, typename Make>
    Digest get(Match match, Compute compute, Make make) const
    {
        auto stored = [&]() -> const Digest * {
            for (const Entry &e : entries_) {
                if (match(e))
                    return &e.out;
            }
            return nullptr;
        };
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (const Digest *hit = stored())
                return *hit;
        }
        const Digest out = compute();
        std::lock_guard<std::mutex> lock(mu_);
        if (!stored()) { // else a racing twin stored it first
            if (entries_.size() == kEntries)
                entries_.erase(entries_.begin());
            entries_.push_back(make(out));
        }
        return out;
    }

    /** Drop every entry. Only the structure's sole owner calls it. */
    void clear() { entries_.clear(); }

  private:
    /**
     * A few entries cover every use so far (healthy, spine- and
     * ToR-degraded copies of a pod; a workload under a renamed twin);
     * more would only hold memory.
     */
    static constexpr std::size_t kEntries = 4;

    mutable std::mutex mu_;
    /** Most recently added last. */
    mutable std::vector<Entry> entries_;
};

} // namespace mlps::sim

#endif // MLPSIM_SIM_SHARED_MEMO_H
