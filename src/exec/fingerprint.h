/**
 * @file
 * Canonical structural fingerprints of simulation inputs.
 *
 * A Fingerprint is a 128-bit hash over the *value* of a configuration
 * object: every field that can influence a simulated result is mixed
 * in, in a fixed order. The run cache treats two inputs with equal
 * fingerprints as the same simulation point, so the mixing must cover
 * everything Trainer::run reads — the machine (specs and topology),
 * the workload (identity, graph, dataset, convergence, host pipeline,
 * calibration knobs) and the run options. Identity strings are
 * included because they flow into TrainResult and the rendered
 * reports.
 */

#ifndef MLPSIM_EXEC_FINGERPRINT_H
#define MLPSIM_EXEC_FINGERPRINT_H

#include <cstdint>
#include <functional>
#include <string>

#include "sys/system_config.h"
#include "train/training_job.h"
#include "wl/workload.h"

namespace mlps::exec {

/** 128-bit structural hash value (two independent FNV-1a lanes). */
struct Fingerprint {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const Fingerprint &o) const {
        return hi == o.hi && lo == o.lo;
    }
    bool operator!=(const Fingerprint &o) const { return !(*this == o); }
};

/** std::hash adapter so Fingerprint can key an unordered_map. */
struct FingerprintHash {
    std::size_t operator()(const Fingerprint &f) const {
        return static_cast<std::size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ULL));
    }
};

/**
 * Incremental hasher feeding both lanes of a Fingerprint.
 *
 * The mix* methods define the canonical encoding: doubles are mixed
 * by bit pattern (with -0.0 normalised to 0.0), strings by length and
 * bytes, enums by underlying value.
 */
class HashStream
{
  public:
    HashStream();

    /** Continue a stream whose state digest() returned. */
    explicit HashStream(const Fingerprint &state)
        : hi_(state.hi), lo_(state.lo) {}

    void mixBytes(const void *data, std::size_t n);
    void mixU64(std::uint64_t v);
    void mixInt(long long v);
    void mixBool(bool v);
    void mixDouble(double v);
    void mixString(const std::string &s);
    void mix(const Fingerprint &f);

    /** The accumulated fingerprint. */
    Fingerprint digest() const { return {hi_, lo_}; }

  private:
    std::uint64_t hi_;
    std::uint64_t lo_;
};

/**
 * Fingerprint of a machine, covering specs and topology graph. The
 * pass over the topology and the CPU/GPU/switch node-id lists is
 * memoized on the graph that copies of the machine share
 * (net::Topology::memoizedDigest), so refingerprinting a copy costs
 * its link-state scan and a compare of the lists, not the hashing.
 */
Fingerprint fingerprintOf(const sys::SystemConfig &system);

/**
 * Fingerprint of a workload, covering graph/dataset/knobs. The pass
 * over the graph's name and ops is memoized on the block that copies
 * of the graph share (wl::OpGraph::memoizedDigest), keyed on the
 * state the identity strings left, so refingerprinting a copy hashes
 * the identity and the scalar knobs only.
 */
Fingerprint fingerprintOf(const wl::WorkloadSpec &workload);

/** Fingerprint of run options. */
Fingerprint fingerprintOf(const train::RunOptions &options);

} // namespace mlps::exec

#endif // MLPSIM_EXEC_FINGERPRINT_H
