/**
 * @file
 * Durable run journal: the on-disk half of the run cache.
 *
 * An append-only binary log of (fingerprint, RunResult) records under
 * a `--cache-dir` directory. The engine replays it on startup so a
 * warm report survives process crashes, and appends every freshly
 * simulated point so an interrupted campaign resumes from where it
 * died instead of from zero.
 *
 * File format (`journal.mlps`, little-endian):
 *
 *   header  : 8-byte magic "mlpsjnl1", u32 format version,
 *             u32 committed record count (0 = unknown; stamped on
 *             clean close, compaction and recovery rewrite so verify
 *             can detect a tail truncated on a record boundary)
 *   record* : u32 payload length, u32 CRC32(payload), payload
 *   payload : fingerprint (2 x u64), the TrainResult fields in
 *             train::forEachField order (string = u32 length + bytes,
 *             int and enum = u32, bool = u8, double = f64 bit
 *             pattern, tier bytes = one f64 per tier), then the
 *             kernel-profile records (u32 count + records)
 *
 * Doubles are encoded by bit pattern, so a journal-served result is
 * bit-identical to the simulation that produced it — the report-level
 * byte-determinism guarantee extends across process restarts.
 *
 * Failure handling is tolerate-and-quarantine, never abort:
 *  - a truncated or CRC-corrupt tail loads the valid prefix; the full
 *    original file is preserved as `journal.quarantined` and the
 *    journal is atomically rewritten (temp file + rename) with the
 *    valid prefix only;
 *  - a wrong magic or version quarantines the whole file and starts a
 *    fresh journal;
 *  - a second concurrent opener (detected via `journal.lock`, which
 *    holds the owner pid; stale locks of dead processes are reclaimed)
 *    degrades to read-only: it replays the journal but never appends
 *    and never rewrites.
 *
 * Thread safety: Journal itself is not synchronized; the engine calls
 * append() from its serial publish phase only.
 */

#ifndef MLPSIM_EXEC_JOURNAL_H
#define MLPSIM_EXEC_JOURNAL_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exec/run_request.h"

namespace mlps::exec {

/** Outcome of replaying a journal at startup. */
struct JournalStats {
    std::size_t loaded = 0;            ///< valid records replayed
    std::uint64_t loaded_bytes = 0;    ///< bytes of valid records
    std::uint64_t quarantined_bytes = 0; ///< corrupt bytes set aside
    bool quarantined = false;          ///< a quarantine file was written
    bool read_only = false;            ///< another live process owns the lock
};

/** Read-only integrity scan of a journal (never mutates the file). */
struct JournalVerifyReport {
    bool exists = false;       ///< journal file present
    bool header_ok = false;    ///< magic and version match
    std::size_t valid_records = 0;
    /**
     * Record count the header committed at the last clean close,
     * compaction or recovery rewrite; 0 = unknown (journal written
     * before the field existed, or never cleanly closed). When the
     * file structure is clean but valid_records < committed_records,
     * the tail was truncated exactly on a record boundary — a loss
     * no framing or CRC check can see.
     */
    std::size_t committed_records = 0;
    std::uint64_t valid_bytes = 0; ///< header + valid records
    std::uint64_t total_bytes = 0; ///< file size
    std::string error;         ///< first corruption found, empty if clean

    bool corrupt() const {
        return exists &&
               (!header_ok || valid_bytes != total_bytes ||
                valid_records < committed_records);
    }
};

/** Append-only durable log of evaluated runs. */
class Journal
{
  public:
    /**
     * v3: system fingerprints mix the link fabric tier, so journals
     * written before hierarchical fabrics existed cannot alias runs
     * on pods that differ only in tier layout.
     * v4: payloads carry IterationBreakdown::comm_tier_bytes after
     * reroutes (output only: fingerprints are unchanged).
     */
    static constexpr std::uint32_t kVersion = 4;

    /**
     * Open (creating the directory and an empty journal if needed)
     * and acquire the writer lock; on lock conflict with a live
     * process the journal opens read-only. sim::fatal() when the
     * directory cannot be created or the file cannot be opened.
     */
    explicit Journal(std::string dir);
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Replay every valid record through fn, quarantining a corrupt
     * tail (see file comment). Call once, before the first append().
     */
    JournalStats
    load(const std::function<void(const Fingerprint &, RunResult &&)> &fn);

    /**
     * Append one freshly simulated record and flush it to the OS, so
     * a crash after append() never loses the point. No-op (counted in
     * skipped_appends) when read-only.
     */
    void append(const Fingerprint &key, const RunResult &result);

    /**
     * Rewrite the journal to hold exactly `entries` (atomic temp file
     * + rename, append stream reopened). The compaction pass of a
     * bounded cache: once evictions have made the file mostly cold,
     * the live working set is written back and the cold majority
     * dropped, bounding disk alongside memory. Entries are written in
     * the order given (the cache hands them over LRU-first, so a
     * replay reproduces the recency order). No-op when read-only.
     * @return false on I/O failure (the original file is kept).
     */
    bool
    compact(const std::vector<std::pair<Fingerprint, RunResult>> &entries);

    /**
     * Records currently in the file: replayed + appended - dropped by
     * compaction. The live/total ratio against the cache size decides
     * when compacting pays.
     */
    std::size_t records() const { return records_; }

    /** Compaction passes completed. */
    std::uint64_t compactions() const { return compactions_; }

    /** Stats of the load() replay (zeroes before load). */
    const JournalStats &stats() const { return stats_; }

    /** Appends dropped because the journal is read-only. */
    std::uint64_t skippedAppends() const { return skipped_appends_; }

    /**
     * Failed write/fsync/rename operations (real or chaos-injected).
     * Every failure is rolled back to the last good record boundary,
     * so a nonzero count never implies a torn file.
     */
    std::uint64_t writeErrors() const { return write_errors_; }

    /** An append failed with ENOSPC; persistence was disabled. */
    bool diskFull() const { return disk_full_; }

    /** Appends currently reach the file (writer lock held, no fatal
     *  I/O error so far, no injected crash). */
    bool persistent() const { return out_ != nullptr; }

    /** Directory this journal lives in. */
    const std::string &dir() const { return dir_; }

    /** Path of the journal file inside `dir`. */
    static std::string journalPath(const std::string &dir);
    /** Path of the quarantine file inside `dir`. */
    static std::string quarantinePath(const std::string &dir);

    /** Scan a journal without mutating it. */
    static JournalVerifyReport verify(const std::string &dir);

    /**
     * Pid of the live process holding this journal's writer lock, or
     * 0 when the lock is absent or stale (held by a dead process).
     * Lets `mlpsim cache clear/verify` tell "a server is running"
     * apart from "the lock file is junk".
     */
    static long lockHolder(const std::string &dir);

    /**
     * Delete the journal and any quarantine file. @return bytes
     * removed. Leaves a live owner's lock alone.
     */
    static std::uint64_t clear(const std::string &dir);

  private:
    void acquireLock();
    void releaseLock();
    void commitHeader();

    std::string dir_;
    std::string path_;
    JournalStats stats_;
    std::FILE *out_ = nullptr; ///< append stream; null when read-only
    bool locked_ = false;
    std::uint64_t skipped_appends_ = 0;
    std::size_t records_ = 0;       ///< records currently in the file
    std::uint64_t compactions_ = 0; ///< compaction passes completed
    std::uint64_t write_errors_ = 0;
    bool disk_full_ = false;
    bool crashed_ = false; ///< chaos killed the stream mid-record
    /** End of the last fully written record: failed appends are
     *  rolled back to this offset. */
    std::uint64_t good_offset_ = 0;
};

/** Encode one journal payload (fingerprint + result). */
std::string encodeJournalPayload(const Fingerprint &key,
                                 const RunResult &result);

/**
 * Decode one journal payload. @return false on any structural
 * anomaly (bad length, enum out of range) — treated as corruption.
 */
bool decodeJournalPayload(const std::string &payload, Fingerprint *key,
                          RunResult *result);

/** CRC32 (IEEE 802.3, reflected) of a byte range. */
std::uint32_t crc32(const void *data, std::size_t n);

} // namespace mlps::exec

#endif // MLPSIM_EXEC_JOURNAL_H
