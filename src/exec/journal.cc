#include "exec/journal.h"

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include "chaos/hooks.h"
#include "obs/span.h"
#include "sim/logger.h"

namespace fs = std::filesystem;

namespace mlps::exec {

namespace {

constexpr char kMagic[8] = {'m', 'l', 'p', 's', 'j', 'n', 'l', '1'};
constexpr std::size_t kHeaderBytes = 16;
/** Sanity ceiling on one record; corrupt lengths fail fast. */
constexpr std::uint32_t kMaxPayload = 64u << 20;

constexpr const char *kJournalFile = "journal.mlps";
constexpr const char *kQuarantineFile = "journal.quarantined";
constexpr const char *kLockFile = "journal.lock";

// ---- little-endian encode helpers ---------------------------------

void
putU32(std::string &b, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &b, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putF64(std::string &b, double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(b, bits);
}

void
putStr(std::string &b, const std::string &s)
{
    putU32(b, static_cast<std::uint32_t>(s.size()));
    b.append(s);
}

void
putU8(std::string &b, std::uint8_t v)
{
    b.push_back(static_cast<char>(v));
}

/** Bounds-checked little-endian decoder over one payload. */
class Reader
{
  public:
    explicit Reader(std::string b) : b_(std::move(b)) {}

    bool ok() const { return ok_; }
    bool atEnd() const { return ok_ && off_ == b_.size(); }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(b_[off_ + i]))
                 << (8 * i);
        off_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(b_[off_ + i]))
                 << (8 * i);
        off_ += 8;
        return v;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        std::uint32_t n = u32();
        if (!need(n))
            return {};
        std::string s = b_.substr(off_, n);
        off_ += n;
        return s;
    }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return static_cast<std::uint8_t>(b_[off_++]);
    }

    /** u32 that must be <= max (enum range check). */
    std::uint32_t
    u32Max(std::uint32_t max)
    {
        std::uint32_t v = u32();
        if (v > max)
            ok_ = false;
        return ok_ ? v : 0;
    }

  private:
    bool
    need(std::size_t n)
    {
        if (!ok_ || b_.size() - off_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    std::string b_; ///< owned: callers pass substr() temporaries
    std::size_t off_ = 0;
    bool ok_ = true;
};

std::string
lockPath(const std::string &dir)
{
    return (fs::path(dir) / kLockFile).string();
}

/**
 * Atomically replace `path` with `content` via temp file + rename.
 * @return false on any I/O failure (including an injected rename
 * fault); the target is unchanged either way.
 */
bool
atomicWrite(const std::string &path, const std::string &content)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        out.flush();
        if (!out)
            return false;
    }
    if (chaos::FsHooks *h = chaos::fsHooks();
        h && h->onAtomicWrite(path).kind != chaos::FsFaultKind::None) {
        std::error_code ec;
        fs::remove(tmp, ec);
        return false;
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    return !ec;
}

std::string
headerBytes(std::uint32_t committed = 0)
{
    std::string h(kMagic, sizeof(kMagic));
    putU32(h, Journal::kVersion);
    putU32(h, committed);
    return h;
}

/** Committed record count from a header (0 on short/missing header). */
std::uint32_t
committedCount(const std::string &buf)
{
    if (buf.size() < kHeaderBytes)
        return 0;
    Reader r(buf.substr(12, 4));
    return r.u32();
}

bool
headerOk(const std::string &buf)
{
    if (buf.size() < kHeaderBytes)
        return false;
    if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0)
        return false;
    Reader r(buf.substr(sizeof(kMagic), 8));
    return r.u32() == Journal::kVersion;
}

/**
 * Scan records from offset kHeaderBytes; stops at the first framing,
 * CRC, or decode anomaly. @return offset of the first invalid byte
 * (== buf.size() when the whole file is clean). When fn is non-null
 * every valid record is decoded through it.
 */
std::size_t
scanRecords(
    const std::string &buf, std::size_t *records, std::string *error,
    const std::function<void(const Fingerprint &, RunResult &&)> *fn)
{
    std::size_t off = kHeaderBytes;
    *records = 0;
    while (off < buf.size()) {
        if (buf.size() - off < 8) {
            *error = "truncated record framing";
            return off;
        }
        Reader frame(buf.substr(off, 8));
        std::uint32_t len = frame.u32();
        std::uint32_t crc = frame.u32();
        if (len == 0 || len > kMaxPayload ||
            buf.size() - off - 8 < len) {
            *error = "truncated or oversized record";
            return off;
        }
        std::string payload = buf.substr(off + 8, len);
        if (crc32(payload.data(), payload.size()) != crc) {
            *error = "payload CRC mismatch";
            return off;
        }
        Fingerprint key;
        RunResult result;
        if (!decodeJournalPayload(payload, &key, &result)) {
            *error = "undecodable payload";
            return off;
        }
        if (fn)
            (*fn)(key, std::move(result));
        ++*records;
        off += 8 + len;
    }
    return off;
}

} // namespace

// ---- CRC32 --------------------------------------------------------

std::uint32_t
crc32(const void *data, std::size_t n)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

// ---- payload encoding ---------------------------------------------

std::string
encodeJournalPayload(const Fingerprint &key, const RunResult &result)
{
    std::string b;
    putU64(b, key.hi);
    putU64(b, key.lo);

    train::forEachField(result.train, [&b](const char *, const auto &v) {
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>)
            putStr(b, v);
        else if constexpr (std::is_same_v<T, bool>)
            putU8(b, v ? 1 : 0);
        else if constexpr (std::is_same_v<T, double>)
            putF64(b, v);
        else if constexpr (std::is_array_v<T>) {
            for (double bytes : v)
                putF64(b, bytes);
        } else // int and the enums
            putU32(b, static_cast<std::uint32_t>(v));
    });

    const auto &records = result.profile.records();
    putU32(b, static_cast<std::uint32_t>(records.size()));
    for (const auto &r : records) {
        putStr(b, r.name);
        putU32(b, static_cast<std::uint32_t>(r.kind));
        putU32(b, static_cast<std::uint32_t>(r.pass));
        putU64(b, r.invocations);
        putF64(b, r.total_seconds);
        putF64(b, r.total_flops);
        putF64(b, r.total_bytes);
    }
    return b;
}

bool
decodeJournalPayload(const std::string &payload, Fingerprint *key,
                     RunResult *result)
{
    Reader r(payload);
    key->hi = r.u64();
    key->lo = r.u64();

    train::forEachField(result->train, [&r](const char *, auto &v) {
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>)
            v = r.str();
        else if constexpr (std::is_same_v<T, bool>)
            v = r.u8() != 0;
        else if constexpr (std::is_same_v<T, double>)
            v = r.f64();
        else if constexpr (std::is_array_v<T>) {
            for (double &bytes : v)
                bytes = r.f64();
        } else if constexpr (std::is_same_v<T, int>)
            v = static_cast<int>(r.u32());
        else if constexpr (std::is_same_v<T, hw::Precision>)
            v = static_cast<T>(r.u32Max(
                static_cast<std::uint32_t>(hw::Precision::Mixed)));
        else
            v = static_cast<net::CollectiveFabric>(r.u32Max(
                static_cast<std::uint32_t>(
                    net::CollectiveFabric::HostStaged)));
    });

    std::uint32_t n = r.u32();
    if (!r.ok())
        return false;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name = r.str();
        auto kind = static_cast<wl::OpKind>(r.u32Max(
            static_cast<std::uint32_t>(wl::OpKind::Optimizer)));
        auto pass = static_cast<prof::Pass>(r.u32Max(
            static_cast<std::uint32_t>(prof::Pass::Collective)));
        std::uint64_t invocations = r.u64();
        double seconds = r.f64();
        double flops = r.f64();
        double bytes = r.f64();
        if (!r.ok())
            return false;
        result->profile.record(name, kind, pass, invocations, seconds,
                               flops, bytes);
    }
    return r.atEnd();
}

// ---- Journal ------------------------------------------------------

std::string
Journal::journalPath(const std::string &dir)
{
    return (fs::path(dir) / kJournalFile).string();
}

std::string
Journal::quarantinePath(const std::string &dir)
{
    return (fs::path(dir) / kQuarantineFile).string();
}

Journal::Journal(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        sim::fatal("cache-dir '%s': cannot create directory (%s)",
                   dir_.c_str(), ec.message().c_str());
    path_ = journalPath(dir_);
    acquireLock();
    stats_.read_only = !locked_;
}

Journal::~Journal()
{
    if (out_) {
        std::fclose(out_);
        out_ = nullptr;
        commitHeader();
    }
    releaseLock();
}

void
Journal::commitHeader()
{
    // Stamp the live record count into the header's committed field.
    // verify() can then tell "grew since the last clean close"
    // (benign appends) from "shrank" (a tail truncated exactly on a
    // record boundary, invisible to framing and CRC checks). Best
    // effort: a failure here leaves the previous committed count,
    // which is always <= the real count and so never a false alarm.
    std::FILE *f = std::fopen(path_.c_str(), "r+b");
    if (!f)
        return;
    std::string field;
    putU32(field, static_cast<std::uint32_t>(records_));
    if (std::fseek(f, 12, SEEK_SET) == 0)
        (void)std::fwrite(field.data(), 1, field.size(), f);
    std::fclose(f);
}

void
Journal::acquireLock()
{
    std::string lock = lockPath(dir_);
    for (int attempt = 0; attempt < 2; ++attempt) {
        int fd = ::open(lock.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
        if (fd >= 0) {
            char pid[32];
            std::snprintf(pid, sizeof(pid), "%ld\n",
                          static_cast<long>(::getpid()));
            ssize_t ignored = ::write(fd, pid, std::strlen(pid));
            (void)ignored;
            ::close(fd);
            locked_ = true;
            return;
        }
        if (errno != EEXIST)
            sim::fatal("cache-dir '%s': cannot create lock file (%s)",
                       dir_.c_str(), std::strerror(errno));
        // Lock exists: live owner -> read-only; dead owner -> reclaim.
        // Our own pid counts as live: it means another Journal in
        // this process holds the lock (double-open), not a stale file.
        long owner = 0;
        if (std::ifstream in(lock); in)
            in >> owner;
        if (owner > 0 && (::kill(static_cast<pid_t>(owner), 0) == 0 ||
                          errno != ESRCH)) {
            sim::warn("cache-dir '%s': journal locked by live pid %ld; "
                      "opening read-only (results will not persist)",
                      dir_.c_str(), owner);
            return;
        }
        std::error_code ec;
        fs::remove(lock, ec); // stale lock of a dead process
    }
    sim::warn("cache-dir '%s': could not acquire journal lock; "
              "opening read-only", dir_.c_str());
}

void
Journal::releaseLock()
{
    if (!locked_)
        return;
    std::error_code ec;
    fs::remove(lockPath(dir_), ec);
    locked_ = false;
}

JournalStats
Journal::load(
    const std::function<void(const Fingerprint &, RunResult &&)> &fn)
{
    obs::Span span("exec.journal", "load");
    std::string buf;
    if (std::ifstream in(path_, std::ios::binary); in) {
        std::ostringstream os;
        os << in.rdbuf();
        buf = os.str();
    }

    bool rewrite = false;
    std::string valid = headerBytes();
    if (buf.empty()) {
        rewrite = true; // fresh journal
    } else if (!headerOk(buf)) {
        sim::warn("journal '%s': bad magic or version; quarantining "
                  "the whole file", path_.c_str());
        stats_.quarantined_bytes = buf.size();
        rewrite = true;
    } else {
        std::size_t records = 0;
        std::string error;
        std::size_t end = scanRecords(buf, &records, &error, &fn);
        stats_.loaded = records;
        records_ = records;
        stats_.loaded_bytes = end - kHeaderBytes;
        if (end != buf.size()) {
            sim::warn("journal '%s': %s at byte %zu; keeping %zu valid "
                      "record(s), quarantining %zu byte(s)",
                      path_.c_str(), error.c_str(), end, records,
                      buf.size() - end);
            stats_.quarantined_bytes = buf.size() - end;
            rewrite = true;
        } else if (committedCount(buf) > records) {
            // Structure is clean but the header committed more
            // records than the replay found: the tail was truncated
            // exactly on a record boundary. The data is gone; correct
            // the header so the loss is acknowledged once instead of
            // re-reported forever.
            sim::warn("journal '%s': tail truncated — header commits "
                      "%u record(s), replay found %zu; correcting "
                      "header", path_.c_str(),
                      static_cast<unsigned>(committedCount(buf)),
                      records);
            rewrite = true;
        }
        if (rewrite)
            // Rebuild with a corrected header: committed = what the
            // replay actually recovered.
            valid = headerBytes(static_cast<std::uint32_t>(records)) +
                    buf.substr(kHeaderBytes, end - kHeaderBytes);
    }

    bool recovery_failed = false;
    if (rewrite && !stats_.read_only) {
        obs::Span rewrite_span("exec.journal", "rewrite");
        if (stats_.quarantined_bytes > 0) {
            if (atomicWrite(quarantinePath(dir_), buf))
                stats_.quarantined = true;
            else
                sim::warn("journal '%s': cannot write quarantine file",
                          path_.c_str());
        }
        if (!atomicWrite(path_, valid)) {
            // The file still holds the corrupt tail; appending after
            // it would bury new records behind garbage. Keep what was
            // replayed in memory and stop persisting for the session.
            sim::warn("journal '%s': cannot rewrite after recovery; "
                      "disabling persistence for this session",
                      path_.c_str());
            ++write_errors_;
            recovery_failed = true;
        }
    }

    if (!stats_.read_only && !recovery_failed) {
        out_ = std::fopen(path_.c_str(), "ab");
        if (!out_)
            sim::fatal("journal '%s': cannot open for append (%s)",
                       path_.c_str(), std::strerror(errno));
        good_offset_ = rewrite ? valid.size() : buf.size();
    }
    return stats_;
}

void
Journal::append(const Fingerprint &key, const RunResult &result)
{
    if (!out_) {
        ++skipped_appends_;
        return;
    }
    std::string payload = encodeJournalPayload(key, result);
    std::string record;
    putU32(record, static_cast<std::uint32_t>(payload.size()));
    putU32(record, crc32(payload.data(), payload.size()));
    record.append(payload);

    chaos::FsFault fault;
    if (chaos::FsHooks *h = chaos::fsHooks())
        fault = h->onJournalAppend(records_, record.size());

    if (fault.kind == chaos::FsFaultKind::Crash) {
        // Simulated process death mid-record: a prefix of the framed
        // record lands, then the stream vanishes with no cleanup —
        // the torn tail is left on disk for the next load() to
        // quarantine, and no committed count is ever stamped.
        std::size_t keep = std::min(fault.keep_bytes, record.size());
        if (keep > 0) {
            (void)std::fwrite(record.data(), 1, keep, out_);
            (void)std::fflush(out_);
        }
        std::fclose(out_);
        out_ = nullptr;
        crashed_ = true;
        ++skipped_appends_;
        return;
    }

    errno = 0;
    const char *why = nullptr;
    switch (fault.kind) {
    case chaos::FsFaultKind::None:
        if (std::fwrite(record.data(), 1, record.size(), out_) !=
                record.size() ||
            std::fflush(out_) != 0) {
            if (errno == ENOSPC)
                disk_full_ = true;
            why = std::strerror(errno);
        }
        break;
    case chaos::FsFaultKind::ShortWrite:
    case chaos::FsFaultKind::Enospc: {
        // The device accepted only a prefix; the partial record is on
        // disk and must be rolled back below.
        std::size_t keep =
            std::min(fault.keep_bytes, record.size() - 1);
        (void)std::fwrite(record.data(), 1, keep, out_);
        (void)std::fflush(out_);
        if (fault.kind == chaos::FsFaultKind::Enospc) {
            disk_full_ = true;
            why = std::strerror(ENOSPC);
        } else {
            why = "injected short write";
        }
        break;
    }
    case chaos::FsFaultKind::FsyncFail:
        // The record reached the kernel but the flush reported
        // failure, so its durability is unknown — treat the append
        // as failed and roll it back rather than trust the tail.
        (void)std::fwrite(record.data(), 1, record.size(), out_);
        (void)std::fflush(out_);
        why = "injected fsync failure";
        break;
    default:
        why = "injected fault"; // RenameFail is meaningless here
        break;
    }

    if (!why) {
        ++records_;
        good_offset_ += record.size();
        return;
    }

    // Failed append: never leave a torn record behind. Roll the file
    // back to the last good record boundary so replays (and our own
    // later appends) see a clean prefix.
    ++write_errors_;
    ++skipped_appends_;
    (void)std::fflush(out_);
    bool rolled_back =
        ::truncate(path_.c_str(),
                   static_cast<off_t>(good_offset_)) == 0;
    if (disk_full_) {
        sim::warn("journal '%s': append failed (%s); disk full — "
                  "disabling persistence for this session",
                  path_.c_str(), why);
        std::fclose(out_);
        out_ = nullptr;
    } else if (!rolled_back) {
        sim::warn("journal '%s': append failed (%s) and the torn "
                  "record cannot be rolled back (%s); disabling "
                  "persistence for this session", path_.c_str(), why,
                  std::strerror(errno));
        std::fclose(out_);
        out_ = nullptr;
    } else {
        // Transient failure, clean rollback: the stream is in append
        // mode, so the next write lands at the restored end of file.
        sim::warn("journal '%s': append failed (%s); rolled back to "
                  "last good record boundary", path_.c_str(), why);
    }
}

bool
Journal::compact(
    const std::vector<std::pair<Fingerprint, RunResult>> &entries)
{
    if (!out_) // read-only: the owner compacts, we only observe
        return false;
    obs::Span span("exec.journal",
                   "compact to=" + std::to_string(entries.size()));
    std::string content =
        headerBytes(static_cast<std::uint32_t>(entries.size()));
    for (const auto &[key, result] : entries) {
        std::string payload = encodeJournalPayload(key, result);
        putU32(content, static_cast<std::uint32_t>(payload.size()));
        putU32(content, crc32(payload.data(), payload.size()));
        content.append(payload);
    }
    // Close the append stream across the rename so no buffered write
    // can land on the unlinked inode.
    std::fclose(out_);
    out_ = nullptr;
    bool replaced = atomicWrite(path_, content);
    if (!replaced) {
        sim::warn("journal '%s': compaction rewrite failed; keeping "
                  "the uncompacted file", path_.c_str());
        ++write_errors_;
    } else {
        records_ = entries.size();
        good_offset_ = content.size();
        ++compactions_;
    }
    out_ = std::fopen(path_.c_str(), "ab");
    if (!out_) {
        sim::warn("journal '%s': cannot reopen for append after "
                  "compaction (%s); disabling persistence",
                  path_.c_str(), std::strerror(errno));
        ++write_errors_;
        return false;
    }
    return replaced;
}

JournalVerifyReport
Journal::verify(const std::string &dir)
{
    JournalVerifyReport rep;
    std::string path = journalPath(dir);
    std::string buf;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return rep;
        std::ostringstream os;
        os << in.rdbuf();
        buf = os.str();
    }
    rep.exists = true;
    rep.total_bytes = buf.size();
    rep.header_ok = headerOk(buf);
    if (!rep.header_ok) {
        rep.error = "bad magic or format version";
        return rep;
    }
    std::size_t records = 0;
    std::size_t end = scanRecords(buf, &records, &rep.error, nullptr);
    rep.valid_records = records;
    rep.valid_bytes = end;
    rep.committed_records = committedCount(buf);
    if (rep.error.empty() && rep.valid_records < rep.committed_records) {
        std::ostringstream os;
        os << "tail truncated on a record boundary: header commits "
           << rep.committed_records << " record(s), replay found "
           << rep.valid_records;
        rep.error = os.str();
    }
    return rep;
}

long
Journal::lockHolder(const std::string &dir)
{
    long owner = 0;
    if (std::ifstream in(lockPath(dir)); in)
        in >> owner;
    if (owner <= 0)
        return 0;
    if (::kill(static_cast<pid_t>(owner), 0) == 0 || errno != ESRCH)
        return owner; // live (or at least not provably dead)
    return 0;
}

std::uint64_t
Journal::clear(const std::string &dir)
{
    std::uint64_t removed = 0;
    for (const std::string &p : {journalPath(dir), quarantinePath(dir)}) {
        std::error_code ec;
        auto size = fs::file_size(p, ec);
        if (!ec && fs::remove(p, ec) && !ec)
            removed += size;
    }
    return removed;
}

} // namespace mlps::exec
