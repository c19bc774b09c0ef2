/**
 * @file
 * Tests for the chaos-injection layer: seeded fault schedules, the
 * journal's behaviour under injected ENOSPC / fsync failure / crash
 * at every record boundary, committed-record-count truncation
 * detection, a 10k-line protocol fuzz against ServeCore, and a small
 * end-to-end soak replayed for determinism.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "chaos/hooks.h"
#include "chaos/schedule.h"
#include "chaos/soak.h"
#include "exec/engine.h"
#include "exec/journal.h"
#include "models/zoo.h"
#include "obs/registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/rng.h"
#include "sys/machines.h"

namespace {

using namespace mlps;

/** Fresh per-test scratch directory (removed up front, not after). */
std::string
tempDir(const std::string &name)
{
    auto dir = std::filesystem::temp_directory_path() /
               ("mlpsim_chaos_" + name + "_" +
                std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    return dir.string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
dump(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

exec::Fingerprint
keyOf(std::uint64_t i)
{
    return exec::Fingerprint{0x1000 + i, ~i};
}

/** Append `n` synthetic records (distinct keys, default results). */
void
appendRecords(exec::Journal *j, std::uint64_t n,
              std::uint64_t first = 0)
{
    exec::RunResult r;
    for (std::uint64_t i = 0; i < n; ++i)
        j->append(keyOf(first + i), r);
}

/** Byte offset of the end of each record (parsed from the framing). */
std::vector<std::size_t>
recordBoundaries(const std::string &bytes)
{
    std::vector<std::size_t> ends;
    std::size_t off = 16; // magic + version + committed count
    while (off + 8 <= bytes.size()) {
        std::uint32_t len = 0;
        for (int b = 0; b < 4; ++b)
            len |= static_cast<std::uint32_t>(
                       static_cast<unsigned char>(bytes[off + b]))
                   << (8 * b);
        off += 8 + len;
        if (off > bytes.size())
            break;
        ends.push_back(off);
    }
    return ends;
}

// ---- sim::RngStreams ------------------------------------------------

TEST(RngStreams, SameLabelSameSeedIsSameStream)
{
    sim::RngStreams a(42), b(42);
    sim::Rng x = a.stream("chaos.net");
    sim::Rng y = b.stream("chaos.net");
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(x.next(), y.next());
}

TEST(RngStreams, StreamsAreOrderIndependent)
{
    // Taking other streams first must not perturb a stream — the
    // property Rng::fork() lacks and the chaos schedules rely on.
    sim::RngStreams a(7), b(7);
    (void)a.stream("first");
    (void)a.stream("second");
    sim::Rng x = a.stream("chaos.fs.rename");
    sim::Rng y = b.stream("chaos.fs.rename");
    EXPECT_EQ(x.next(), y.next());
}

TEST(RngStreams, DistinctLabelsAndSeedsDecorrelate)
{
    sim::RngStreams s(42);
    EXPECT_NE(s.stream("a").next(), s.stream("b").next());
    EXPECT_NE(sim::RngStreams(1).stream("a").next(),
              sim::RngStreams(2).stream("a").next());
}

// ---- chaos::ChaosSpec -----------------------------------------------

TEST(ChaosSpec, ParsesDimensionsAndAll)
{
    chaos::ChaosSpec spec;
    std::string error;
    ASSERT_TRUE(chaos::ChaosSpec::parse("fs,clock", &spec, &error));
    EXPECT_TRUE(spec.fs);
    EXPECT_FALSE(spec.net);
    EXPECT_TRUE(spec.clock);
    EXPECT_EQ(spec.canonical(), "fs,clock");

    ASSERT_TRUE(chaos::ChaosSpec::parse("all", &spec, &error));
    EXPECT_TRUE(spec.fs && spec.net && spec.clock);
    EXPECT_EQ(spec.canonical(), "fs,net,clock");

    ASSERT_TRUE(chaos::ChaosSpec::parse(" net , fs ", &spec, &error));
    EXPECT_EQ(spec.canonical(), "fs,net");

    ASSERT_TRUE(chaos::ChaosSpec::parse("", &spec, &error));
    EXPECT_FALSE(spec.any());
    EXPECT_EQ(spec.canonical(), "none");
}

TEST(ChaosSpec, RejectsUnknownDimension)
{
    chaos::ChaosSpec spec;
    std::string error;
    EXPECT_FALSE(chaos::ChaosSpec::parse("fs,disk", &spec, &error));
    EXPECT_NE(error.find("disk"), std::string::npos);
}

// ---- hook installation ----------------------------------------------

TEST(ScopedChaos, InstallsAndRestores)
{
    EXPECT_EQ(chaos::fsHooks(), nullptr);
    chaos::ScheduledFsHooks fs(1);
    chaos::ScheduledNetHooks net(1);
    {
        chaos::ScopedChaos guard(&fs, &net, nullptr);
        EXPECT_EQ(chaos::fsHooks(), &fs);
        EXPECT_EQ(chaos::netHooks(), &net);
        EXPECT_EQ(chaos::clockHooks(), nullptr);
    }
    EXPECT_EQ(chaos::fsHooks(), nullptr);
    EXPECT_EQ(chaos::netHooks(), nullptr);
}

/** Forces one chosen fault, once, at one chosen append index (a
 *  rolled-back append retries at the same index, so without the
 *  latch the fault would repeat forever). */
struct OneShotFsHooks final : chaos::FsHooks {
    std::size_t at = 0;
    chaos::FsFaultKind kind = chaos::FsFaultKind::None;
    std::size_t keep = 0;
    std::size_t consults = 0;
    bool fired = false;

    chaos::FsFault
    onJournalAppend(std::size_t index, std::size_t bytes) override
    {
        ++consults;
        (void)bytes;
        chaos::FsFault f;
        if (index == at && !fired) {
            fired = true;
            f.kind = kind;
            f.keep_bytes = keep;
        }
        return f;
    }
};

// ---- journal under injected faults ----------------------------------

TEST(JournalChaos, EnospcAtEveryIndexDisablesPersistenceCleanly)
{
    for (std::size_t k = 0; k < 10; ++k) {
        std::string dir =
            tempDir("enospc_" + std::to_string(k));
        OneShotFsHooks hooks;
        hooks.at = k;
        hooks.kind = chaos::FsFaultKind::Enospc;
        hooks.keep = 3;
        {
            chaos::ScopedChaos guard(&hooks, nullptr, nullptr);
            exec::Journal j(dir);
            j.load([](const exec::Fingerprint &,
                      exec::RunResult &&) {});
            appendRecords(&j, 10);
            EXPECT_TRUE(j.diskFull());
            EXPECT_FALSE(j.persistent());
            EXPECT_EQ(j.writeErrors(), 1u);
            EXPECT_EQ(j.records(), k);
        }
        // The partial record was rolled back: the file is a clean
        // k-record journal, replayable without quarantine.
        exec::JournalVerifyReport v = exec::Journal::verify(dir);
        EXPECT_TRUE(v.exists);
        EXPECT_FALSE(v.corrupt()) << v.error;
        EXPECT_EQ(v.valid_records, k);

        exec::Journal j2(dir);
        std::size_t loaded = 0;
        j2.load([&](const exec::Fingerprint &, exec::RunResult &&) {
            ++loaded;
        });
        EXPECT_EQ(loaded, k);
        EXPECT_FALSE(j2.stats().quarantined);
    }
}

TEST(JournalChaos, FsyncFailureRollsBackAndLaterAppendsLand)
{
    std::string dir = tempDir("fsyncfail");
    OneShotFsHooks hooks;
    hooks.at = 2;
    hooks.kind = chaos::FsFaultKind::FsyncFail;
    {
        chaos::ScopedChaos guard(&hooks, nullptr, nullptr);
        exec::Journal j(dir);
        j.load([](const exec::Fingerprint &, exec::RunResult &&) {});
        appendRecords(&j, 6);
        // Record 2 failed its flush and was rolled back; the stream
        // stayed open and records 3..5 landed after it.
        EXPECT_EQ(j.writeErrors(), 1u);
        EXPECT_FALSE(j.diskFull());
        EXPECT_TRUE(j.persistent());
        EXPECT_EQ(j.records(), 5u);
    }
    exec::JournalVerifyReport v = exec::Journal::verify(dir);
    EXPECT_FALSE(v.corrupt()) << v.error;
    EXPECT_EQ(v.valid_records, 5u);
    EXPECT_EQ(v.committed_records, 5u); // clean close stamped it
}

TEST(JournalChaos, InjectedCrashAtEveryIndexRecoversOnReload)
{
    constexpr std::uint64_t kRecords = 8;
    for (std::size_t k = 0; k < kRecords; ++k) {
        std::string dir = tempDir("crash_" + std::to_string(k));
        OneShotFsHooks hooks;
        hooks.at = k;
        hooks.kind = chaos::FsFaultKind::Crash;
        hooks.keep = 5; // torn mid-frame
        {
            chaos::ScopedChaos guard(&hooks, nullptr, nullptr);
            exec::Journal j(dir);
            j.load([](const exec::Fingerprint &,
                      exec::RunResult &&) {});
            appendRecords(&j, kRecords);
            // The stream died at record k; later appends are skipped.
            EXPECT_FALSE(j.persistent());
            EXPECT_EQ(j.records(), k);
        }
        // The torn tail is on disk; a fresh journal quarantines it,
        // replays the k good records, and can append again.
        {
            exec::Journal j2(dir);
            std::size_t loaded = 0;
            j2.load(
                [&](const exec::Fingerprint &, exec::RunResult &&) {
                    ++loaded;
                });
            EXPECT_EQ(loaded, k);
            EXPECT_TRUE(j2.stats().quarantined);
            appendRecords(&j2, kRecords - k, /*first=*/k);
            EXPECT_EQ(j2.records(), kRecords);
        }
        exec::JournalVerifyReport v = exec::Journal::verify(dir);
        EXPECT_FALSE(v.corrupt()) << v.error;
        EXPECT_EQ(v.valid_records, kRecords);
        EXPECT_EQ(v.committed_records, kRecords);
    }
}

// ---- crash-point matrix over a 50-record journal --------------------

class JournalCrashPoint : public ::testing::TestWithParam<int>
{
  public:
    static void
    SetUpTestSuite()
    {
        std::string dir = tempDir("crash_matrix_src");
        {
            exec::Journal j(dir);
            j.load([](const exec::Fingerprint &,
                      exec::RunResult &&) {});
            appendRecords(&j, 50);
        } // clean close commits 50 records in the header
        bytes_ = new std::string(
            slurp(exec::Journal::journalPath(dir)));
        ends_ = new std::vector<std::size_t>(
            recordBoundaries(*bytes_));
        ASSERT_EQ(ends_->size(), 50u);
    }

    static void
    TearDownTestSuite()
    {
        delete bytes_;
        delete ends_;
        bytes_ = nullptr;
        ends_ = nullptr;
    }

  protected:
    static std::string *bytes_;
    static std::vector<std::size_t> *ends_;
};

std::string *JournalCrashPoint::bytes_ = nullptr;
std::vector<std::size_t> *JournalCrashPoint::ends_ = nullptr;

TEST_P(JournalCrashPoint, BoundaryTruncationIsDetectedAndCorrected)
{
    const std::size_t k = static_cast<std::size_t>(GetParam());
    std::string dir = tempDir("boundary_" + std::to_string(k));
    std::filesystem::create_directories(dir);
    // Cut exactly after record k: k+1 complete records, bit-clean —
    // only the committed count in the header knows 50 were written.
    dump(exec::Journal::journalPath(dir),
         bytes_->substr(0, (*ends_)[k]));

    exec::JournalVerifyReport v = exec::Journal::verify(dir);
    if (k + 1 == ends_->size()) {
        // Cutting after the last record is the whole file: clean.
        EXPECT_FALSE(v.corrupt()) << v.error;
        EXPECT_EQ(v.committed_records, 50u);
        return;
    }
    EXPECT_TRUE(v.corrupt());
    EXPECT_EQ(v.valid_records, k + 1);
    EXPECT_EQ(v.committed_records, 50u);
    EXPECT_NE(v.error.find("record boundary"), std::string::npos)
        << v.error;

    // Recovery acknowledges the loss once and corrects the header.
    {
        exec::Journal j(dir);
        std::size_t loaded = 0;
        j.load([&](const exec::Fingerprint &, exec::RunResult &&) {
            ++loaded;
        });
        EXPECT_EQ(loaded, k + 1);
    }
    exec::JournalVerifyReport after = exec::Journal::verify(dir);
    EXPECT_FALSE(after.corrupt()) << after.error;
    EXPECT_EQ(after.committed_records, k + 1);
}

TEST_P(JournalCrashPoint, MidRecordTruncationQuarantinesTornTail)
{
    const std::size_t k = static_cast<std::size_t>(GetParam());
    if (k + 1 >= ends_->size())
        return; // no next record to tear
    std::string dir = tempDir("midrec_" + std::to_string(k));
    std::filesystem::create_directories(dir);
    // Cut halfway into record k+1: k+1 complete records + torn tail.
    std::size_t cut =
        (*ends_)[k] + ((*ends_)[k + 1] - (*ends_)[k]) / 2;
    dump(exec::Journal::journalPath(dir), bytes_->substr(0, cut));

    exec::JournalVerifyReport v = exec::Journal::verify(dir);
    EXPECT_TRUE(v.corrupt());
    EXPECT_EQ(v.valid_records, k + 1);

    exec::Journal j(dir);
    std::size_t loaded = 0;
    j.load([&](const exec::Fingerprint &, exec::RunResult &&) {
        ++loaded;
    });
    EXPECT_EQ(loaded, k + 1);
    EXPECT_TRUE(j.stats().quarantined);
    EXPECT_TRUE(
        std::filesystem::exists(exec::Journal::quarantinePath(dir)));
}

INSTANTIATE_TEST_SUITE_P(EveryBoundary, JournalCrashPoint,
                         ::testing::Range(0, 50));

// ---- engine integration ---------------------------------------------

TEST(EngineChaos, DiskFullSurfacesThroughEngineAndRegistry)
{
    std::string dir = tempDir("engine_enospc");
    OneShotFsHooks hooks;
    hooks.at = 0;
    hooks.kind = chaos::FsFaultKind::Enospc;
    chaos::ScopedChaos guard(&hooks, nullptr, nullptr);

    exec::ExecOptions opts(1);
    opts.cache_dir = dir;
    exec::Engine engine(std::move(opts));
    exec::RunRequest req;
    req.system = sys::dss8440();
    req.workload = *models::findWorkload("MLPf_NCF_Py");
    req.options.num_gpus = 1;
    (void)engine.runOne(req);

    ASSERT_NE(engine.journal(), nullptr);
    EXPECT_TRUE(engine.journal()->diskFull());
    EXPECT_EQ(engine.journal()->writeErrors(), 1u);
    bool found = false;
    EXPECT_EQ(obs::MetricRegistry::global().value(
                  "exec.journal.write_errors", &found),
              1.0);
    EXPECT_TRUE(found);
}

// ---- protocol fuzzing -----------------------------------------------

/** Apply 1-3 random mutations (flip/insert/delete/truncate). */
std::string
mutateLine(const std::string &base, sim::Rng *rng)
{
    std::string s = base;
    std::uint64_t edits = 1 + rng->below(3);
    for (std::uint64_t e = 0; e < edits && !s.empty(); ++e) {
        switch (rng->below(4)) {
        case 0: { // flip a byte
            std::size_t at = rng->below(s.size());
            s[at] = static_cast<char>(rng->below(256));
            break;
        }
        case 1: { // insert a byte
            std::size_t at = rng->below(s.size() + 1);
            s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
                     static_cast<char>(rng->below(256)));
            break;
        }
        case 2: { // delete a span
            std::size_t at = rng->below(s.size());
            std::size_t n = 1 + rng->below(8);
            s.erase(at, n);
            break;
        }
        default: // truncate
            s.resize(rng->below(s.size() + 1));
            break;
        }
    }
    return s;
}

TEST(ProtocolFuzz, TenThousandMutatedLinesAlwaysGetOneResponse)
{
    serve::ServeConfig cfg;
    cfg.exec = exec::ExecOptions(1);
    // Effectively unlimited admission: every structurally valid line
    // must reach a verdict on its merits, not on the rate limiter.
    cfg.admission.rate = 1e9;
    cfg.admission.burst = 1e9;

    std::uint64_t responses = 0;
    serve::ServeCore core(cfg, [&](const std::string &,
                                   const std::string &line) {
        ++responses;
        ASSERT_FALSE(line.empty());
        // Every emitted line must decode as a protocol response.
        serve::Response r;
        std::string error;
        EXPECT_TRUE(serve::decodeResponse(line, &r, &error))
            << error << " <- " << line;
    });
    core.clientConnected("c0");
    std::uint64_t hello = responses; // greeting is not an answer
    const std::string base =
        "{\"type\":\"run\",\"id\":\"f\",\"workload\":\"MLPf_NCF_Py\","
        "\"system\":\"DSS 8440\",\"gpus\":1,\"precision\":\"mixed\"}";
    sim::Rng rng = sim::RngStreams(2024).stream("fuzz.protocol");
    constexpr std::uint64_t kLines = 10000;
    for (std::uint64_t i = 0; i < kLines; ++i) {
        core.handleLine("c0", mutateLine(base, &rng),
                        0.001 * static_cast<double>(i + 1));
        if (i % 64 == 0)
            while (core.hasPending())
                core.dispatchBatch();
    }
    while (core.hasPending())
        core.dispatchBatch();
    // Reject-or-result, never silence and never crash: one response
    // per fed line (dedupe merges work, not answers).
    EXPECT_EQ(responses - hello, kLines);

    const exec::EngineStats stats = core.engine().stats();
    EXPECT_EQ(stats.cache_hits + stats.unique_runs + stats.degraded -
                  stats.deadline_flags,
              stats.requests);
}

// ---- end-to-end soak ------------------------------------------------

TEST(Soak, SmallSoakPassesAndReplaysByteIdentically)
{
    chaos::SoakOptions opts;
    opts.seed = 5;
    opts.ops = 60;
    opts.cycles = 2;
    opts.clients = 2;
    opts.jobs = 1;
    std::string error;
    ASSERT_TRUE(chaos::ChaosSpec::parse("all", &opts.chaos, &error));
    opts.cache_dir = tempDir("soak_small");

    chaos::SoakReport first = chaos::runSoak(opts);
    EXPECT_TRUE(first.pass) << first.text;
    chaos::SoakReport second = chaos::runSoak(opts);
    EXPECT_EQ(first.text, second.text);
}

} // namespace
