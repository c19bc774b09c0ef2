/**
 * @file
 * Tests for the durable half of the exec layer: journal round trips
 * across engine restarts, tolerate-and-quarantine recovery from
 * truncated/bit-flipped/misversioned journals, read-only double-open,
 * supervised retry/capture semantics, and the degraded-report path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/report.h"
#include "exec/engine.h"
#include "exec/journal.h"
#include "models/zoo.h"
#include "sim/logger.h"
#include "sys/machines.h"

namespace {

using namespace mlps;

exec::RunRequest
requestFor(const std::string &abbrev, int num_gpus,
           bool profiled = false)
{
    exec::RunRequest req;
    req.system = sys::dss8440();
    req.workload = *models::findWorkload(abbrev);
    req.options.num_gpus = num_gpus;
    req.profiled = profiled;
    return req;
}

/** Fresh per-test scratch directory (removed up front, not after). */
std::string
tempDir(const std::string &name)
{
    auto dir = std::filesystem::temp_directory_path() /
               ("mlpsim_persist_" + name + "_" +
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

exec::ExecOptions
durableOpts(const std::string &dir, int jobs = 1)
{
    exec::ExecOptions opts(jobs);
    opts.cache_dir = dir;
    return opts;
}

TEST(JournalPersist, PayloadRoundTripIsBitExact)
{
    exec::Engine engine(exec::ExecOptions{1});
    exec::RunResult r =
        engine.runOne(requestFor("MLPf_NCF_Py", 2, /*profiled=*/true));
    exec::Fingerprint key = requestFor("MLPf_NCF_Py", 2, true).key();

    std::string payload = exec::encodeJournalPayload(key, r);
    exec::Fingerprint key2;
    exec::RunResult r2;
    ASSERT_TRUE(exec::decodeJournalPayload(payload, &key2, &r2));
    EXPECT_EQ(key, key2);
    EXPECT_EQ(std::memcmp(&r.train.total_seconds,
                          &r2.train.total_seconds, sizeof(double)),
              0);
    EXPECT_EQ(r.train.workload, r2.train.workload);
    EXPECT_EQ(r.profile.records().size(), r2.profile.records().size());

    // A truncated payload must always fail to decode (bit flips are
    // the CRC layer's job, exercised by the journal tests below).
    exec::Fingerprint k3;
    exec::RunResult r3;
    std::string cut = payload.substr(0, payload.size() - 3);
    EXPECT_FALSE(exec::decodeJournalPayload(cut, &k3, &r3));
}

TEST(JournalPersist, WarmRestartServesFromJournal)
{
    std::string dir = tempDir("warm_restart");
    std::vector<exec::RunRequest> batch = {
        requestFor("MLPf_NCF_Py", 1),
        requestFor("MLPf_NCF_Py", 2),
        requestFor("MLPf_SSD_Py", 1, /*profiled=*/true),
    };

    std::vector<exec::RunResult> first;
    {
        exec::Engine engine(durableOpts(dir));
        first = engine.run(batch);
        EXPECT_EQ(engine.stats().unique_runs, 3u);
        ASSERT_NE(engine.journal(), nullptr);
    }

    exec::Engine engine(durableOpts(dir));
    EXPECT_EQ(engine.stats().journal_loaded, 3u);
    std::vector<exec::RunResult> second = engine.run(batch);
    // Nothing re-simulates, and every value is bit-identical to the
    // run that produced the journal.
    EXPECT_EQ(engine.stats().unique_runs, 0u);
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(std::memcmp(&first[i].train.total_seconds,
                              &second[i].train.total_seconds,
                              sizeof(double)),
                  0);
        EXPECT_TRUE(second[i].from_journal);
        EXPECT_EQ(first[i].profile.records().size(),
                  second[i].profile.records().size());
    }
}

// The per-tier all-reduce bytes attribution reads are journal output
// like any other cell: a replayed pod point must carry them bit for
// bit, or a warm `explain` would book every byte intra-node.
TEST(JournalPersist, PodTierBytesSurviveReplayBitExactly)
{
    const sys::SystemConfig pod = sys::withPod(sys::c4140M(), 16, 8);
    for (const sys::SystemConfig &system :
         {pod, sys::withSpineDegraded(pod, 0.25)}) {
        SCOPED_TRACE(system.name);
        std::string dir = tempDir("pod_tier_bytes");
        exec::RunRequest req;
        req.system = system;
        req.workload = *models::findWorkload("MLPf_Res50_MX");
        req.options.num_gpus = 512;

        exec::RunResult cold;
        {
            exec::Engine engine(durableOpts(dir));
            cold = engine.runOne(req);
        }
        const double *tiers = cold.train.iter.comm_tier_bytes;
        for (int t = 0; t < net::kNumFabricTiers; ++t)
            EXPECT_GT(tiers[t], 0.0) << "tier " << t;

        exec::Engine engine(durableOpts(dir));
        exec::RunResult warm = engine.runOne(req);
        EXPECT_TRUE(warm.from_journal);
        EXPECT_EQ(engine.stats().unique_runs, 0u);
        EXPECT_EQ(std::memcmp(tiers, warm.train.iter.comm_tier_bytes,
                              sizeof(cold.train.iter.comm_tier_bytes)),
                  0);
    }
}

TEST(JournalPersist, KillResumeSimulatesOnlyRemainingPoints)
{
    std::string dir = tempDir("kill_resume");
    std::vector<exec::RunRequest> all = {
        requestFor("MLPf_NCF_Py", 1), requestFor("MLPf_NCF_Py", 2),
        requestFor("MLPf_NCF_Py", 4), requestFor("MLPf_SSD_Py", 1),
        requestFor("MLPf_SSD_Py", 2),
    };

    {
        // "Killed" campaign: only the first three points ran. The
        // engine is destroyed abruptly afterwards; every appended
        // record was already flushed.
        exec::Engine engine(durableOpts(dir));
        engine.run({all[0], all[1], all[2]});
    }

    exec::Engine engine(durableOpts(dir));
    engine.run(all);
    // Resume simulates exactly the two missing points.
    EXPECT_EQ(engine.stats().journal_loaded, 3u);
    EXPECT_EQ(engine.stats().unique_runs, 2u);
}

TEST(JournalPersist, TruncatedTailQuarantinesAndResumes)
{
    std::string dir = tempDir("truncated");
    std::vector<exec::RunRequest> batch = {
        requestFor("MLPf_NCF_Py", 1),
        requestFor("MLPf_NCF_Py", 2),
        requestFor("MLPf_NCF_Py", 4),
    };
    {
        exec::Engine engine(durableOpts(dir));
        engine.run(batch);
    }

    // Simulate a crash mid-append: chop bytes off the last record.
    std::string path = exec::Journal::journalPath(dir);
    auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 5);

    exec::Engine engine(durableOpts(dir));
    EXPECT_EQ(engine.stats().journal_loaded, 2u);
    ASSERT_NE(engine.journal(), nullptr);
    EXPECT_TRUE(engine.journal()->stats().quarantined);
    EXPECT_TRUE(std::filesystem::exists(
        exec::Journal::quarantinePath(dir)));
    // The quarantine preserves the whole original (damaged) file.
    EXPECT_EQ(std::filesystem::file_size(
                  exec::Journal::quarantinePath(dir)),
              size - 5);

    engine.run(batch);
    EXPECT_EQ(engine.stats().unique_runs, 1u); // only the lost point

    // After the rewrite the journal verifies clean again.
    exec::JournalVerifyReport v = exec::Journal::verify(dir);
    EXPECT_TRUE(v.exists);
    EXPECT_FALSE(v.corrupt());
    EXPECT_EQ(v.valid_records, 3u);
}

TEST(JournalPersist, BitFlippedRecordQuarantinesTail)
{
    std::string dir = tempDir("bitflip");
    std::vector<exec::RunRequest> batch = {
        requestFor("MLPf_NCF_Py", 1),
        requestFor("MLPf_NCF_Py", 2),
    };
    {
        exec::Engine engine(durableOpts(dir));
        engine.run(batch);
    }

    std::string path = exec::Journal::journalPath(dir);
    std::string bytes = slurp(path);
    ASSERT_GT(bytes.size(), 16u);
    bytes[bytes.size() - 10] =
        static_cast<char>(bytes[bytes.size() - 10] ^ 0x01);
    dump(path, bytes);

    exec::Engine engine(durableOpts(dir));
    // The CRC catches the flip; the valid prefix (first record)
    // survives, the rest is quarantined.
    EXPECT_EQ(engine.stats().journal_loaded, 1u);
    ASSERT_NE(engine.journal(), nullptr);
    EXPECT_TRUE(engine.journal()->stats().quarantined);
    engine.run(batch);
    EXPECT_EQ(engine.stats().unique_runs, 1u);
}

TEST(JournalPersist, WrongVersionQuarantinesWholeFile)
{
    std::string dir = tempDir("wrong_version");
    {
        exec::Engine engine(durableOpts(dir));
        engine.runOne(requestFor("MLPf_NCF_Py", 1));
    }

    std::string path = exec::Journal::journalPath(dir);
    std::string bytes = slurp(path);
    ASSERT_GT(bytes.size(), 16u);
    bytes[8] = static_cast<char>(0x7f); // version field, little-endian
    dump(path, bytes);

    exec::Engine engine(durableOpts(dir));
    EXPECT_EQ(engine.stats().journal_loaded, 0u);
    ASSERT_NE(engine.journal(), nullptr);
    EXPECT_TRUE(engine.journal()->stats().quarantined);
    // The journal restarts fresh and is writable again.
    engine.runOne(requestFor("MLPf_NCF_Py", 1));
    EXPECT_EQ(engine.stats().unique_runs, 1u);
    exec::JournalVerifyReport v = exec::Journal::verify(dir);
    EXPECT_TRUE(v.header_ok);
    EXPECT_FALSE(v.corrupt());
    EXPECT_EQ(v.valid_records, 1u);
}

// Version 3 records end before the per-tier bytes; replaying one
// would misread every later field, so the whole file is quarantined.
TEST(JournalPersist, VersionThreeJournalIsQuarantined)
{
    std::string dir = tempDir("version_three");
    {
        exec::Engine engine(durableOpts(dir));
        engine.runOne(requestFor("MLPf_NCF_Py", 2));
    }

    std::string path = exec::Journal::journalPath(dir);
    std::string bytes = slurp(path);
    ASSERT_GT(bytes.size(), 16u);
    ASSERT_EQ(static_cast<unsigned char>(bytes[8]),
              exec::Journal::kVersion);
    bytes[8] = 3; // u32 version, little-endian
    dump(path, bytes);
    EXPECT_FALSE(exec::Journal::verify(dir).header_ok);

    exec::Engine engine(durableOpts(dir));
    EXPECT_EQ(engine.stats().journal_loaded, 0u);
    ASSERT_NE(engine.journal(), nullptr);
    EXPECT_TRUE(engine.journal()->stats().quarantined);
    engine.runOne(requestFor("MLPf_NCF_Py", 2));
    EXPECT_EQ(engine.stats().unique_runs, 1u);
}

TEST(JournalPersist, ConcurrentDoubleOpenDegradesToReadOnly)
{
    std::string dir = tempDir("double_open");
    exec::Engine owner(durableOpts(dir));
    owner.runOne(requestFor("MLPf_NCF_Py", 1));

    // Same process, same live pid in the lock file: the second
    // opener must load the journal but never write to it.
    exec::Engine second(durableOpts(dir));
    ASSERT_NE(second.journal(), nullptr);
    EXPECT_TRUE(second.journal()->stats().read_only);
    EXPECT_EQ(second.stats().journal_loaded, 1u);

    auto before = std::filesystem::file_size(
        exec::Journal::journalPath(dir));
    second.runOne(requestFor("MLPf_NCF_Py", 2));
    EXPECT_EQ(second.journal()->skippedAppends(), 1u);
    EXPECT_EQ(std::filesystem::file_size(
                  exec::Journal::journalPath(dir)),
              before);

    // The owner keeps appending normally.
    owner.runOne(requestFor("MLPf_NCF_Py", 2));
    EXPECT_GT(std::filesystem::file_size(
                  exec::Journal::journalPath(dir)),
              before);
}

TEST(JournalPersist, ClearRemovesJournalAndQuarantine)
{
    std::string dir = tempDir("clear");
    {
        exec::Engine engine(durableOpts(dir));
        engine.runOne(requestFor("MLPf_NCF_Py", 1));
    }
    EXPECT_TRUE(std::filesystem::exists(
        exec::Journal::journalPath(dir)));
    EXPECT_GT(exec::Journal::clear(dir), 0u);
    EXPECT_FALSE(std::filesystem::exists(
        exec::Journal::journalPath(dir)));
    EXPECT_FALSE(exec::Journal::verify(dir).exists);
}

TEST(Supervise, CaptureTurnsFailuresIntoRunErrors)
{
    exec::ExecOptions opts(1);
    opts.on_error = exec::ErrorPolicy::Capture;
    exec::Engine engine(opts);
    engine.setEvalHook([](const exec::RunRequest &req, int) {
        if (req.workload.abbrev == "MLPf_NCF_Py")
            sim::fatal("injected failure for %s",
                       req.workload.abbrev.c_str());
    });

    auto results = engine.run({requestFor("MLPf_NCF_Py", 1),
                               requestFor("MLPf_SSD_Py", 1)});
    ASSERT_EQ(results.size(), 2u);
    ASSERT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].error->reason, "config");
    EXPECT_EQ(results[0].error->workload, "MLPf_NCF_Py");
    EXPECT_TRUE(std::isnan(results[0].train.total_seconds));
    // The healthy point of the batch still simulated.
    EXPECT_TRUE(results[1].ok());
    EXPECT_GT(results[1].train.total_seconds, 0.0);

    ASSERT_EQ(engine.degradedRuns().size(), 1u);
    EXPECT_EQ(engine.degradedRuns()[0].workload, "MLPf_NCF_Py");
    EXPECT_EQ(engine.stats().degraded, 1u);

    // Failures are never cached: the same request fails afresh (and
    // deterministically) instead of serving a poisoned entry.
    auto again = engine.runOne(requestFor("MLPf_NCF_Py", 1));
    EXPECT_FALSE(again.ok());
    EXPECT_FALSE(again.cache_hit);
    EXPECT_EQ(engine.degradedRuns().size(), 2u);
}

TEST(Supervise, ThrowPolicyStillCachesBatchSuccesses)
{
    exec::Engine engine(exec::ExecOptions{1});
    engine.setEvalHook([](const exec::RunRequest &req, int) {
        if (req.workload.abbrev == "MLPf_NCF_Py")
            sim::fatal("injected");
    });
    EXPECT_THROW(engine.run({requestFor("MLPf_SSD_Py", 1),
                             requestFor("MLPf_NCF_Py", 1)}),
                 sim::FatalError);
    // The healthy point was published before the rethrow.
    EXPECT_EQ(engine.stats().unique_runs, 1u);
    engine.setEvalHook(nullptr);
    auto r = engine.runOne(requestFor("MLPf_SSD_Py", 1));
    EXPECT_TRUE(r.cache_hit);
}

TEST(Supervise, TransientFailuresRetryWithDeterministicBackoff)
{
    exec::ExecOptions opts(1);
    opts.on_error = exec::ErrorPolicy::Capture;
    exec::Engine engine(opts);
    engine.setEvalHook([](const exec::RunRequest &, int attempt) {
        if (attempt <= 2)
            throw exec::TransientError("flaky harness");
    });

    auto r = engine.runOne(requestFor("MLPf_NCF_Py", 1));
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.attempts, 3);
    EXPECT_EQ(engine.stats().retries, 2u);
    // Backoff is simulated and exactly min(cap, base * 2^(k-1)):
    // 0.25 + 0.5 with the default policy.
    EXPECT_DOUBLE_EQ(engine.stats().backoff_seconds, 0.75);
}

TEST(Supervise, TransientExhaustionIsCaptured)
{
    exec::ExecOptions opts(1);
    opts.on_error = exec::ErrorPolicy::Capture;
    opts.retry.max_attempts = 2;
    exec::Engine engine(opts);
    engine.setEvalHook([](const exec::RunRequest &, int) {
        throw exec::TransientError("always down");
    });

    auto r = engine.runOne(requestFor("MLPf_NCF_Py", 1));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error->reason, "transient");
    EXPECT_TRUE(r.error->transient);
    EXPECT_EQ(r.error->attempts, 2);
    EXPECT_DOUBLE_EQ(r.error->backoff_s, 0.25);
}

TEST(Supervise, BackoffScheduleIsCappedExponential)
{
    exec::RetryPolicy p;
    p.backoff_base_s = 1.0;
    p.backoff_cap_s = 4.0;
    EXPECT_DOUBLE_EQ(exec::backoffSeconds(p, 1), 1.0);
    EXPECT_DOUBLE_EQ(exec::backoffSeconds(p, 2), 2.0);
    EXPECT_DOUBLE_EQ(exec::backoffSeconds(p, 3), 4.0);
    EXPECT_DOUBLE_EQ(exec::backoffSeconds(p, 10), 4.0); // capped
}

TEST(Supervise, DeadlineWatchdogFlagsButNeverKills)
{
    // An overrun finishes its run, then becomes a "deadline" error
    // that is neither cached nor journaled.
    std::string dir = tempDir("deadline");
    {
        exec::ExecOptions opts = durableOpts(dir);
        opts.on_error = exec::ErrorPolicy::Capture;
        opts.run_deadline_s = 1e-12; // everything overruns
        exec::Engine engine(opts);
        auto r = engine.runOne(requestFor("MLPf_NCF_Py", 1));
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error->reason, "deadline");
        EXPECT_TRUE(r.deadline_flagged);
        EXPECT_EQ(engine.stats().deadline_flags, 1u);

        // The rerun misses the cache and overruns again.
        auto again = engine.runOne(requestFor("MLPf_NCF_Py", 1));
        ASSERT_FALSE(again.ok());
        EXPECT_EQ(again.error->reason, "deadline");
        EXPECT_FALSE(again.cache_hit);
        EXPECT_EQ(engine.stats().cache_hits, 0u);
        EXPECT_EQ(engine.stats().deadline_flags, 2u);
    }
    exec::Engine reopened(durableOpts(dir));
    EXPECT_EQ(reopened.stats().journal_loaded, 0u);
    EXPECT_EQ(reopened.cache().size(), 0u);
    std::filesystem::remove_all(dir);
}

/** Reduced study keeping runtimes small while touching two tables. */
core::ReportOptions
smallReport()
{
    core::ReportOptions opts;
    opts.include_scaling = false;
    opts.include_topology = false;
    opts.include_characterization = false;
    opts.include_faults = false;
    opts.include_pod_scale = false; // covered by pod_fabric_test
    opts.jobs = 1;
    return opts;
}

TEST(Report, InjectedFailureDegradesCellsAndAppendsRunLog)
{
    auto render = [](int jobs) {
        exec::ExecOptions eopts(jobs);
        eopts.on_error = exec::ErrorPolicy::Capture;
        exec::Engine engine(eopts);
        engine.setEvalHook([](const exec::RunRequest &req, int) {
            if (req.workload.abbrev == "MLPf_GNMT_Py")
                sim::fatal("injected gnmt failure");
        });
        core::ReportOptions opts = smallReport();
        std::string text = core::generateStudyReport(opts, engine);
        EXPECT_FALSE(engine.degradedRuns().empty());
        return text;
    };

    std::string text = render(1);
    // The failed workload renders as an ERROR cell, healthy rows
    // keep their numbers, and the appendix names the failure.
    EXPECT_NE(text.find("| MLPf_GNMT_Py | ERROR(config) |"),
              std::string::npos);
    EXPECT_NE(text.find("| MLPf_NCF_Py | "), std::string::npos);
    EXPECT_NE(text.find("## Degraded runs"), std::string::npos);
    EXPECT_NE(text.find("injected gnmt failure"), std::string::npos);
    // Scheduling drops the job with the failed width curve.
    EXPECT_NE(text.find("MLPf_GNMT_Py (ERROR(config))"),
              std::string::npos);

    // Degraded bytes are as deterministic as healthy ones.
    EXPECT_EQ(text, render(4));
}

TEST(Report, BytesIdenticalAcrossJournalWarmth)
{
    std::string dir = tempDir("report_warmth");
    core::ReportOptions opts = smallReport();

    std::string cold, warm;
    {
        exec::Engine engine(durableOpts(dir, 1));
        cold = core::generateStudyReport(opts, engine);
        EXPECT_GT(engine.stats().unique_runs, 0u);
    }
    {
        exec::Engine engine(durableOpts(dir, 4));
        warm = core::generateStudyReport(opts, engine);
        // Every point replays from the journal; nothing simulates.
        EXPECT_EQ(engine.stats().unique_runs, 0u);
        EXPECT_GT(engine.stats().journal_loaded, 0u);
    }
    EXPECT_EQ(cold, warm);
}

} // namespace
