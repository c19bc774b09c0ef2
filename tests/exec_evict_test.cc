/**
 * @file
 * Tests for the bounded RunCache: LRU eviction order under
 * interleaved hits, byte-budget accounting, survival of evicted
 * entries in the journal, compaction round-trip bit-exactness, and
 * determinism of batch output with a cache far too small for the
 * working set.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "exec/journal.h"
#include "models/zoo.h"
#include "sys/machines.h"

#include "scratch_dir.h"

namespace {

using namespace mlps;

exec::RunRequest
requestFor(const std::string &abbrev, int num_gpus)
{
    exec::RunRequest req;
    req.system = sys::dss8440();
    req.workload = *models::findWorkload(abbrev);
    req.options.num_gpus = num_gpus;
    return req;
}

/** Distinct single-workload requests: GPU counts the DSS 8440 owns,
 *  then the same counts again at fp32 — up to 8 distinct points. */
std::vector<exec::RunRequest>
distinctRequests(std::size_t n)
{
    std::vector<exec::RunRequest> reqs;
    for (std::size_t i = 0; i < n; ++i) {
        auto req = requestFor("MLPf_NCF_Py", 1 << (i % 4));
        if (i >= 4)
            req.options.precision = hw::Precision::FP32;
        reqs.push_back(std::move(req));
    }
    return reqs;
}

TEST(RunCacheBudget, EvictsLeastRecentlyUsedFirst)
{
    exec::RunCache cache;
    cache.setBudget({/*max_entries=*/3, /*max_bytes=*/0});
    auto reqs = distinctRequests(4);

    exec::RunResult r;
    r.train.workload = "w";
    for (int i = 0; i < 3; ++i)
        cache.insert(reqs[static_cast<std::size_t>(i)].key(), r);
    ASSERT_EQ(cache.size(), 3u);

    // Touch the oldest entry: it becomes most-recently-used, so the
    // *second* insert order entry must be the eviction victim.
    ASSERT_TRUE(cache.lookup(reqs[0].key()).has_value());

    cache.insert(reqs[3].key(), r);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_TRUE(cache.lookup(reqs[0].key()).has_value());
    EXPECT_FALSE(cache.lookup(reqs[1].key()).has_value());
    EXPECT_TRUE(cache.lookup(reqs[2].key()).has_value());
    EXPECT_TRUE(cache.lookup(reqs[3].key()).has_value());
}

TEST(RunCacheBudget, InterleavedHitsKeepHotEntriesResident)
{
    exec::RunCache cache;
    cache.setBudget({/*max_entries=*/2, /*max_bytes=*/0});
    auto reqs = distinctRequests(4);
    exec::RunResult r;

    cache.insert(reqs[0].key(), r);
    cache.insert(reqs[1].key(), r);
    // Keep reqs[0] hot while streaming two cold entries through.
    ASSERT_TRUE(cache.lookup(reqs[0].key()).has_value());
    cache.insert(reqs[2].key(), r); // evicts reqs[1]
    ASSERT_TRUE(cache.lookup(reqs[0].key()).has_value());
    cache.insert(reqs[3].key(), r); // evicts reqs[2]

    EXPECT_TRUE(cache.lookup(reqs[0].key()).has_value());
    EXPECT_FALSE(cache.lookup(reqs[1].key()).has_value());
    EXPECT_FALSE(cache.lookup(reqs[2].key()).has_value());
    EXPECT_TRUE(cache.lookup(reqs[3].key()).has_value());
    EXPECT_EQ(cache.evictions(), 2u);
}

TEST(RunCacheBudget, ByteBudgetAccountsInsertAndEvict)
{
    exec::RunCache cache;
    exec::RunResult r;
    r.train.workload = "some-workload";
    r.train.system = "some-system";
    const std::uint64_t per_entry =
        exec::RunCache::approxEntryBytes(r);
    ASSERT_GT(per_entry, 0u);

    // Budget for exactly two entries: the third insert must evict.
    cache.setBudget({0, 2 * per_entry});
    auto reqs = distinctRequests(3);
    cache.insert(reqs[0].key(), r);
    cache.insert(reqs[1].key(), r);
    EXPECT_EQ(cache.bytes(), 2 * per_entry);
    cache.insert(reqs[2].key(), r);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.bytes(), 2 * per_entry);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(RunCacheBudget, NeverEvictsBelowOneEntry)
{
    exec::RunCache cache;
    cache.setBudget({0, /*max_bytes=*/1}); // absurdly small
    exec::RunResult r;
    auto reqs = distinctRequests(2);
    cache.insert(reqs[0].key(), r);
    EXPECT_EQ(cache.size(), 1u); // over budget, but retained
    cache.insert(reqs[1].key(), r);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_TRUE(cache.lookup(reqs[1].key()).has_value());
}

TEST(RunCacheBudget, EvictedEntriesSurviveInJournal)
{
    const test::ScratchDir scratch("evict_journal_survival");
    const std::string &dir = scratch.path();
    auto reqs = distinctRequests(3);
    {
        exec::ExecOptions opts(1);
        opts.cache_dir = dir;
        opts.cache_max_entries = 1;
        opts.journal_compact_ratio = 0.0; // keep every record
        exec::Engine engine(std::move(opts));
        engine.run(reqs);
        // Only one entry can be resident...
        EXPECT_EQ(engine.cache().size(), 1u);
        EXPECT_EQ(engine.stats().evictions, 2u);
    }
    // ...but every evaluated point is on disk, so a restart with an
    // unbounded cache replays all three.
    exec::ExecOptions opts(1);
    opts.cache_dir = dir;
    exec::Engine engine(std::move(opts));
    EXPECT_EQ(engine.stats().journal_loaded, 3u);
    auto results = engine.run(reqs);
    EXPECT_EQ(engine.stats().cache_hits, 3u);
    for (const auto &r : results)
        EXPECT_TRUE(r.from_journal);
    std::filesystem::remove_all(dir);
}

TEST(RunCacheBudget, CompactionRoundTripIsBitExact)
{
    const test::ScratchDir scratch("evict_compact");
    const std::string &dir = scratch.path();
    auto reqs = distinctRequests(5);
    std::vector<exec::RunResult> first;
    {
        exec::ExecOptions opts(1);
        opts.cache_dir = dir;
        first = exec::Engine(std::move(opts)).run(reqs);
    }
    // Reopen bounded: replay evicts down to 2 residents; the 5-record
    // journal is mostly cold, so the engine compacts it to the live
    // set after the next publish.
    std::vector<exec::RunResult> second;
    {
        exec::ExecOptions opts(1);
        opts.cache_dir = dir;
        opts.cache_max_entries = 2;
        opts.journal_compact_ratio = 0.9;
        exec::Engine engine(std::move(opts));
        EXPECT_EQ(engine.stats().journal_loaded, 5u);
        // 16-record compaction floor not reached yet: grow the
        // journal past it by re-running with eviction churn.
        for (int round = 0; round < 4; ++round)
            second = engine.run(reqs);
        EXPECT_GE(engine.stats().compactions, 1u);
        ASSERT_TRUE(engine.journal() != nullptr);
        // Without compaction the journal would hold the replayed 5
        // plus 5 fresh records per round; compaction rewrote it down
        // to the live set before the final round appended.
        EXPECT_LT(engine.journal()->records(), 10u);
    }
    // Eviction churn never changed the published numbers.
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(exec::encodeJournalPayload(reqs[i].key(),
                                             first[i]),
                  exec::encodeJournalPayload(reqs[i].key(),
                                             second[i]));

    // The compacted journal still replays, and its payloads decode
    // bit-exactly to what the uncompacted engine produced.
    exec::ExecOptions opts(1);
    opts.cache_dir = dir;
    exec::Engine engine(std::move(opts));
    EXPECT_GT(engine.stats().journal_loaded, 0u);
    auto replayed = engine.run(reqs);
    ASSERT_EQ(replayed.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        std::string a = exec::encodeJournalPayload(
            reqs[i].key(), first[i]);
        std::string b = exec::encodeJournalPayload(
            reqs[i].key(), replayed[i]);
        EXPECT_EQ(a, b) << "payload " << i
                        << " changed across compaction";
    }
    std::filesystem::remove_all(dir);
}

TEST(RunCacheBudget, TinyCacheStillProducesIdenticalResults)
{
    auto reqs = distinctRequests(5);
    // Duplicate the whole batch so dedupe and eviction interact.
    auto doubled = reqs;
    doubled.insert(doubled.end(), reqs.begin(), reqs.end());

    exec::Engine unbounded{exec::ExecOptions(1)};
    auto want = unbounded.run(doubled);

    exec::ExecOptions tiny(1);
    tiny.cache_max_entries = 1;
    exec::Engine bounded{std::move(tiny)};
    auto got = bounded.run(doubled);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        exec::Fingerprint key = doubled[i].key();
        EXPECT_EQ(exec::encodeJournalPayload(key, want[i]),
                  exec::encodeJournalPayload(key, got[i]))
            << "result " << i << " differs under a 1-entry cache";
    }
    EXPECT_GT(bounded.stats().evictions, 0u);
}

TEST(RunCacheBudget, EntriesLruOrderMatchesEvictionOrder)
{
    exec::RunCache cache;
    cache.setBudget({/*max_entries=*/3, /*max_bytes=*/0});
    auto reqs = distinctRequests(3);
    exec::RunResult r;
    for (const auto &req : reqs)
        cache.insert(req.key(), r);
    ASSERT_TRUE(cache.lookup(reqs[0].key()).has_value());

    auto order = cache.entriesLruOrder();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0].first, reqs[1].key());
    EXPECT_EQ(order[1].first, reqs[2].key());
    EXPECT_EQ(order[2].first, reqs[0].key());
}

} // namespace
