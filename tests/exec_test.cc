/**
 * @file
 * Tests for the exec layer: canonical fingerprints, the memoizing
 * run cache, the work-stealing executor, the engine's deterministic
 * batch semantics, and the report-level guarantee that rendered bytes
 * do not depend on worker count or cache warmth.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "core/report.h"
#include "core/suite.h"
#include "exec/engine.h"
#include "exec/fingerprint.h"
#include "models/zoo.h"
#include "prof/kernel_profiler.h"
#include "sim/logger.h"
#include "sys/machines.h"

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

TEST(Fingerprint, EqualRequestsEqualKeys)
{
    exec::RunRequest a = requestFor("MLPf_NCF_Py", 2);
    exec::RunRequest b = requestFor("MLPf_NCF_Py", 2);
    EXPECT_EQ(a.key(), b.key());
}

TEST(Fingerprint, DistinguishesNearIdenticalRequests)
{
    exec::RunRequest base = requestFor("MLPf_NCF_Py", 2);

    exec::RunRequest other_gpus = base;
    other_gpus.options.num_gpus = 4;
    EXPECT_NE(base.key(), other_gpus.key());

    exec::RunRequest other_precision = base;
    other_precision.options.precision = hw::Precision::FP32;
    EXPECT_NE(base.key(), other_precision.key());

    exec::RunRequest reference = base;
    reference.options.reference_code = true;
    EXPECT_NE(base.key(), reference.key());

    exec::RunRequest other_workload = base;
    other_workload.workload = *models::findWorkload("MLPf_SSD_Py");
    EXPECT_NE(base.key(), other_workload.key());

    exec::RunRequest other_system = base;
    other_system.system = sys::c4140K();
    EXPECT_NE(base.key(), other_system.key());

    exec::RunRequest profiled = base;
    profiled.profiled = true;
    EXPECT_NE(base.key(), profiled.key());
}

TEST(Fingerprint, SensitiveToCalibrationKnobs)
{
    exec::RunRequest base = requestFor("MLPf_Res50_MX", 1);
    exec::RunRequest tweaked = base;
    tweaked.workload.comm_overlap += 0.01;
    EXPECT_NE(base.key(), tweaked.key());

    exec::RunRequest tweaked_sys = base;
    tweaked_sys.system.gpu.hbm_gib += 1.0;
    EXPECT_NE(base.key(), tweaked_sys.key());
}

TEST(HashStream, StringFramingAndOrder)
{
    // "ab" + "c" must not collide with "a" + "bc".
    exec::HashStream s1;
    s1.mixString("ab");
    s1.mixString("c");
    exec::HashStream s2;
    s2.mixString("a");
    s2.mixString("bc");
    EXPECT_NE(s1.digest(), s2.digest());

    exec::HashStream s3;
    s3.mixInt(1);
    s3.mixInt(2);
    exec::HashStream s4;
    s4.mixInt(2);
    s4.mixInt(1);
    EXPECT_NE(s3.digest(), s4.digest());
}

TEST(RunCache, HitMissAccounting)
{
    exec::RunCache cache;
    exec::RunRequest req = requestFor("MLPf_NCF_Py", 1);
    EXPECT_FALSE(cache.lookup(req.key()).has_value());
    EXPECT_EQ(cache.hits(), 0u);

    exec::RunResult result;
    result.train.total_seconds = 42.0;
    cache.insert(req.key(), result);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);

    auto hit = cache.lookup(req.key());
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->cache_hit);
    EXPECT_DOUBLE_EQ(hit->train.total_seconds, 42.0);
    EXPECT_EQ(cache.hits(), 1u);

    // clear() drops entries only: the counters keep accumulating so
    // an engine summary stays truthful across a clear.
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);

    // resetCounters() is the explicit statistics reset.
    cache.resetCounters();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.preloaded(), 0u);
}

TEST(Engine, DeduplicatesWithinBatch)
{
    exec::Engine engine(exec::ExecOptions{1});
    std::vector<exec::RunRequest> batch = {
        requestFor("MLPf_NCF_Py", 1),
        requestFor("MLPf_NCF_Py", 2),
        requestFor("MLPf_NCF_Py", 1), // duplicate of [0]
        requestFor("MLPf_NCF_Py", 1), // duplicate of [0]
    };
    auto results = engine.run(batch);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_FALSE(results[0].cache_hit);
    EXPECT_FALSE(results[1].cache_hit);
    EXPECT_TRUE(results[2].cache_hit);
    EXPECT_TRUE(results[3].cache_hit);
    EXPECT_DOUBLE_EQ(results[0].train.total_seconds,
                     results[2].train.total_seconds);

    auto s = engine.stats();
    EXPECT_EQ(s.requests, 4u);
    EXPECT_EQ(s.unique_runs, 2u);
    EXPECT_EQ(s.cache_hits, 2u);
}

TEST(Engine, WarmCacheServesRepeatBatches)
{
    exec::Engine engine(exec::ExecOptions{1});
    std::vector<exec::RunRequest> batch = {
        requestFor("MLPf_NCF_Py", 1),
        requestFor("MLPf_NCF_Py", 2),
    };
    auto cold = engine.run(batch);
    auto warm = engine.run(batch);
    ASSERT_EQ(warm.size(), 2u);
    EXPECT_TRUE(warm[0].cache_hit);
    EXPECT_TRUE(warm[1].cache_hit);
    EXPECT_DOUBLE_EQ(cold[0].train.total_seconds,
                     warm[0].train.total_seconds);
    EXPECT_EQ(engine.stats().unique_runs, 2u);
    EXPECT_EQ(engine.stats().cache_hits, 2u);
}

TEST(Engine, ParallelMatchesSerialInSubmissionOrder)
{
    std::vector<std::string> names = {"MLPf_NCF_Py", "MLPf_SSD_Py",
                                      "MLPf_Res50_MX"};
    std::vector<exec::RunRequest> batch;
    for (const auto &n : names)
        for (int g : {1, 2, 4, 8})
            batch.push_back(requestFor(n, g));

    exec::Engine serial(exec::ExecOptions{1});
    exec::Engine parallel(exec::ExecOptions{4});
    auto rs = serial.run(batch);
    auto rp = parallel.run(batch);
    ASSERT_EQ(rs.size(), rp.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_DOUBLE_EQ(rs[i].train.total_seconds,
                         rp[i].train.total_seconds)
            << "submission index " << i;
        EXPECT_EQ(rs[i].train.workload, rp[i].train.workload);
    }
    // Dedupe happens before the workers see the batch, so the
    // counters cannot depend on the worker count.
    EXPECT_EQ(serial.stats().unique_runs, parallel.stats().unique_runs);
    EXPECT_EQ(serial.stats().cache_hits, parallel.stats().cache_hits);
}

TEST(Engine, ProfiledRunsCacheSeparatelyAndCarryProfiles)
{
    exec::Engine engine(exec::ExecOptions{2});
    exec::RunRequest plain = requestFor("MLPf_NCF_Py", 1);
    exec::RunRequest profiled = plain;
    profiled.profiled = true;
    auto results = engine.run({plain, profiled});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(engine.stats().unique_runs, 2u);
    EXPECT_TRUE(results[0].profile.records().empty());
    EXPECT_FALSE(results[1].profile.records().empty());
}

TEST(Engine, ErrorsPropagateFromParallelRuns)
{
    exec::Engine engine(exec::ExecOptions{4});
    std::vector<exec::RunRequest> batch = {
        requestFor("MLPf_NCF_Py", 1),
        requestFor("MLPf_NCF_Py", 64), // DSS 8440 only has 8 GPUs
    };
    EXPECT_THROW(engine.run(batch), sim::FatalError);
    // The engine stays usable after a failed batch.
    auto ok = engine.run({requestFor("MLPf_NCF_Py", 2)});
    EXPECT_GT(ok[0].train.total_seconds, 0.0);
}

TEST(Engine, DeadlineOverrunsCountAsSimulated)
{
    exec::ExecOptions opts{1};
    opts.on_error = exec::ErrorPolicy::Capture;
    opts.run_deadline_s = 1e-9; // every run overruns
    exec::Engine engine(opts);
    const exec::RunRequest req = requestFor("MLPf_NCF_Py", 1);
    // Never cached, so the second call simulates the point again.
    for (int call = 0; call < 2; ++call) {
        const exec::RunResult r = engine.runOne(req);
        ASSERT_NE(r.error, nullptr);
        EXPECT_EQ(r.error->reason, "deadline");
    }

    const exec::EngineStats s = engine.stats();
    EXPECT_EQ(s.unique_runs, 2u);
    EXPECT_GT(s.sim_seconds, 0.0);
    EXPECT_EQ(s.cache_hits, 0u);
    EXPECT_EQ(s.deadline_flags, 2u);
    EXPECT_EQ(s.degraded, 2u);
    // The soak's accounting identity, with overruns in both counts.
    EXPECT_EQ(s.cache_hits + s.unique_runs + s.degraded - s.deadline_flags,
              s.requests);
}

TEST(Executor, ForEachCoversEveryIndexOnce)
{
    for (int jobs : {1, 4}) {
        exec::Executor ex(exec::ExecOptions{jobs});
        EXPECT_EQ(ex.jobs(), jobs);
        std::vector<std::atomic<int>> seen(257);
        for (auto &s : seen)
            s.store(0);
        ex.forEach(seen.size(), [&](std::size_t i) {
            seen[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < seen.size(); ++i)
            EXPECT_EQ(seen[i].load(), 1) << "index " << i;
    }
}

TEST(Executor, ReusableAcrossBatchesAndAfterErrors)
{
    exec::Executor ex(exec::ExecOptions{4});
    std::atomic<int> count{0};
    ex.forEach(10, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10);

    EXPECT_THROW(ex.forEach(8,
                            [&](std::size_t i) {
                                if (i == 3)
                                    sim::fatal("exec_test: boom");
                                count.fetch_add(1);
                            }),
                 sim::FatalError);

    count.store(0);
    ex.forEach(10, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10);
}

TEST(Executor, ResolveJobsPrecedence)
{
    unsetenv("MLPSIM_JOBS");
    EXPECT_EQ(exec::Executor::resolveJobs(3), 3);
    EXPECT_GE(exec::Executor::resolveJobs(0), 1);
    EXPECT_THROW(exec::Executor::resolveJobs(-2), sim::FatalError);

    setenv("MLPSIM_JOBS", "5", 1);
    EXPECT_EQ(exec::Executor::resolveJobs(0), 5);
    EXPECT_EQ(exec::Executor::resolveJobs(2), 2); // explicit wins

    setenv("MLPSIM_JOBS", "zero", 1);
    EXPECT_THROW(exec::Executor::resolveJobs(0), sim::FatalError);
    setenv("MLPSIM_JOBS", "-1", 1);
    EXPECT_THROW(exec::Executor::resolveJobs(0), sim::FatalError);
    unsetenv("MLPSIM_JOBS");
}

TEST(KernelProfiler, MergeAccumulatesByKernelClass)
{
    prof::KernelProfiler a;
    a.record("gemm", wl::OpKind::Gemm, prof::Pass::Forward, 10, 1.0,
             2e9, 1e6);
    prof::KernelProfiler b;
    b.record("gemm", wl::OpKind::Gemm, prof::Pass::Forward, 5, 0.5,
             1e9, 5e5);
    b.record("relu", wl::OpKind::Elementwise, prof::Pass::Forward, 7,
             0.1, 1e6, 1e6);
    a.merge(b);
    ASSERT_EQ(a.records().size(), 2u);
    EXPECT_EQ(a.records()[0].invocations, 15u);
    EXPECT_DOUBLE_EQ(a.records()[0].total_seconds, 1.5);
    EXPECT_DOUBLE_EQ(a.records()[0].total_flops, 3e9);
    EXPECT_EQ(a.records()[1].invocations, 7u);
}

TEST(Suite, JobSpecsMatchDirectRuns)
{
    core::Suite suite(sys::dss8440());
    exec::Engine engine(exec::ExecOptions{2});
    auto jobs = suite.jobSpecs({"MLPf_NCF_Py", "MLPf_SSD_Py"}, 4,
                               &engine);
    ASSERT_EQ(jobs.size(), 2u);
    for (const auto &j : jobs) {
        for (int w = 1; w <= 4; w *= 2) {
            train::RunOptions opts;
            opts.num_gpus = w;
            EXPECT_DOUBLE_EQ(j.timeAt(w),
                             suite.run(j.name, opts).total_seconds)
                << j.name << " at width " << w;
        }
    }
}

TEST(Report, ByteIdenticalAcrossWorkerCounts)
{
    core::ReportOptions opts;
    // The full study; exercise every section through both engines.
    exec::Engine serial(exec::ExecOptions{1});
    exec::Engine parallel(exec::ExecOptions{8});
    std::string a = core::generateStudyReport(opts, serial);
    std::string b = core::generateStudyReport(opts, parallel);
    EXPECT_EQ(a, b);
}

TEST(Report, ByteIdenticalColdVsWarmCache)
{
    core::ReportOptions opts;
    opts.include_characterization = false; // keep the repeat cheap
    exec::Engine engine(exec::ExecOptions{2});
    std::string cold = core::generateStudyReport(opts, engine);
    std::uint64_t unique_after_cold = engine.stats().unique_runs;
    std::string warm = core::generateStudyReport(opts, engine);
    EXPECT_EQ(cold, warm);
    // The warm pass simulated nothing new.
    EXPECT_EQ(engine.stats().unique_runs, unique_after_cold);
}

} // namespace
