/**
 * @file
 * Tests for the online scheduling simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "sched/online.h"
#include "sched_reference.h"
#include "sim/logger.h"
#include "sim/rng.h"
#include "sys/machines.h"

namespace {

using namespace mlps::sched;
using mlps::sim::FatalError;

JobSpec
amdahlJob(const std::string &name, double hours, double parallel)
{
    JobSpec j;
    j.name = name;
    for (int w = 1; w <= 8; w *= 2) {
        j.seconds_at_width[w] =
            hours * 3600.0 * ((1.0 - parallel) + parallel / w);
    }
    return j;
}

std::vector<OnlineJob>
simpleStream()
{
    std::vector<OnlineJob> jobs;
    jobs.push_back({amdahlJob("a", 1.0, 1.0), 0.0});
    jobs.push_back({amdahlJob("b", 1.0, 0.1), 0.0});
    jobs.push_back({amdahlJob("c", 0.5, 0.9), 600.0});
    jobs.push_back({amdahlJob("d", 2.0, 0.5), 1200.0});
    return jobs;
}

void
checkNoOverlap(const Schedule &s)
{
    for (std::size_t i = 0; i < s.placements.size(); ++i) {
        for (std::size_t j = i + 1; j < s.placements.size(); ++j) {
            const auto &a = s.placements[i];
            const auto &b = s.placements[j];
            bool share = false;
            for (int g : a.gpus)
                share |= std::find(b.gpus.begin(), b.gpus.end(), g) !=
                         b.gpus.end();
            if (!share)
                continue;
            bool disjoint = a.end_s <= b.start_s + 1e-9 ||
                            b.end_s <= a.start_s + 1e-9;
            EXPECT_TRUE(disjoint) << a.job << " vs " << b.job;
        }
    }
}

TEST(OnlineSched, AllPoliciesRunEveryJobOnce)
{
    auto jobs = simpleStream();
    for (auto policy : {OnlinePolicy::FifoFullWidth,
                        OnlinePolicy::FifoBestWidth,
                        OnlinePolicy::Backfill}) {
        SCOPED_TRACE(toString(policy));
        auto m = simulateOnline(jobs, 4, policy);
        EXPECT_EQ(m.schedule.placements.size(), jobs.size());
        std::set<std::string> names;
        for (const auto &p : m.schedule.placements)
            names.insert(p.job);
        EXPECT_EQ(names.size(), jobs.size());
        checkNoOverlap(m.schedule);
    }
}

TEST(OnlineSched, NoJobStartsBeforeArrival)
{
    auto jobs = simpleStream();
    for (auto policy : {OnlinePolicy::FifoFullWidth,
                        OnlinePolicy::FifoBestWidth,
                        OnlinePolicy::Backfill}) {
        auto m = simulateOnline(jobs, 4, policy);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            // Placement names carry the submission index suffix.
            for (const auto &p : m.schedule.placements) {
                if (p.job ==
                    jobs[i].profile.name + "#" + std::to_string(i)) {
                    EXPECT_GE(p.start_s, jobs[i].arrival_s - 1e-9);
                }
            }
        }
    }
}

TEST(OnlineSched, FullWidthRunsEverythingAtFullWidth)
{
    auto m = simulateOnline(simpleStream(), 4,
                            OnlinePolicy::FifoFullWidth);
    for (const auto &p : m.schedule.placements)
        EXPECT_EQ(p.width(), 4);
}

TEST(OnlineSched, BestWidthNarrowsSerialJobs)
{
    auto m = simulateOnline(simpleStream(), 4,
                            OnlinePolicy::FifoBestWidth);
    // Job "b" (parallel fraction 0.1) must run on a single GPU.
    for (const auto &p : m.schedule.placements) {
        if (p.job.rfind("b#", 0) == 0) {
            EXPECT_EQ(p.width(), 1);
        }
        if (p.job.rfind("a#", 0) == 0) {
            EXPECT_EQ(p.width(), 4);
        }
    }
}

TEST(OnlineSched, BestWidthBeatsFullWidthOnSerialHeavyBatch)
{
    // Serial jobs waste a full-width machine; running them side by
    // side at width 1 wins on both makespan and turnaround.
    std::vector<OnlineJob> jobs;
    jobs.push_back({amdahlJob("serial1", 1.0, 0.05), 0.0});
    jobs.push_back({amdahlJob("serial2", 1.0, 0.05), 0.0});
    jobs.push_back({amdahlJob("serial3", 1.0, 0.05), 0.0});
    jobs.push_back({amdahlJob("scaler", 1.0, 1.0), 0.0});
    auto full =
        simulateOnline(jobs, 4, OnlinePolicy::FifoFullWidth);
    auto best =
        simulateOnline(jobs, 4, OnlinePolicy::FifoBestWidth);
    EXPECT_LT(best.makespan_s, full.makespan_s);
    EXPECT_LT(best.avg_turnaround_s, full.avg_turnaround_s);
}

TEST(OnlineSched, BackfillNeverIncreasesMaxWaitMuch)
{
    // Conservative backfill fills idle GPUs without delaying the
    // head's reservation, so average wait should not regress.
    auto jobs = poissonJobStream(
        {amdahlJob("big", 3.0, 0.95), amdahlJob("small", 0.2, 0.2),
         amdahlJob("mid", 1.0, 0.6)},
        24, 900.0, 11);
    auto fifo = simulateOnline(jobs, 8, OnlinePolicy::FifoBestWidth);
    auto back = simulateOnline(jobs, 8, OnlinePolicy::Backfill);
    EXPECT_LE(back.avg_wait_s, fifo.avg_wait_s + 1e-6);
    checkNoOverlap(back.schedule);
}

TEST(OnlineSched, MetricsAreConsistent)
{
    auto m = simulateOnline(simpleStream(), 4,
                            OnlinePolicy::FifoBestWidth);
    EXPECT_GT(m.makespan_s, 0.0);
    EXPECT_GE(m.avg_turnaround_s, m.avg_wait_s);
    EXPECT_GE(m.max_wait_s, m.avg_wait_s);
    EXPECT_GT(m.utilization, 0.0);
    EXPECT_LE(m.utilization, 1.0);
}

TEST(OnlineSched, IdleMachineRunsJobImmediately)
{
    std::vector<OnlineJob> jobs{{amdahlJob("solo", 1.0, 0.9), 5.0}};
    auto m = simulateOnline(jobs, 4, OnlinePolicy::FifoBestWidth);
    EXPECT_DOUBLE_EQ(m.avg_wait_s, 0.0);
    EXPECT_DOUBLE_EQ(m.schedule.placements[0].start_s, 5.0);
}

TEST(OnlineSched, ErrorsOnMisuse)
{
    EXPECT_THROW(simulateOnline({}, 4, OnlinePolicy::Backfill),
                 FatalError);
    std::vector<OnlineJob> jobs{{amdahlJob("a", 1.0, 1.0), -1.0}};
    EXPECT_THROW(simulateOnline(jobs, 4, OnlinePolicy::Backfill),
                 FatalError);
    jobs[0].arrival_s = 0.0;
    EXPECT_THROW(simulateOnline(jobs, 3, OnlinePolicy::Backfill),
                 FatalError);
}

TEST(OnlineSched, PoissonStreamProperties)
{
    auto catalogue = std::vector<JobSpec>{amdahlJob("x", 1.0, 0.5)};
    auto jobs = poissonJobStream(catalogue, 50, 100.0, 3);
    ASSERT_EQ(jobs.size(), 50u);
    double prev = -1.0;
    double sum_gap = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_GE(jobs[i].arrival_s, prev);
        if (i > 0)
            sum_gap += jobs[i].arrival_s - jobs[i - 1].arrival_s;
        prev = jobs[i].arrival_s;
    }
    // Mean gap within 3 sigma of the target for 49 samples.
    EXPECT_NEAR(sum_gap / 49.0, 100.0, 45.0);
    // Deterministic by seed.
    auto again = poissonJobStream(catalogue, 50, 100.0, 3);
    EXPECT_DOUBLE_EQ(again.back().arrival_s, jobs.back().arrival_s);
    EXPECT_THROW(poissonJobStream({}, 5, 1.0, 1), FatalError);
}

/** Property sweep: with random streams, every policy yields a valid
 *  non-overlapping schedule and sane metrics. */
class OnlinePropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(OnlinePropertyTest, ValidScheduleUnderRandomLoad)
{
    auto catalogue = std::vector<JobSpec>{
        amdahlJob("big", 4.0, 0.98), amdahlJob("small", 0.3, 0.3),
        amdahlJob("mid", 1.5, 0.7), amdahlJob("serial", 0.8, 0.05)};
    auto jobs =
        poissonJobStream(catalogue, 20, 1800.0, 100 + GetParam());
    for (auto policy : {OnlinePolicy::FifoFullWidth,
                        OnlinePolicy::FifoBestWidth,
                        OnlinePolicy::Backfill}) {
        auto m = simulateOnline(jobs, 8, policy);
        EXPECT_EQ(m.schedule.placements.size(), jobs.size());
        checkNoOverlap(m.schedule);
        EXPECT_GT(m.utilization, 0.0);
        EXPECT_LE(m.utilization, 1.0 + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlinePropertyTest,
                         ::testing::Range(0, 6));

// ----------------------------------------------------- elastic tests

TEST(ElasticSched, FaultFreeRunIsClean)
{
    auto m = simulateElastic(simpleStream(), 4,
                             OnlinePolicy::FifoBestWidth, {},
                             RecoveryPolicy::Requeue);
    EXPECT_EQ(m.interruptions, 0);
    EXPECT_DOUBLE_EQ(m.lost_work_s, 0.0);
    EXPECT_DOUBLE_EQ(m.restart_s, 0.0);
    EXPECT_DOUBLE_EQ(m.goodput, 1.0);
    EXPECT_DOUBLE_EQ(m.availability, 1.0);
    EXPECT_EQ(m.online.schedule.placements.size(),
              simpleStream().size());
    checkNoOverlap(m.online.schedule);
}

TEST(ElasticSched, Deterministic)
{
    std::vector<GpuOutage> outages{{1, 700.0, 400.0},
                                   {3, 2000.0, 0.0}};
    for (auto rec : {RecoveryPolicy::Requeue, RecoveryPolicy::Shrink,
                     RecoveryPolicy::Migrate}) {
        SCOPED_TRACE(toString(rec));
        auto a = simulateElastic(simpleStream(), 4,
                                 OnlinePolicy::FifoBestWidth, outages,
                                 rec);
        auto b = simulateElastic(simpleStream(), 4,
                                 OnlinePolicy::FifoBestWidth, outages,
                                 rec);
        EXPECT_EQ(a.online.makespan_s, b.online.makespan_s);
        EXPECT_EQ(a.lost_work_s, b.lost_work_s);
        EXPECT_EQ(a.goodput, b.goodput);
        EXPECT_EQ(a.interruptions, b.interruptions);
        ASSERT_EQ(a.online.schedule.placements.size(),
                  b.online.schedule.placements.size());
    }
}

TEST(ElasticSched, OutageInterruptsAndJobStillCompletes)
{
    std::vector<OnlineJob> jobs{{amdahlJob("w", 1.0, 1.0), 0.0}};
    std::vector<GpuOutage> outages{{2, 600.0, 300.0}};
    auto clean = simulateElastic(jobs, 4, OnlinePolicy::FifoBestWidth,
                                 {}, RecoveryPolicy::Requeue);
    for (auto rec : {RecoveryPolicy::Requeue, RecoveryPolicy::Shrink,
                     RecoveryPolicy::Migrate}) {
        SCOPED_TRACE(toString(rec));
        auto m = simulateElastic(jobs, 4, OnlinePolicy::FifoBestWidth,
                                 outages, rec);
        EXPECT_GE(m.interruptions, 1);
        EXPECT_GT(m.online.makespan_s, clean.online.makespan_s);
        EXPECT_GT(m.restart_s, 0.0);
        EXPECT_LT(m.goodput, 1.0 + 1e-12);
        EXPECT_LT(m.availability, 1.0);
        checkNoOverlap(m.online.schedule);
    }
}

TEST(ElasticSched, ShrinkSurvivesPermanentLoss)
{
    std::vector<OnlineJob> jobs{{amdahlJob("w", 1.0, 0.9), 0.0}};
    std::vector<GpuOutage> outages{{0, 100.0, 0.0}};
    auto m = simulateElastic(jobs, 4, OnlinePolicy::FifoBestWidth,
                             outages, RecoveryPolicy::Shrink);
    EXPECT_EQ(m.interruptions, 1);
    // The continuation runs on a power-of-two subset of survivors.
    const auto &last = m.online.schedule.placements.back();
    EXPECT_EQ(last.width(), 2);
    for (int g : last.gpus)
        EXPECT_NE(g, 0);
    EXPECT_LT(m.availability, 1.0);
}

TEST(ElasticSched, MigratePrefersIdleFullWidthGpus)
{
    // Width-4 job on an 8-GPU machine: a failure mid-run should
    // re-place it at full width on idle devices, not shrink it.
    std::vector<OnlineJob> jobs{{amdahlJob("w", 1.0, 0.92), 0.0}};
    std::vector<GpuOutage> outages{{1, 600.0, 0.0}};
    auto m = simulateElastic(jobs, 8, OnlinePolicy::FifoBestWidth,
                             outages, RecoveryPolicy::Migrate);
    EXPECT_EQ(m.interruptions, 1);
    const auto &last = m.online.schedule.placements.back();
    EXPECT_EQ(last.width(), 4);
    for (int g : last.gpus)
        EXPECT_NE(g, 1);
}

TEST(ElasticSched, TighterCheckpointsLoseLessWork)
{
    std::vector<OnlineJob> jobs{{amdahlJob("w", 2.0, 1.0), 0.0}};
    std::vector<GpuOutage> outages{{0, 1000.0, 200.0}};
    auto tight = simulateElastic(jobs, 4, OnlinePolicy::FifoBestWidth,
                                 outages, RecoveryPolicy::Requeue,
                                 60.0);
    auto loose = simulateElastic(jobs, 4, OnlinePolicy::FifoBestWidth,
                                 outages, RecoveryPolicy::Requeue,
                                 3600.0);
    EXPECT_LT(tight.lost_work_s, loose.lost_work_s);
    EXPECT_GT(tight.goodput, loose.goodput);
    EXPECT_LE(tight.online.makespan_s, loose.online.makespan_s);
}

TEST(ElasticSched, OutagesFromTraceLowering)
{
    using mlps::fault::FaultEvent;
    using mlps::fault::FaultKind;
    std::vector<FaultEvent> trace;
    trace.push_back({FaultKind::GpuLoss, 50.0, 0.0, 0.0, 2});
    trace.push_back({FaultKind::EccRetryStorm, 80.0, 120.0, 0.7, 1});
    trace.push_back({FaultKind::GpuStall, 90.0, 5.0, 0.5, 0});
    trace.push_back({FaultKind::LinkFlap, 95.0, 400.0, 0.4, -1});
    trace.push_back({FaultKind::HostHiccup, 99.0, 40.0, 0.5, -1});
    auto outages = outagesFromTrace(trace, 10.0);
    ASSERT_EQ(outages.size(), 2u);
    EXPECT_EQ(outages[0].gpu, 2);
    EXPECT_TRUE(outages[0].permanent());
    EXPECT_EQ(outages[1].gpu, 1);
    EXPECT_FALSE(outages[1].permanent());
    EXPECT_DOUBLE_EQ(outages[1].duration_s, 120.0);
}

TEST(ElasticSched, LinkTraceLowersToOutages)
{
    using mlps::fault::LinkFaultEvent;
    using mlps::fault::LinkFaultKind;
    mlps::sys::SystemConfig box = mlps::sys::c4140M();

    // Find an edge incident to at least one GPU.
    int gpu_edge = -1;
    for (int e = 0; e < box.topo.edgeCount() && gpu_edge < 0; ++e) {
        auto [a, b] = box.topo.endpoints(e);
        for (std::size_t g = 0; g < box.gpu_nodes.size(); ++g)
            if (a == box.gpu_nodes[g] || b == box.gpu_nodes[g])
                gpu_edge = e;
    }
    ASSERT_GE(gpu_edge, 0);

    std::vector<LinkFaultEvent> trace;
    // Finite hard-down: drains incident GPUs for the window.
    trace.push_back({LinkFaultKind::LinkDown, 50.0, 120.0, 0.0,
                     gpu_edge, -1});
    // Permanent hard-down: GPUs never return.
    trace.push_back({LinkFaultKind::LinkDown, 70.0, 0.0, 0.0,
                     gpu_edge, -1});
    // Long throttle: drains the straggler.
    trace.push_back({LinkFaultKind::ThermalThrottle, 90.0, 60.0, 0.7,
                     -1, 3});
    // Too-short down and a bandwidth-only degrade: not outages.
    trace.push_back({LinkFaultKind::LinkDown, 95.0, 5.0, 0.0,
                     gpu_edge, -1});
    trace.push_back({LinkFaultKind::PcieDowntrain, 99.0, 400.0, 0.5,
                     gpu_edge, -1});

    auto outages =
        mlps::sched::outagesFromLinkTrace(trace, box, 10.0);

    int permanent = 0, finite = 0;
    bool throttled_gpu3 = false;
    for (const auto &o : outages) {
        EXPECT_GE(o.gpu, 0);
        EXPECT_LT(o.gpu, static_cast<int>(box.gpu_nodes.size()));
        permanent += o.permanent();
        finite += !o.permanent();
        throttled_gpu3 =
            throttled_gpu3 || (o.gpu == 3 && o.start_s == 90.0);
    }
    // Each hard-down drains every GPU endpoint of the edge.
    EXPECT_GE(permanent, 1);
    EXPECT_GE(finite, 2); // the 120 s down + the throttle
    EXPECT_TRUE(throttled_gpu3);
    // The 5 s blip and the downtrain produced nothing.
    for (const auto &o : outages)
        EXPECT_NE(o.start_s, 99.0);
}

TEST(ElasticSched, LinkOutagesFeedElasticSimulation)
{
    using mlps::fault::LinkFaultEvent;
    using mlps::fault::LinkFaultKind;
    mlps::sys::SystemConfig box = mlps::sys::c4140M();
    auto jobs = simpleStream();

    std::vector<LinkFaultEvent> trace;
    trace.push_back({LinkFaultKind::ThermalThrottle, 10.0, 3600.0,
                     0.7, -1, 0});
    auto outages = mlps::sched::outagesFromLinkTrace(trace, box, 10.0);
    ASSERT_FALSE(outages.empty());

    auto healthy = simulateElastic(jobs, 4, OnlinePolicy::FifoBestWidth,
                                   {}, RecoveryPolicy::Requeue);
    auto faulted = simulateElastic(jobs, 4, OnlinePolicy::FifoBestWidth,
                                   outages, RecoveryPolicy::Requeue);
    EXPECT_LE(faulted.availability, healthy.availability);
    EXPECT_GE(faulted.online.makespan_s, healthy.online.makespan_s);
}

TEST(ElasticSched, ErrorsOnMisuse)
{
    auto jobs = simpleStream();
    EXPECT_THROW(simulateElastic({}, 4, OnlinePolicy::FifoBestWidth,
                                 {}, RecoveryPolicy::Requeue),
                 FatalError);
    EXPECT_THROW(simulateElastic(jobs, 3, OnlinePolicy::FifoBestWidth,
                                 {}, RecoveryPolicy::Requeue),
                 FatalError);
    EXPECT_THROW(simulateElastic(jobs, 4, OnlinePolicy::FifoBestWidth,
                                 {{9, 0.0, 1.0}},
                                 RecoveryPolicy::Requeue),
                 FatalError);
    EXPECT_THROW(simulateElastic(jobs, 4, OnlinePolicy::FifoBestWidth,
                                 {}, RecoveryPolicy::Requeue, -1.0),
                 FatalError);
}

// ------------------------------------------- differential reference

/**
 * A random job catalogue: Amdahl profiles, some with per-width noise
 * (non-monotone efficiency, the odd superlinear width) and some with
 * times rounded to whole minutes so completions coincide.
 */
std::vector<JobSpec>
randomCatalogue(mlps::sim::Rng &rng, int gpus)
{
    std::vector<JobSpec> catalogue;
    int kinds = 1 + static_cast<int>(rng.below(6));
    bool minutes = rng.chance(0.5);
    for (int k = 0; k < kinds; ++k) {
        JobSpec j;
        j.name = "k" + std::to_string(k);
        double hours = rng.uniform(0.05, 4.0);
        double parallel = rng.uniform();
        bool noisy = rng.chance(0.4);
        for (int w = 1; w <= gpus; w *= 2) {
            double t = hours * 3600.0 * ((1.0 - parallel) + parallel / w);
            if (noisy)
                t *= rng.uniform(0.7, 1.3);
            if (minutes)
                t = std::max(60.0, std::round(t / 60.0) * 60.0);
            j.seconds_at_width[w] = t;
        }
        catalogue.push_back(std::move(j));
    }
    return catalogue;
}

/** A random stream; arrivals are sometimes rounded to whole minutes
 *  so jobs arrive together and on completions. */
std::vector<OnlineJob>
randomStream(mlps::sim::Rng &rng, int gpus, std::uint64_t seed)
{
    static const double kGaps[] = {30.0, 300.0, 1800.0, 7200.0};
    auto jobs = poissonJobStream(randomCatalogue(rng, gpus),
                                 5 + static_cast<int>(rng.below(40)),
                                 kGaps[rng.below(4)], seed);
    if (rng.chance(0.5)) {
        for (auto &j : jobs)
            j.arrival_s = std::round(j.arrival_s / 60.0) * 60.0;
    }
    return jobs;
}

/** Random outages over the stream's horizon; at least one GPU is
 *  never lost for good, so every stream can finish. */
std::vector<GpuOutage>
randomOutages(mlps::sim::Rng &rng, int gpus, double horizon_s)
{
    std::vector<GpuOutage> outages;
    std::set<int> lost;
    int count = static_cast<int>(rng.below(8));
    for (int i = 0; i < count; ++i) {
        GpuOutage o;
        o.gpu = static_cast<int>(rng.below(gpus));
        o.start_s = rng.uniform(0.0, horizon_s);
        if (rng.chance(0.3))
            o.start_s = std::round(o.start_s / 60.0) * 60.0;
        if (rng.chance(0.2) &&
            (lost.count(o.gpu) ||
             static_cast<int>(lost.size()) < gpus - 1)) {
            lost.insert(o.gpu);
            o.duration_s = 0.0;
        } else {
            o.duration_s = rng.uniform(5.0, 7200.0);
        }
        outages.push_back(o);
    }
    return outages;
}

void
expectSameSchedule(const Schedule &got, const Schedule &want)
{
    EXPECT_EQ(got.num_gpus, want.num_gpus);
    ASSERT_EQ(got.placements.size(), want.placements.size());
    for (std::size_t i = 0; i < got.placements.size(); ++i) {
        const Placement &a = got.placements[i];
        const Placement &b = want.placements[i];
        SCOPED_TRACE("placement " + std::to_string(i));
        EXPECT_EQ(a.job, b.job);
        EXPECT_EQ(a.gpus, b.gpus);
        EXPECT_EQ(a.start_s, b.start_s);
        EXPECT_EQ(a.end_s, b.end_s);
    }
}

Schedule
sortedPlacements(Schedule s)
{
    std::sort(s.placements.begin(), s.placements.end(),
              [](const Placement &a, const Placement &b) {
                  return std::tie(a.job, a.start_s, a.end_s, a.gpus) <
                         std::tie(b.job, b.start_s, b.end_s, b.gpus);
              });
    return s;
}

/** Equal up to floating-point summation order. */
void
expectNearlyEqual(double got, double want)
{
    EXPECT_LE(std::fabs(got - want), 1e-12 * std::fabs(want))
        << got << " vs " << want;
}

constexpr int kReferenceStreams = 320;

TEST(SchedReference, FaultFreeMatchesSimulateOnline)
{
    for (int seed = 0; seed < kReferenceStreams; ++seed) {
        mlps::sim::Rng rng(1000 + seed);
        int gpus = 2 << rng.below(4); // 2, 4, 8 or 16
        auto jobs = randomStream(rng, gpus, 5000 + seed);
        for (auto policy : {OnlinePolicy::FifoFullWidth,
                            OnlinePolicy::FifoBestWidth,
                            OnlinePolicy::Backfill}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                         toString(policy));
            auto got = simulateOnline(jobs, gpus, policy);
            auto want =
                mlps::reference::simulateOnline(jobs, gpus, policy);
            expectSameSchedule(got.schedule, want.schedule);
            EXPECT_EQ(got.makespan_s, want.makespan_s);
            EXPECT_EQ(got.avg_wait_s, want.avg_wait_s);
            EXPECT_EQ(got.avg_turnaround_s, want.avg_turnaround_s);
            EXPECT_EQ(got.max_wait_s, want.max_wait_s);
            EXPECT_EQ(got.utilization, want.utilization);
            if (HasFailure())
                return;
        }
    }
}

TEST(SchedReference, FaultedMatchesSimulateElastic)
{
    static const double kCheckpoints[] = {60.0, 600.0, 3600.0};
    static const double kRestarts[] = {0.0, 30.0, 120.0};
    for (int seed = 0; seed < kReferenceStreams; ++seed) {
        mlps::sim::Rng rng(9000 + seed);
        int gpus = 2 << rng.below(4);
        auto jobs = randomStream(rng, gpus, 7000 + seed);
        double horizon = jobs.back().arrival_s + 4.0 * 3600.0;
        auto outages = randomOutages(rng, gpus, horizon);
        double checkpoint = kCheckpoints[rng.below(3)];
        double restart = kRestarts[rng.below(3)];
        for (auto policy : {OnlinePolicy::FifoFullWidth,
                            OnlinePolicy::FifoBestWidth}) {
            for (auto recovery :
                 {RecoveryPolicy::Requeue, RecoveryPolicy::Shrink,
                  RecoveryPolicy::Migrate}) {
                SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                             toString(policy) + " " +
                             toString(recovery));
                auto got = simulateElastic(jobs, gpus, policy, outages,
                                           recovery, checkpoint,
                                           restart);
                auto want = mlps::reference::simulateElastic(
                    jobs, gpus, policy, outages, recovery, checkpoint,
                    restart);
                expectSameSchedule(sortedPlacements(got.online.schedule),
                                   sortedPlacements(want.online.schedule));
                EXPECT_EQ(got.online.makespan_s, want.online.makespan_s);
                EXPECT_EQ(got.online.avg_wait_s, want.online.avg_wait_s);
                EXPECT_EQ(got.online.avg_turnaround_s,
                          want.online.avg_turnaround_s);
                EXPECT_EQ(got.online.max_wait_s, want.online.max_wait_s);
                expectNearlyEqual(got.online.utilization,
                                  want.online.utilization);
                EXPECT_EQ(got.lost_work_s, want.lost_work_s);
                EXPECT_EQ(got.restart_s, want.restart_s);
                expectNearlyEqual(got.goodput, want.goodput);
                EXPECT_EQ(got.availability, want.availability);
                EXPECT_EQ(got.interruptions, want.interruptions);
                if (HasFailure())
                    return;
            }
        }
    }
}

} // namespace
