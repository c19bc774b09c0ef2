/**
 * @file
 * Cost of the attribution engine, and proof it is free when unused.
 *
 * Attribution is explicitly invoked (mlpsim explain, the report's
 * "Where the time goes" section, addAttribution lanes); the training
 * hot path never calls into obs/attrib. The CI gate relies on the
 * first pair of cases: BM_TrainRun_NoAttribution measures the plain
 * simulation, and must sit within 2% of pre-attribution history —
 * the only trainer cost attribution adds is copying the all-reduce's
 * three per-tier byte counts into IterationBreakdown::comm_tier_bytes.
 * Compare with --benchmark_filter=TrainRun across builds.
 *
 * The armed cases price what explain/report actually pay: one
 * attributeRun per point (arithmetic over the result, no network
 * pricing) plus the JSON rendering.
 */

#include <benchmark/benchmark.h>

#include "core/suite.h"
#include "obs/attrib/attribution.h"
#include "sys/machines.h"
#include "train/training_job.h"

namespace {

using namespace mlps;

train::RunOptions
eightGpus()
{
    train::RunOptions opts;
    opts.num_gpus = 8;
    return opts;
}

/** The disabled path: simulation exactly as a non-explain user runs
 *  it. The 2% CI gate compares this against history. */
void
BM_TrainRun_NoAttribution(benchmark::State &state)
{
    core::Suite suite(sys::dss8440());
    for (auto _ : state) {
        train::TrainResult r = suite.run("MLPf_Res50_MX", eightGpus());
        benchmark::DoNotOptimize(&r);
    }
}
BENCHMARK(BM_TrainRun_NoAttribution)->Unit(benchmark::kMicrosecond);

/** The armed path: the same run plus its attribution. */
void
BM_TrainRun_WithAttribution(benchmark::State &state)
{
    core::Suite suite(sys::dss8440());
    const core::Benchmark *b = suite.registry().find("MLPf_Res50_MX");
    train::RunOptions opts = eightGpus();
    for (auto _ : state) {
        train::TrainResult r = suite.run("MLPf_Res50_MX", opts);
        obs::attrib::Attribution a =
            obs::attrib::attributeRun(b->spec(), r);
        benchmark::DoNotOptimize(&a);
    }
}
BENCHMARK(BM_TrainRun_WithAttribution)->Unit(benchmark::kMicrosecond);

/** Attribution alone, single box: the marginal explain cost. */
void
BM_AttributeRun_Box(benchmark::State &state)
{
    core::Suite suite(sys::dss8440());
    const core::Benchmark *b = suite.registry().find("MLPf_Res50_MX");
    train::RunOptions opts = eightGpus();
    train::TrainResult r = suite.run("MLPf_Res50_MX", opts);
    for (auto _ : state) {
        obs::attrib::Attribution a =
            obs::attrib::attributeRun(b->spec(), r);
        benchmark::DoNotOptimize(&a);
    }
}
BENCHMARK(BM_AttributeRun_Box)->Unit(benchmark::kMicrosecond);

/** Attribution alone at pod scale. The span graph stays O(tiers) and
 *  the per-tier byte split comes with the result, so this should cost
 *  about what the single-box case does. */
void
BM_AttributeRun_Pod512(benchmark::State &state)
{
    core::Suite suite(sys::withPod(sys::c4140M(), 16, 8));
    const core::Benchmark *b = suite.registry().find("MLPf_Res50_MX");
    train::RunOptions opts;
    opts.num_gpus = 512;
    train::TrainResult r = suite.run("MLPf_Res50_MX", opts);
    for (auto _ : state) {
        obs::attrib::Attribution a =
            obs::attrib::attributeRun(b->spec(), r);
        benchmark::DoNotOptimize(&a);
    }
}
BENCHMARK(BM_AttributeRun_Pod512)->Unit(benchmark::kMicrosecond);

/** Rendering the stable mlpsim-attribution-v1 document. */
void
BM_AttributionToJson(benchmark::State &state)
{
    core::Suite suite(sys::withPod(sys::c4140M(), 16, 8));
    const core::Benchmark *b = suite.registry().find("MLPf_Res50_MX");
    train::RunOptions opts;
    opts.num_gpus = 512;
    train::TrainResult r = suite.run("MLPf_Res50_MX", opts);
    obs::attrib::Attribution a =
        obs::attrib::attributeRun(b->spec(), r);
    for (auto _ : state) {
        std::string json = obs::attrib::toJson(a);
        benchmark::DoNotOptimize(json.data());
    }
}
BENCHMARK(BM_AttributionToJson)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
