/**
 * @file
 * Property tests of the attribution engine (obs/attrib).
 *
 * The load-bearing invariant: for every built-in workload, on every
 * system shape we ship (single box through 512-GPU pod), the four
 * attribution buckets sum to the trainer's iteration time within
 * 1e-9 relative — every nanosecond is classified, none is invented.
 * On top of that: the span graph is causally well-formed, the
 * critical path is a real path whose durations also sum to the
 * iteration time, and toJson() is byte-deterministic — including
 * across engine worker counts, which is what `mlpsim explain`
 * promises.
 */

#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/suite.h"
#include "exec/engine.h"
#include "net/allreduce.h"
#include "obs/attrib/attribution.h"
#include "obs/registry.h"
#include "sim/json.h"
#include "sim/logger.h"
#include "sys/machines.h"
#include "sys/system_config.h"
#include "train/trainer.h"
#include "train/training_job.h"

namespace {

using namespace mlps;
using obs::attrib::Attribution;
using obs::attrib::Bucket;
using obs::attrib::Span;

/** Systems the property sweep covers: box, 8-GPU box, 512-GPU pod. */
std::vector<std::pair<sys::SystemConfig, std::vector<int>>>
propertyGrid()
{
    return {
        {sys::dss8440(), {1, 2, 8}},
        {sys::c4140M(), {4}},
        {sys::withPod(sys::c4140M(), 16, 8), {8, 64, 512}},
    };
}

Attribution
attributeOn(const sys::SystemConfig &system, const std::string &name,
            int gpus, hw::Precision precision = hw::Precision::Mixed)
{
    core::Suite suite(system);
    train::RunOptions opts;
    opts.num_gpus = gpus;
    opts.precision = precision;
    train::TrainResult r = suite.run(name, opts);
    const core::Benchmark *b = suite.registry().find(name);
    return obs::attrib::attributeRun(b->spec(), r);
}

// The tentpole invariant: buckets provably sum to the iteration
// time, for every built-in workload on every system shape.
TEST(Attribution, BucketsSumToIterationOnEveryWorkloadAndSystem)
{
    core::Registry reg;
    for (const auto &[system, counts] : propertyGrid()) {
        for (int gpus : counts) {
            for (const auto &b : reg.all()) {
                Attribution a =
                    attributeOn(system, b.abbrev(), gpus);
                ASSERT_GT(a.iteration_s, 0.0)
                    << b.abbrev() << " on " << system.name;
                EXPECT_LE(
                    std::abs(a.bucketTotal() - a.iteration_s),
                    1e-9 * a.iteration_s)
                    << b.abbrev() << " on " << system.name << " x"
                    << gpus << ": buckets " << a.bucketTotal()
                    << " vs iteration " << a.iteration_s;
            }
        }
    }
}

TEST(Attribution, SpanGraphIsCausallyWellFormed)
{
    core::Registry reg;
    for (const auto &[system, counts] : propertyGrid()) {
        for (int gpus : counts) {
            for (const auto &b : reg.all()) {
                Attribution a =
                    attributeOn(system, b.abbrev(), gpus);
                std::set<int> ids;
                for (const Span &s : a.spans) {
                    EXPECT_TRUE(ids.insert(s.id).second)
                        << "duplicate span id " << s.id;
                    EXPECT_GE(s.duration_s, 0.0);
                    EXPECT_GE(s.replicas, 1);
                    // Parents precede their children causally.
                    for (int p : s.parents) {
                        ASSERT_TRUE(ids.count(p))
                            << "forward parent edge " << p;
                        EXPECT_LE(a.spans[p].start_s, s.start_s);
                    }
                }
            }
        }
    }
}

TEST(Attribution, CriticalPathIsARealPathCoveringTheIteration)
{
    core::Registry reg;
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 16, 8);
    for (const auto &b : reg.all()) {
        Attribution a = attributeOn(pod, b.abbrev(), 512);
        ASSERT_FALSE(a.critical_path.empty()) << b.abbrev();
        double path_s = 0.0;
        for (std::size_t i = 0; i < a.critical_path.size(); ++i) {
            const Span &s = a.spans[a.critical_path[i]];
            EXPECT_TRUE(s.critical);
            path_s += s.duration_s;
            if (i > 0) {
                // Consecutive path spans are causally linked.
                const Span &prev = a.spans[a.critical_path[i - 1]];
                bool linked = false;
                for (int p : s.parents)
                    linked = linked || p == prev.id;
                EXPECT_TRUE(linked)
                    << b.abbrev() << ": path hop " << prev.id
                    << " -> " << s.id << " has no parent edge";
            }
        }
        // The walk keeps zero-slack edges only, so the path spans
        // the whole iteration.
        EXPECT_LE(std::abs(path_s - a.iteration_s),
                  1e-9 * a.iteration_s)
            << b.abbrev() << ": path " << path_s << " vs iteration "
            << a.iteration_s;
        // Marked spans are exactly the path.
        std::size_t marked = 0;
        for (const Span &s : a.spans)
            marked += s.critical ? 1u : 0u;
        EXPECT_EQ(marked, a.critical_path.size());
    }
}

TEST(Attribution, ExposedCommSplitsByFabricTier)
{
    // 512 GPUs on a pod cross all three tiers; the per-tier split
    // must recover the whole exposed-comm bucket.
    Attribution a = attributeOn(sys::withPod(sys::c4140M(), 16, 8),
                                "MLPf_XFMR_Py", 512);
    double sum = 0.0;
    for (int t = 0; t < net::kNumFabricTiers; ++t) {
        EXPECT_GE(a.exposed_comm_s[t], 0.0);
        sum += a.exposed_comm_s[t];
    }
    EXPECT_DOUBLE_EQ(sum, a.exposedCommTotal());
    EXPECT_GT(a.exposed_comm_s[0], 0.0) << "intra-node";
    EXPECT_GT(a.exposed_comm_s[1], 0.0) << "intra-rack";
    EXPECT_GT(a.exposed_comm_s[2], 0.0) << "cross-rack";
    // Tier-tagged spans carry the same totals as the buckets.
    double span_comm = 0.0;
    for (const Span &s : a.spans)
        if (s.bucket == Bucket::ExposedComm)
            span_comm += s.duration_s;
    EXPECT_DOUBLE_EQ(span_comm, a.exposedCommTotal());
}

TEST(Attribution, TopContributorsAreSortedCriticalSpans)
{
    Attribution a = attributeOn(sys::dss8440(), "MLPf_GNMT_Py", 8);
    auto top = obs::attrib::topContributors(a, 3);
    ASSERT_FALSE(top.empty());
    ASSERT_LE(top.size(), 3u);
    for (std::size_t i = 0; i < top.size(); ++i) {
        EXPECT_TRUE(top[i]->critical);
        if (i > 0) {
            EXPECT_GE(top[i - 1]->duration_s, top[i]->duration_s);
        }
    }
    // Asking for more than the path holds returns the whole path.
    auto all = obs::attrib::topContributors(a, 1000);
    EXPECT_EQ(all.size(), a.critical_path.size());
}

TEST(Attribution, JsonIsValidStableAndCarriesTheSchema)
{
    core::Registry reg;
    for (const auto &b : reg.all()) {
        Attribution a = attributeOn(sys::dss8440(), b.abbrev(), 8);
        std::string one = obs::attrib::toJson(a);
        std::string two = obs::attrib::toJson(a);
        EXPECT_EQ(one, two) << b.abbrev();
        EXPECT_TRUE(sim::jsonValid(one)) << b.abbrev();
        EXPECT_NE(one.find("\"schema\":\"mlpsim-attribution-v1\""),
                  std::string::npos);
        EXPECT_NE(one.find("\"critical_path\":"), std::string::npos);
        EXPECT_NE(one.find("\"spans\":"), std::string::npos);
    }
}

// The `mlpsim explain` contract: attribution of an engine-evaluated
// point is byte-identical across worker counts and cache warmth.
TEST(Attribution, ByteIdenticalAcrossEngineJobsAndWarmth)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 16, 8);
    core::Suite suite(pod);
    train::RunOptions opts;
    opts.num_gpus = 512;
    exec::RunRequest req = suite.request("MLPf_Res50_MX", opts);

    std::vector<std::string> docs;
    for (int jobs : {1, 4}) {
        exec::Engine engine{exec::ExecOptions(jobs)};
        exec::RunResult cold = engine.runOne(req);
        exec::RunResult warm = engine.runOne(req); // cache hit
        EXPECT_TRUE(warm.cache_hit);
        docs.push_back(obs::attrib::toJson(
            obs::attrib::attributeRun(req, cold.train)));
        docs.push_back(obs::attrib::toJson(
            obs::attrib::attributeRun(req, warm.train)));
    }
    for (std::size_t i = 1; i < docs.size(); ++i)
        EXPECT_EQ(docs[0], docs[i]) << "doc " << i;
}

TEST(Attribution, KernelAndCollectiveLoopsAttributeTheirOwnShape)
{
    // Kernel loops have no comm/host spans: pure compute + overhead.
    Attribution k = attributeOn(sys::c4140M(), "Deep_GEMM_Cu", 4);
    EXPECT_DOUBLE_EQ(k.exposedCommTotal(), 0.0);
    EXPECT_DOUBLE_EQ(k.bubble_s, 0.0);
    EXPECT_GT(k.exposed_compute_s, 0.0);

    // Collective loops are the dual: comm-dominated.
    Attribution c = attributeOn(sys::c4140M(), "Deep_Red_Cu", 4);
    EXPECT_GT(c.exposedCommTotal(), 0.0);
    EXPECT_DOUBLE_EQ(c.exposed_compute_s, 0.0);

    // Single-GPU collective loop reduces locally: compute, no comm.
    Attribution c1 = attributeOn(sys::c4140M(), "Deep_Red_Cu", 1);
    EXPECT_DOUBLE_EQ(c1.exposedCommTotal(), 0.0);
    EXPECT_GT(c1.exposed_compute_s, 0.0);
}

TEST(Attribution, GatedByNamesThePipelineBottleneck)
{
    core::Registry reg;
    for (const auto &[system, counts] : propertyGrid()) {
        for (int gpus : counts) {
            for (const auto &b : reg.all()) {
                Attribution a =
                    attributeOn(system, b.abbrev(), gpus);
                EXPECT_TRUE(a.gated_by == "gpu" ||
                            a.gated_by == "host" ||
                            a.gated_by == "h2d")
                    << a.gated_by;
                // A bubble exists iff something other than the GPU
                // gates the iteration.
                if (a.bubble_s > 0.0) {
                    EXPECT_NE(a.gated_by, "gpu")
                        << b.abbrev() << " on " << system.name;
                }
            }
        }
    }
}

TEST(Attribution, RejectsResultsThatDontMatchTheRequest)
{
    sys::SystemConfig dss = sys::dss8440();
    core::Suite suite(dss);
    train::RunOptions opts;
    opts.num_gpus = 8;
    train::TrainResult r = suite.run("MLPf_Res50_MX", opts);
    const core::Benchmark *b = suite.registry().find("MLPf_Res50_MX");
    r.iter.fwd_s = -1.0; // corrupt: not a trainer output
    EXPECT_THROW(
        obs::attrib::attributeRun(b->spec(), r),
        sim::FatalError);
}

// ---- The result carries the split; attribution never re-prices ----

/** The pod the pod-scale differential cases run on. */
sys::SystemConfig
pod16x8()
{
    return sys::withPod(sys::c4140M(), 16, 8);
}

/**
 * The trainer's comm_tier_bytes must be bit-identical to pricing the
 * same all-reduce directly — the schedule attribution used to re-run
 * per point. Training runs price the gradient all-reduce, collective
 * loops the workload's payload, kernel loops nothing.
 */
void
expectTierBytesMatchDirectPricing(const sys::SystemConfig &system,
                                  const std::string &name, int gpus)
{
    core::Suite suite(system);
    train::RunOptions opts;
    opts.num_gpus = gpus;
    train::TrainResult r = suite.run(name, opts);
    const wl::WorkloadSpec &spec = suite.registry().find(name)->spec();

    net::AllReduceResult direct;
    if (gpus > 1 && spec.mode == wl::RunMode::Training) {
        direct = train::gradientAllReduce(system, spec, opts.precision,
                                          gpus);
    } else if (gpus > 1 && spec.mode == wl::RunMode::CollectiveLoop) {
        direct = net::autoHierarchicalAllReduce(
            system.topo, system.gpuSubset(gpus), spec.collective_bytes);
    }
    EXPECT_EQ(std::memcmp(r.iter.comm_tier_bytes, direct.tier_bytes,
                          sizeof(direct.tier_bytes)),
              0)
        << name << " on " << system.name << " x" << gpus << ": "
        << r.iter.comm_tier_bytes[0] << "/"
        << r.iter.comm_tier_bytes[1] << "/"
        << r.iter.comm_tier_bytes[2] << " vs " << direct.tier_bytes[0]
        << "/" << direct.tier_bytes[1] << "/" << direct.tier_bytes[2];
}

TEST(Attribution, TierBytesEqualDirectPricingOnABox)
{
    core::Registry reg;
    for (const auto &b : reg.all())
        expectTierBytesMatchDirectPricing(sys::dss8440(), b.abbrev(), 8);
}

TEST(Attribution, TierBytesEqualDirectPricingOnHealthyAndDegradedPods)
{
    sys::SystemConfig pod = pod16x8();
    for (const sys::SystemConfig &system :
         {pod, sys::withSpineDegraded(pod, 0.25),
          sys::withTorDegraded(pod, 3, 0.25)}) {
        for (const char *name : {"MLPf_Res50_MX", "MLPf_XFMR_Py"})
            expectTierBytesMatchDirectPricing(system, name, 512);
    }
}

TEST(Attribution, TierBytesEqualDirectPricingOnCollectiveLoops)
{
    expectTierBytesMatchDirectPricing(sys::dss8440(), "Deep_Red_Cu", 8);
    expectTierBytesMatchDirectPricing(pod16x8(), "Deep_Red_Cu", 8);
    expectTierBytesMatchDirectPricing(pod16x8(), "Deep_Red_Cu", 64);
}

// Attribution is arithmetic over the result: explaining a pod-512
// point must not touch the network model at all.
TEST(Attribution, DoesNoRouteLookups)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    auto lookups = [&reg] {
        return reg.value("net.topology.route_cache.hits") +
               reg.value("net.topology.route_cache.misses");
    };
    core::Suite suite(pod16x8());
    train::RunOptions opts;
    opts.num_gpus = 512;
    for (const char *name : {"MLPf_Res50_MX", "Deep_Red_Cu"}) {
        train::TrainResult r = suite.run(name, opts);
        const wl::WorkloadSpec &spec =
            suite.registry().find(name)->spec();
        double before = lookups();
        Attribution a = obs::attrib::attributeRun(spec, r);
        EXPECT_EQ(lookups(), before) << name;
        EXPECT_GT(a.exposedCommTotal(), 0.0) << name;
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

// `mlpsim explain --json` documents written by the build before
// attribution stopped re-pricing collectives (the _nvdown one by the
// build before flow simulation priced one copy per symmetry class,
// the _nvscale and _nicscale ones by the build before racks priced as
// copies of the first). The engine-evaluated attribution must
// reproduce them byte for byte.
TEST(Attribution, MatchesExplainGoldens)
{
    sys::SystemConfig pod = pod16x8();
    // One host's GPU0-GPU1 NVLink is down: that host re-chains its
    // ring around the dead link, the other 127 keep theirs.
    sys::SystemConfig nvdown = pod;
    sys::applyDegradedLinks(nvdown, "r3n5.GPU0-r3n5.GPU1:down");
    // The same NVLink at a quarter, and one NIC uplink of rack 3 at
    // half: a host, and a rack, that is no copy of the first.
    sys::SystemConfig nvscale = pod;
    sys::applyDegradedLinks(nvscale, "r3n5.GPU0-r3n5.GPU1:0.25");
    sys::SystemConfig nicscale = pod;
    sys::applyDegradedLinks(nicscale, "r3n5.NIC0-tor3:0.5");
    struct Case {
        const char *golden;
        sys::SystemConfig system;
        const char *workload;
        int gpus;
    };
    const Case cases[] = {
        {"explain_res50_pod512.json", pod, "MLPf_Res50_MX", 512},
        {"explain_res50_pod512_spine.json",
         sys::withSpineDegraded(pod, 0.25), "MLPf_Res50_MX", 512},
        {"explain_gnmt_dss8440_8.json", sys::dss8440(), "MLPf_GNMT_Py",
         8},
        {"explain_red_pod64.json", pod, "Deep_Red_Cu", 64},
        {"explain_res50_pod512_nvdown.json", nvdown, "MLPf_Res50_MX",
         512},
        {"explain_res50_pod512_nvscale.json", nvscale, "MLPf_Res50_MX",
         512},
        {"explain_res50_pod512_nicscale.json", nicscale, "MLPf_Res50_MX",
         512},
    };
    exec::Engine engine{exec::ExecOptions(2)};
    for (const Case &c : cases) {
        std::string golden =
            slurp(std::string(MLPSIM_GOLDEN_DIR) + "/" + c.golden);
        ASSERT_FALSE(golden.empty()) << c.golden;
        core::Suite suite(c.system);
        train::RunOptions opts;
        opts.num_gpus = c.gpus;
        exec::RunRequest req = suite.request(c.workload, opts);
        exec::RunResult res = engine.runOne(req);
        EXPECT_EQ(obs::attrib::toJson(
                      obs::attrib::attributeRun(req, res.train)) +
                      "\n",
                  golden)
            << c.golden;
    }
}

} // namespace
