/**
 * @file
 * Tests for the study report generator and the correlation matrix.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/report.h"
#include "exec/engine.h"
#include "obs/registry.h"
#include "sim/rng.h"
#include "stats/matrix.h"

namespace {

using namespace mlps;

TEST(Correlation, PerfectAndInverse)
{
    stats::Matrix samples({{1.0, 2.0, -1.0},
                           {2.0, 4.0, -2.0},
                           {3.0, 6.0, -3.0}});
    stats::Matrix corr = stats::correlationMatrix(samples);
    EXPECT_DOUBLE_EQ(corr.at(0, 0), 1.0);
    EXPECT_NEAR(corr.at(0, 1), 1.0, 1e-12);
    EXPECT_NEAR(corr.at(0, 2), -1.0, 1e-12);
    EXPECT_TRUE(corr.isSymmetric(1e-12));
}

TEST(Correlation, BoundedInMinusOneOne)
{
    sim::Rng rng(77);
    std::vector<std::vector<double>> rows;
    for (int i = 0; i < 40; ++i)
        rows.push_back({rng.gaussian(), rng.gaussian(),
                        rng.gaussian() + rng.uniform()});
    stats::Matrix corr = stats::correlationMatrix(stats::Matrix(rows));
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
            EXPECT_GE(corr.at(i, j), -1.0 - 1e-12);
            EXPECT_LE(corr.at(i, j), 1.0 + 1e-12);
        }
    }
}

TEST(Correlation, ConstantColumnZeroCorrelation)
{
    stats::Matrix samples({{5.0, 1.0}, {5.0, 2.0}, {5.0, 3.0}});
    stats::Matrix corr = stats::correlationMatrix(samples);
    EXPECT_DOUBLE_EQ(corr.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(corr.at(0, 1), 0.0);
}

TEST(Report, ContainsEverySection)
{
    std::string md = core::generateStudyReport();
    EXPECT_NE(md.find("# mlpsim study report"), std::string::npos);
    EXPECT_NE(md.find("Scaling efficiency"), std::string::npos);
    EXPECT_NE(md.find("Mixed precision"), std::string::npos);
    EXPECT_NE(md.find("Topology impact"), std::string::npos);
    EXPECT_NE(md.find("scheduling"), std::string::npos);
    EXPECT_NE(md.find("characterization"), std::string::npos);
    EXPECT_NE(md.find("MLPf_NCF_Py"), std::string::npos);
    EXPECT_NE(md.find("C4140 (K)"), std::string::npos);
    EXPECT_NE(md.find("Fig. 5 at pod scale"), std::string::npos);
}

TEST(Report, OptionsDisableSections)
{
    core::ReportOptions opts;
    opts.include_topology = false;
    opts.include_characterization = false;
    std::string md = core::generateStudyReport(opts);
    EXPECT_EQ(md.find("Topology impact"), std::string::npos);
    EXPECT_EQ(md.find("characterization"), std::string::npos);
    EXPECT_NE(md.find("Scaling efficiency"), std::string::npos);
}

/** Degraded-fabric-only options: fast and focused on the new table. */
core::ReportOptions
degradedOnly()
{
    core::ReportOptions opts;
    opts.include_scaling = false;
    opts.include_mixed_precision = false;
    opts.include_topology = false;
    opts.include_scheduling = false;
    opts.include_characterization = false;
    opts.include_faults = false;
    opts.include_degraded_fabric = true;
    opts.include_pod_scale = false; // covered by pod_fabric_test
    return opts;
}

TEST(Report, DegradedFabricSectionRendersAllColumns)
{
    std::string md = core::generateStudyReport(degradedOnly());
    EXPECT_NE(md.find("## Fig. 5 under degraded fabric"),
              std::string::npos);
    // Healthy NVLink, the two sick fabrics, and the CPU-PCIe floor.
    EXPECT_NE(md.find("C4140 (M)"), std::string::npos);
    EXPECT_NE(md.find("nvlink 0 down"), std::string::npos);
    EXPECT_NE(md.find("pcie x0.25"), std::string::npos);
    EXPECT_NE(md.find("T640"), std::string::npos);
    EXPECT_NE(md.find("MLPf_XFMR_Py"), std::string::npos);
    EXPECT_EQ(md.find("ERROR("), std::string::npos);

    core::ReportOptions off = degradedOnly();
    off.include_degraded_fabric = false;
    EXPECT_EQ(core::generateStudyReport(off)
                  .find("under degraded fabric"),
              std::string::npos);
}

TEST(Report, DegradedFabricBytesIndependentOfWorkerCount)
{
    core::ReportOptions one = degradedOnly();
    one.jobs = 1;
    core::ReportOptions four = degradedOnly();
    four.jobs = 4;
    EXPECT_EQ(core::generateStudyReport(one),
              core::generateStudyReport(four));
}

TEST(Report, DegradedFabricBytesIndependentOfCacheWarmth)
{
    auto dir = std::filesystem::temp_directory_path() /
               "mlpsim_report_degraded_cache_test";
    std::filesystem::remove_all(dir);
    core::ReportOptions opts = degradedOnly();
    opts.cache_dir = dir.string();
    std::string cold = core::generateStudyReport(opts);
    std::string warm = core::generateStudyReport(opts);
    EXPECT_EQ(cold, warm);
    std::filesystem::remove_all(dir);
}

TEST(Report, MetricsSnapshotCountsTheCallersEngine)
{
    // The section helpers must run on the caller's engine without
    // building (and registering) engines of their own: a throwaway
    // engine would replace the live exec.* rows with its zeros.
    core::ReportOptions opts;
    opts.include_topology = false;
    opts.include_faults = false;
    opts.include_degraded_fabric = false;
    opts.include_attribution = false;
    opts.include_pod_scale = false;
    exec::Engine engine(exec::ExecOptions{1});
    core::generateStudyReport(opts, engine);
    bool found = false;
    double requests = obs::MetricRegistry::global().value(
        "exec.engine.requests", &found);
    EXPECT_TRUE(found);
    EXPECT_GT(engine.stats().requests, 0u);
    EXPECT_EQ(requests, static_cast<double>(engine.stats().requests));
}

TEST(Report, WritesFile)
{
    std::string path = ::testing::TempDir() + "/mlpsim_report_test.md";
    core::ReportOptions light;
    light.include_scaling = false;
    light.include_topology = false;
    light.include_scheduling = false;
    light.include_characterization = false;
    ASSERT_TRUE(core::writeStudyReport(path, light));
    std::ifstream in(path);
    std::string first;
    std::getline(in, first);
    EXPECT_EQ(first, "# mlpsim study report");
    std::remove(path.c_str());
}

} // namespace
