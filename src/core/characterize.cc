#include "core/characterize.h"

#include <cmath>
#include <limits>
#include <optional>

#include "exec/engine.h"
#include "prof/kernel_profiler.h"
#include "sim/logger.h"

namespace mlps::core {

CharacterizationReport
characterize(const sys::SystemConfig &system, int num_gpus,
             exec::Engine *engine,
             const std::vector<wl::WorkloadSpec> &extra)
{
    Registry registry;
    for (const wl::WorkloadSpec &spec : extra)
        registry.add(spec);
    std::optional<exec::Engine> local;
    exec::Engine &eng = engine ? *engine : local.emplace(exec::ExecOptions{1});

    std::vector<exec::RunRequest> batch;
    for (const Benchmark &b : registry.all()) {
        train::RunOptions opts;
        // DeepBench's collective benchmark is meaningless on one GPU;
        // everything else runs at the requested count (collectives
        // need at least two).
        opts.num_gpus = num_gpus;
        if (b.spec().mode == wl::RunMode::CollectiveLoop &&
            num_gpus < 2) {
            opts.num_gpus = std::min(2, system.num_gpus);
        }
        opts.precision = hw::Precision::Mixed;

        exec::RunRequest req;
        req.system = system;
        req.workload = b.spec();
        req.options = opts;
        req.profiled = true;
        batch.push_back(std::move(req));
    }
    std::vector<exec::RunResult> results = eng.run(std::move(batch));

    CharacterizationReport report;
    std::vector<prof::MetricSet> valid_metrics;
    std::size_t i = 0;
    for (const Benchmark &b : registry.all()) {
        const exec::RunResult &r = results[i++];
        report.workloads.push_back(b.abbrev());
        report.suites.push_back(b.suite());

        stats::RooflinePoint pt;
        pt.label = b.abbrev();
        if (r.error) {
            report.errors.push_back(r.error->reason);
            report.metrics.emplace_back();
            report.pca_row.push_back(-1);
            pt.intensity = std::numeric_limits<double>::quiet_NaN();
            pt.flops = std::numeric_limits<double>::quiet_NaN();
        } else {
            report.errors.emplace_back();
            report.metrics.push_back(prof::extractMetrics(r.train));
            report.pca_row.push_back(
                static_cast<int>(valid_metrics.size()));
            valid_metrics.push_back(report.metrics.back());
            pt.intensity = r.profile.aggregateIntensity();
            pt.flops = r.profile.aggregateFlopsPerSec();
        }
        report.roofline_points.push_back(pt);
    }

    // PCA needs at least two samples; with fewer valid rows the
    // report still carries per-workload metrics, just no scores.
    report.pca_valid = valid_metrics.size() >= 2;
    if (report.pca_valid) {
        stats::Matrix samples(prof::toMatrix(valid_metrics));
        report.pca = stats::pca(samples, true);
    }
    return report;
}

double
CharacterizationReport::score(std::size_t i, int pc) const
{
    if (i >= pca_row.size() || pca_row[i] < 0 || !pca_valid)
        return std::numeric_limits<double>::quiet_NaN();
    return pca.scores.at(pca_row[i], pc);
}

double
suiteSeparation(const CharacterizationReport &report, int pc,
                wl::SuiteTag a, wl::SuiteTag b)
{
    if (pc < 0 || pc >= report.pca.scores.cols())
        sim::fatal("suiteSeparation: bad PC index %d", pc);
    double sum_a = 0.0, sum_b = 0.0;
    int n_a = 0, n_b = 0;
    for (std::size_t i = 0; i < report.suites.size(); ++i) {
        // Degraded rows carry no PCA score; separation is computed
        // over the workloads that actually characterized.
        if (i < report.pca_row.size() && report.pca_row[i] < 0)
            continue;
        const int row = i < report.pca_row.size()
                            ? report.pca_row[i]
                            : static_cast<int>(i);
        double score = report.pca.scores.at(row, pc);
        if (report.suites[i] == a) {
            sum_a += score;
            ++n_a;
        } else if (report.suites[i] == b) {
            sum_b += score;
            ++n_b;
        }
    }
    if (n_a == 0 || n_b == 0)
        sim::fatal("suiteSeparation: a suite has no members");
    return std::fabs(sum_a / n_a - sum_b / n_b);
}

} // namespace mlps::core
