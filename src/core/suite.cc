#include "core/suite.h"

#include <cmath>
#include <limits>
#include <optional>

#include "sim/logger.h"
#include "sys/machines.h"

namespace mlps::core {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Failure reason of a captured-error result, empty on success. */
std::string
reasonOf(const exec::RunResult &r)
{
    return r.error ? r.error->reason : std::string();
}

} // namespace

Suite::Suite(const sys::SystemConfig &system)
    : system_(system), trainer_(system_),
      reference_(sys::mlperfReference())
{
}

const Benchmark *
Suite::findOrDie(const std::string &abbrev) const
{
    const Benchmark *b = registry_.find(abbrev);
    if (!b)
        sim::fatal("Suite: unknown benchmark '%s'%s", abbrev.c_str(),
                   didYouMean(abbrev, registry_.names()).c_str());
    return b;
}

exec::RunRequest
Suite::request(const std::string &abbrev, const train::RunOptions &opts,
               bool profiled) const
{
    exec::RunRequest req;
    req.system = system_;
    req.workload = findOrDie(abbrev)->spec();
    req.options = opts;
    req.profiled = profiled;
    return req;
}

train::TrainResult
Suite::run(const std::string &abbrev, const train::RunOptions &opts,
           prof::KernelProfiler *profiler) const
{
    return trainer_.run(findOrDie(abbrev)->spec(), opts, profiler);
}

train::TrainResult
Suite::run(const std::string &abbrev, const train::RunOptions &opts,
           exec::Engine &engine) const
{
    return engine.runOne(request(abbrev, opts)).train;
}

std::vector<train::TrainResult>
Suite::runSuite(wl::SuiteTag tag, const train::RunOptions &opts,
                exec::Engine *engine) const
{
    std::optional<exec::Engine> local;
    exec::Engine &eng = engine ? *engine : local.emplace(exec::ExecOptions{1});

    std::vector<exec::RunRequest> batch;
    for (const Benchmark *b : registry_.bySuite(tag)) {
        exec::RunRequest req;
        req.system = system_;
        req.workload = b->spec();
        req.options = opts;
        batch.push_back(std::move(req));
    }
    std::vector<train::TrainResult> out;
    for (auto &r : eng.run(std::move(batch)))
        out.push_back(std::move(r.train));
    return out;
}

std::vector<ScalingRow>
Suite::scalingStudy(const std::vector<std::string> &abbrevs,
                    const std::vector<int> &gpu_counts,
                    exec::Engine *engine) const
{
    std::optional<exec::Engine> local;
    exec::Engine &eng = engine ? *engine : local.emplace(exec::ExecOptions{1});

    // Declare the full grid first so the engine can dedupe and
    // parallelize across it; the walk below consumes results in the
    // same order.
    std::vector<exec::RunRequest> batch;
    for (const auto &abbrev : abbrevs) {
        const Benchmark *b = findOrDie(abbrev);

        // P100 column: the v0.5 reference code, fp32, one GPU.
        exec::RunRequest ref;
        ref.system = reference_;
        ref.workload = b->spec();
        ref.options.num_gpus = 1;
        ref.options.precision = hw::Precision::FP32;
        ref.options.reference_code = true;
        batch.push_back(std::move(ref));

        // V100 columns: the tuned submission, mixed precision.
        exec::RunRequest sub;
        sub.system = system_;
        sub.workload = b->spec();
        sub.options.precision = hw::Precision::Mixed;
        sub.options.num_gpus = 1;
        batch.push_back(sub);
        for (int n : gpu_counts) {
            if (n == 1)
                continue;
            sub.options.num_gpus = n;
            batch.push_back(sub);
        }
    }
    std::vector<exec::RunResult> results = eng.run(std::move(batch));

    std::vector<ScalingRow> rows;
    std::size_t i = 0;
    for (const auto &abbrev : abbrevs) {
        ScalingRow row;
        row.workload = abbrev;
        const exec::RunResult &ref = results[i++];
        row.p100_error = reasonOf(ref);
        row.p100_minutes =
            row.p100_error.empty() ? ref.train.totalMinutes() : kNaN;
        const exec::RunResult &base_r = results[i++];
        row.v100_error = reasonOf(base_r);
        double base = row.v100_error.empty()
                          ? base_r.train.total_seconds
                          : kNaN;
        row.v100_minutes = base / 60.0;
        row.p_to_v = row.p100_minutes / row.v100_minutes;
        for (int n : gpu_counts) {
            if (n == 1)
                continue;
            const exec::RunResult &wide = results[i++];
            // A scaling cell depends on both the 1-GPU base and the
            // n-GPU point; surface whichever failed.
            std::string err = reasonOf(wide);
            if (err.empty())
                err = row.v100_error;
            if (err.empty()) {
                row.scaling[n] = base / wide.train.total_seconds;
            } else {
                row.scaling[n] = kNaN;
                row.scaling_errors[n] = std::move(err);
            }
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

std::map<std::string, double>
Suite::mixedPrecisionStudy(const std::vector<std::string> &abbrevs,
                           int num_gpus, exec::Engine *engine,
                           std::map<std::string, std::string> *errors)
    const
{
    std::optional<exec::Engine> local;
    exec::Engine &eng = engine ? *engine : local.emplace(exec::ExecOptions{1});

    std::vector<exec::RunRequest> batch;
    for (const auto &abbrev : abbrevs) {
        train::RunOptions opts;
        opts.num_gpus = num_gpus;
        opts.precision = hw::Precision::FP32;
        batch.push_back(request(abbrev, opts));
        opts.precision = hw::Precision::Mixed;
        batch.push_back(request(abbrev, opts));
    }
    std::vector<exec::RunResult> results = eng.run(std::move(batch));

    std::map<std::string, double> speedups;
    std::size_t i = 0;
    for (const auto &abbrev : abbrevs) {
        const exec::RunResult &fp32_r = results[i++];
        const exec::RunResult &mixed_r = results[i++];
        std::string err = reasonOf(fp32_r);
        if (err.empty())
            err = reasonOf(mixed_r);
        if (err.empty()) {
            speedups[abbrev] = fp32_r.train.total_seconds /
                               mixed_r.train.total_seconds;
        } else {
            speedups[abbrev] = kNaN;
            if (errors)
                (*errors)[abbrev] = std::move(err);
        }
    }
    return speedups;
}

std::vector<sched::JobSpec>
Suite::jobSpecs(const std::vector<std::string> &abbrevs, int max_width,
                exec::Engine *engine,
                std::map<std::string, std::string> *errors) const
{
    std::optional<exec::Engine> local;
    exec::Engine &eng = engine ? *engine : local.emplace(exec::ExecOptions{1});

    std::vector<exec::RunRequest> batch;
    for (const auto &abbrev : abbrevs) {
        for (int w = 1; w <= max_width; w *= 2) {
            train::RunOptions opts;
            opts.num_gpus = w;
            batch.push_back(request(abbrev, opts));
        }
    }
    std::vector<exec::RunResult> results = eng.run(std::move(batch));

    std::vector<sched::JobSpec> jobs;
    std::size_t i = 0;
    for (const auto &abbrev : abbrevs) {
        sched::JobSpec j;
        j.name = abbrev;
        std::string err;
        for (int w = 1; w <= max_width; w *= 2) {
            const exec::RunResult &r = results[i++];
            if (err.empty())
                err = reasonOf(r);
            j.seconds_at_width[w] = r.train.total_seconds;
        }
        if (err.empty()) {
            jobs.push_back(std::move(j));
        } else if (errors) {
            // A job missing any width cannot be scheduled; drop it
            // and report why rather than feeding NaN to the solvers.
            (*errors)[abbrev] = std::move(err);
        }
    }
    return jobs;
}

} // namespace mlps::core
