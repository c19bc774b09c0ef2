#include "core/report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "core/characterize.h"
#include "core/suite.h"
#include "exec/engine.h"
#include "fault/fault_model.h"
#include "obs/attrib/attribution.h"
#include "obs/span.h"
#include "sched/naive.h"
#include "sched/optimal.h"
#include "sys/machines.h"
#include "train/checkpoint.h"

namespace mlps::core {

namespace {

const std::vector<std::string> &
mlperfNames()
{
    static const std::vector<std::string> names = {
        "MLPf_Res50_TF", "MLPf_Res50_MX", "MLPf_SSD_Py",
        "MLPf_MRCNN_Py", "MLPf_XFMR_Py",  "MLPf_GNMT_Py",
        "MLPf_NCF_Py",
    };
    return names;
}

/**
 * Render one numeric table cell: the formatted value, or
 * `ERROR(<reason>)` when the run behind it failed. The reason is the
 * deterministic failure class, never the exception text, so degraded
 * tables stay byte-stable.
 */
std::string
cell(double value, const char *fmt, const std::string &error)
{
    if (!error.empty())
        return "ERROR(" + error + ")";
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, value);
    return buf;
}

void
appendScaling(std::ostringstream &os, Suite &suite, exec::Engine &engine)
{
    os << "## Scaling efficiency (Table IV)\n\n"
       << "| Benchmark | 1x P100 (min) | 1x V100 (min) | P-to-V | "
          "1-to-2 | 1-to-4 | 1-to-8 |\n"
       << "|---|---|---|---|---|---|---|\n";
    std::vector<std::string> names = mlperfNames();
    names.erase(names.begin() + 5); // GNMT is absent from Table IV
    auto rows = suite.scalingStudy(names, {1, 2, 4, 8}, &engine);
    for (const auto &r : rows) {
        const std::string &pv_err =
            r.p100_error.empty() ? r.v100_error : r.p100_error;
        os << "| " << r.workload << " | "
           << cell(r.p100_minutes, "%.1f", r.p100_error) << " | "
           << cell(r.v100_minutes, "%.1f", r.v100_error) << " | "
           << cell(r.p_to_v, "%.2fx", pv_err) << " |";
        for (int n : {2, 4, 8}) {
            auto it = r.scaling_errors.find(n);
            os << " "
               << cell(r.scaling.at(n), "%.2fx",
                       it == r.scaling_errors.end() ? std::string()
                                                    : it->second)
               << " |";
        }
        os << "\n";
    }
    os << "\n";
}

void
appendMixedPrecision(std::ostringstream &os, Suite &suite,
                     exec::Engine &engine)
{
    os << "## Mixed precision speedups (Figure 3, 8 GPUs)\n\n"
       << "| Benchmark | speedup |\n|---|---|\n";
    std::map<std::string, std::string> errors;
    auto speedups =
        suite.mixedPrecisionStudy(mlperfNames(), 8, &engine, &errors);
    for (const auto &name : mlperfNames()) {
        auto it = errors.find(name);
        os << "| " << name << " | "
           << cell(speedups.at(name), "%.2fx",
                   it == errors.end() ? std::string() : it->second)
           << " |\n";
    }
    os << "\n";
}

void
appendTopology(std::ostringstream &os, Suite &suite, exec::Engine &engine)
{
    os << "## Topology impact (Figure 5, 4 GPUs, minutes)\n\n"
       << "| Benchmark |";
    auto systems = sys::figure5Systems();
    for (const auto &s : systems)
        os << " " << s.name << " |";
    os << "\n|---|";
    for (std::size_t i = 0; i < systems.size(); ++i)
        os << "---|";
    os << "\n";

    // One batch over the name x system grid; row-major so the walk
    // below matches the table layout.
    std::vector<exec::RunRequest> batch;
    for (const auto &name : mlperfNames()) {
        for (const auto &s : systems) {
            train::RunOptions opts;
            opts.num_gpus = 4;
            exec::RunRequest req = suite.request(name, opts);
            req.system = s;
            batch.push_back(std::move(req));
        }
    }
    auto results = engine.run(std::move(batch));

    std::size_t i = 0;
    for (const auto &name : mlperfNames()) {
        os << "| " << name << " |";
        for (std::size_t c = 0; c < systems.size(); ++c) {
            const exec::RunResult &r = results[i++];
            os << " "
               << cell(r.train.totalMinutes(), "%.1f",
                       r.error ? r.error->reason : std::string())
               << " |";
        }
        os << "\n";
    }
    os << "\n";
}

void
appendScheduling(std::ostringstream &os, Suite &suite,
                 exec::Engine &engine)
{
    os << "## Optimal vs naive scheduling (Figure 4)\n\n";
    std::map<std::string, std::string> errors;
    auto jobs = suite.jobSpecs(mlperfNames(), 8, &engine, &errors);
    if (jobs.empty()) {
        os << "No schedulable jobs: every workload had a failed "
              "width (see Degraded runs).\n\n";
    } else {
        os << "| GPUs | naive (h) | optimal (h) | saved (h) |\n"
           << "|---|---|---|---|\n";
        char line[128];
        for (int g : {2, 4, 8}) {
            double naive = sched::naiveSchedule(jobs, g).makespan();
            double opt = sched::optimalSchedule(jobs, g).makespan_s;
            std::snprintf(line, sizeof(line),
                          "| %d | %.2f | %.2f | %.1f |\n", g,
                          naive / 3600.0, opt / 3600.0,
                          (naive - opt) / 3600.0);
            os << line;
        }
        os << "\n";
    }
    if (!errors.empty()) {
        os << "Jobs excluded for failed runs:";
        for (const auto &[name, reason] : errors)
            os << " " << name << " (ERROR(" << reason << "))";
        os << "\n\n";
    }
}

void
appendCharacterization(std::ostringstream &os, exec::Engine &engine)
{
    sys::SystemConfig k = sys::c4140K();
    auto rep = characterize(k, 1, &engine);
    os << "## Workload characterization (Figures 1-2, on "
       << k.name << ")\n\n"
       << "| Workload | Suite | PC1 | PC2 | FLOP/B | TFLOP/s |\n"
       << "|---|---|---|---|---|---|\n";
    char line[192];
    for (std::size_t i = 0; i < rep.workloads.size(); ++i) {
        const std::string &err = rep.errors[i];
        // A healthy row can still lack scores when so many runs
        // failed that PCA had fewer than two samples.
        const std::string pc_err =
            !err.empty() ? err
            : rep.pca_valid ? std::string()
                            : std::string("pca skipped");
        os << "| " << rep.workloads[i] << " | "
           << wl::toString(rep.suites[i]) << " | "
           << cell(rep.score(i, 0), "%.2f", pc_err) << " | "
           << cell(rep.score(i, 1), "%.2f", pc_err) << " | "
           << cell(rep.roofline_points[i].intensity, "%.1f", err)
           << " | "
           << cell(rep.roofline_points[i].flops / 1e12, "%.2f", err)
           << " |\n";
    }
    if (rep.pca_valid) {
        std::snprintf(line, sizeof(line),
                      "\nPC1-PC4 explained variance: %.1f%%\n\n",
                      100.0 * rep.pca.cumulativeVariance(4));
        os << line;
    } else {
        os << "\nPCA skipped: fewer than two workloads "
              "characterized.\n\n";
    }
}

void
appendFaultTolerance(std::ostringstream &os, Suite &suite,
                     exec::Engine &engine)
{
    os << "## Fault-tolerant time-to-train (8 GPUs, seed 42)\n\n"
       << "Expected wall time under a datacenter fault profile, with "
          "Young-Daly-optimal checkpointing.\n\n"
       << "| Benchmark | MTTF (h) | fault-free (min) | expected (min) "
          "| goodput | availability | lost work (min) | ckpt interval "
          "(min) |\n"
       << "|---|---|---|---|---|---|---|---|\n";
    train::RunOptions opts;
    opts.num_gpus = 8;
    char line[256];
    for (const auto &name :
         {std::string("MLPf_Res50_MX"), std::string("MLPf_GNMT_Py")}) {
        const Benchmark *b = suite.registry().find(name);
        exec::RunResult rr = engine.runOne(suite.request(name, opts));
        if (rr.error) {
            // The base run failed, so every MTTF row of this
            // workload is derived from nothing; keep the rows (the
            // table shape is part of the contract) as ERROR cells.
            for (double mttf : {6.0, 24.0, 168.0}) {
                std::snprintf(line, sizeof(line), "| %s | %.0f |",
                              name.c_str(), mttf);
                os << line;
                for (int c = 0; c < 6; ++c)
                    os << " ERROR(" << rr.error->reason << ") |";
                os << "\n";
            }
            continue;
        }
        const train::TrainResult &base = rr.train;
        auto ckpt = train::checkpointModelFor(suite.system(), b->spec());
        for (double mttf : {6.0, 24.0, 168.0}) {
            fault::FaultModel model(
                fault::FaultModelConfig::datacenterProfile(mttf), 42);
            auto ft = train::applyFaultTrace(base, ckpt, model);
            std::snprintf(
                line, sizeof(line),
                "| %s | %.0f | %.1f | %.1f | %.3f | %.3f | %.1f | "
                "%.1f |\n",
                name.c_str(), mttf, base.totalMinutes(),
                ft.expected_seconds / 60.0, ft.goodput(),
                ft.availability(), ft.lost_work_s / 60.0,
                std::isinf(ft.checkpoint_interval_s)
                    ? 0.0
                    : ft.checkpoint_interval_s / 60.0);
            os << line;
        }
    }
    os << "\n";
}

void
appendDegradedFabric(std::ostringstream &os, Suite &suite,
                     exec::Engine &engine)
{
    // Healthy NVLink mesh, the same mesh with one NVLink edge dead,
    // the same mesh with every PCIe link downtrained, and the
    // CPU-PCIe box as the floor. The ordering healthy <= degraded <=
    // CPU-PCIe is modeled, not asserted — the collective rebuilds its
    // ring and falls back through fabric tiers on its own.
    std::vector<sys::SystemConfig> systems = {
        sys::c4140M(),
        sys::withNvlinkEdgeDown(sys::c4140M(), 0),
        sys::withPcieDowntrained(sys::c4140M(), 0.25),
        sys::t640(),
    };
    os << "## Fig. 5 under degraded fabric (4 GPUs, minutes)\n\n"
       << "| Benchmark |";
    for (const auto &s : systems)
        os << " " << s.name << " |";
    os << "\n|---|";
    for (std::size_t i = 0; i < systems.size(); ++i)
        os << "---|";
    os << "\n";

    std::vector<exec::RunRequest> batch;
    for (const auto &name : mlperfNames()) {
        for (const auto &s : systems) {
            train::RunOptions opts;
            opts.num_gpus = 4;
            exec::RunRequest req = suite.request(name, opts);
            req.system = s;
            batch.push_back(std::move(req));
        }
    }
    auto results = engine.run(std::move(batch));

    std::size_t i = 0;
    for (const auto &name : mlperfNames()) {
        os << "| " << name << " |";
        for (std::size_t c = 0; c < systems.size(); ++c) {
            const exec::RunResult &r = results[i++];
            os << " "
               << cell(r.train.totalMinutes(), "%.1f",
                       r.error ? r.error->reason : std::string())
               << " |";
        }
        os << "\n";
    }
    os << "\nThe dead-NVLink column rebuilds the all-reduce ring over "
          "surviving links; the downtrained column keeps its routes "
          "but loses bandwidth.\n\n";
}

/**
 * The 512-GPU pod of the pod-scale and attribution sections, built on
 * first use: a pod of the NVLink box, 16 racks x 8 hosts x 4 GPUs,
 * wired through per-host NICs, per-rack ToRs and two spines. Both
 * sections price copies of it, which share its graph, so one report
 * builds and hashes that graph once.
 */
const sys::SystemConfig &
pod512(std::optional<sys::SystemConfig> &pod)
{
    if (!pod)
        pod = sys::withPod(sys::c4140M(), 16, 8);
    return *pod;
}

void
appendPodScale(std::ostringstream &os, Suite &suite,
               exec::Engine &engine, std::optional<sys::SystemConfig> &pod)
{
    // gpuSubset(n) fills whole hosts first, so the sweep moves from
    // intra-node NVLink (8 = 2 hosts) through intra-rack (32 = one
    // rack) to cross-rack collectives (64+).
    const sys::SystemConfig &healthy = pod512(pod);
    const sys::SystemConfig degraded = sys::withSpineDegraded(healthy, 0.5);
    const std::string workload = "MLPf_Res50_MX";
    const std::vector<int> counts = {8, 16, 32, 64, 128, 256, 512};

    os << "## Fig. 5 at pod scale (" << healthy.name << ", "
       << workload << ", minutes)\n\n"
       << "| GPUs | healthy | spine x0.5 | slowdown |\n"
       << "|---|---|---|---|\n";

    std::vector<exec::RunRequest> batch;
    for (int n : counts) {
        for (const sys::SystemConfig *s : {&healthy, &degraded}) {
            train::RunOptions opts;
            opts.num_gpus = n;
            exec::RunRequest req = suite.request(workload, opts);
            req.system = *s;
            batch.push_back(std::move(req));
        }
    }
    auto results = engine.run(std::move(batch));

    std::size_t i = 0;
    for (int n : counts) {
        const exec::RunResult &h = results[i++];
        const exec::RunResult &d = results[i++];
        const std::string h_err =
            h.error ? h.error->reason : std::string();
        const std::string d_err =
            d.error ? d.error->reason : std::string();
        os << "| " << n << " | "
           << cell(h.train.totalMinutes(), "%.1f", h_err) << " | "
           << cell(d.train.totalMinutes(), "%.1f", d_err) << " | "
           << cell(h.train.totalMinutes() > 0.0
                       ? d.train.totalMinutes() / h.train.totalMinutes()
                       : 0.0,
                   "%.2fx", !h_err.empty() ? h_err : d_err)
           << " |\n";
    }
    os << "\nBelow one rack (32 GPUs) both columns ride NVLink and "
          "the rack fabric only; past it gradients cross the spine "
          "layer and the oversubscribed column falls behind.\n\n";
}

/**
 * "Where the time goes": critical-path attribution of every MLPerf
 * workload on the report box and at pod scale. Each point's
 * iteration decomposes into the four attribution buckets (their sum
 * is the iteration time; attrib_test pins the invariant), and the
 * top-3 critical-path spans name the concrete phases behind the
 * percentages.
 */
void
appendAttribution(std::ostringstream &os, Suite &suite,
                  exec::Engine &engine,
                  std::optional<sys::SystemConfig> &pod)
{
    struct Target {
        sys::SystemConfig system;
        int gpus;
    };
    const std::vector<Target> targets = {
        {suite.system(), 8},
        {pod512(pod), 512},
    };

    os << "## Where the time goes (critical-path attribution)\n\n"
       << "Every iteration decomposes into exposed compute, exposed "
          "communication (by fabric tier), pipeline bubble and "
          "overhead; the buckets provably sum to the iteration time. "
          "Contributors are the longest spans on the critical path.\n";

    std::vector<exec::RunRequest> batch;
    for (const Target &t : targets) {
        for (const auto &name : mlperfNames()) {
            train::RunOptions ropts;
            ropts.num_gpus = t.gpus;
            exec::RunRequest req = suite.request(name, ropts);
            req.system = t.system;
            batch.push_back(std::move(req));
        }
    }
    // Copy the batch in: the requests are needed again below to
    // attribute each result against its own inputs.
    auto results = engine.run(batch);

    std::size_t i = 0;
    for (const Target &t : targets) {
        os << "\n### " << t.system.name << ", " << t.gpus
           << " GPU(s)\n\n"
           << "| Benchmark | compute | comm | bubble | overhead | "
              "top critical-path contributors |\n"
           << "|---|---|---|---|---|---|\n";
        for (const auto &name : mlperfNames()) {
            const exec::RunRequest &req = batch[i];
            const exec::RunResult &r = results[i];
            ++i;
            if (r.error) {
                os << "| " << name << " | ERROR(" << r.error->reason
                   << ") | | | | |\n";
                continue;
            }
            obs::attrib::Attribution a =
                obs::attrib::attributeRun(req, r.train);
            double denom =
                a.iteration_s > 0.0 ? a.iteration_s : 1.0;
            char cells[96];
            std::snprintf(cells, sizeof(cells),
                          " %.1f%% | %.1f%% | %.1f%% | %.1f%% |",
                          100.0 * a.exposed_compute_s / denom,
                          100.0 * a.exposedCommTotal() / denom,
                          100.0 * a.bubble_s / denom,
                          100.0 * a.overhead_s / denom);
            os << "| " << name << " |" << cells;
            auto top = obs::attrib::topContributors(a, 3);
            for (std::size_t k = 0; k < top.size(); ++k) {
                char share[64];
                std::snprintf(share, sizeof(share), " %s %.1f%%",
                              top[k]->name.c_str(),
                              100.0 * top[k]->duration_s / denom);
                os << (k ? "," : "") << share;
            }
            os << " |\n";
        }
    }
    os << "\n";
}

void
appendImported(std::ostringstream &os, Suite &suite,
               exec::Engine &engine, const ReportOptions &opts)
{
    os << "## Imported workloads (" << suite.system().name
       << ", minutes)\n\n";
    if (!opts.imported.empty()) {
        os << "| Workload | 1 GPU | 2 GPUs | 4 GPUs | 8 GPUs |\n"
           << "|---|---|---|---|---|\n";
        const std::vector<int> counts = {1, 2, 4, 8};
        std::vector<exec::RunRequest> batch;
        for (const wl::WorkloadSpec &spec : opts.imported) {
            for (int n : counts) {
                train::RunOptions ropts;
                ropts.num_gpus = n;
                batch.push_back(suite.request(spec.abbrev, ropts));
            }
        }
        auto results = engine.run(std::move(batch));
        std::size_t i = 0;
        for (const wl::WorkloadSpec &spec : opts.imported) {
            os << "| " << spec.abbrev << " |";
            for (std::size_t c = 0; c < counts.size(); ++c) {
                const exec::RunResult &r = results[i++];
                os << " "
                   << cell(r.train.totalMinutes(), "%.1f",
                           r.error ? r.error->reason : std::string())
                   << " |";
            }
            os << "\n";
        }
        os << "\n";
    }
    if (!opts.rejected_files.empty()) {
        os << "Rejected workload files (quarantined, not run):\n\n";
        for (const std::string &f : opts.rejected_files)
            os << "- ERROR(rejected): " << f << "\n";
        os << "\n";
    }
}

/**
 * Append the "Degraded runs" appendix for failures captured while
 * rendering this document: the slice of the engine's degraded log
 * past `mark`, deduplicated by fingerprint (a point feeding several
 * tables fails once per batch but is listed once).
 */
void
appendDegradedRuns(std::ostringstream &os, const exec::Engine &engine,
                   std::size_t mark)
{
    const auto &deg = engine.degradedRuns();
    if (deg.size() <= mark)
        return;
    std::set<std::string> seen;
    std::ostringstream rows;
    for (std::size_t i = mark; i < deg.size(); ++i) {
        const exec::RunError &e = deg[i];
        std::string fp = exec::toHex(e.key);
        if (!seen.insert(fp).second)
            continue;
        std::string what = e.what;
        for (char &c : what)
            if (c == '|' || c == '\n')
                c = c == '|' ? '/' : ' ';
        char head[160];
        std::snprintf(head, sizeof(head),
                      "| %s | %s | %d | %s | %d | %.2f | %s | ",
                      e.workload.c_str(), e.system.c_str(), e.num_gpus,
                      e.reason.c_str(), e.attempts, e.backoff_s,
                      fp.c_str());
        rows << head << what << " |\n";
    }
    os << "## Degraded runs\n\n"
       << "These points failed after retries and render as "
          "ERROR(<reason>) cells above. Failed points are never "
          "cached or journaled, so a rerun retries them.\n\n"
       << "| Workload | System | GPUs | Reason | Attempts | "
          "Backoff (s) | Fingerprint | Error |\n"
       << "|---|---|---|---|---|---|---|---|\n"
       << rows.str() << "\n";
}

/** The private engine of the engine-less entry points. */
exec::Engine
makeReportEngine(const ReportOptions &opts)
{
    exec::ExecOptions eopts(opts.jobs);
    eopts.cache_dir = opts.cache_dir;
    eopts.on_error = exec::ErrorPolicy::Capture;
    return exec::Engine(std::move(eopts));
}

} // namespace

std::string
generateStudyReport(const ReportOptions &opts)
{
    exec::Engine engine = makeReportEngine(opts);
    return generateStudyReport(opts, engine);
}

std::string
generateStudyReport(const ReportOptions &opts, exec::Engine &engine)
{
    std::ostringstream os;
    sys::SystemConfig dss = sys::dss8440();
    Suite suite(dss);
    for (const wl::WorkloadSpec &spec : opts.imported)
        suite.addWorkload(spec);

    // Only failures captured during *this* document belong in its
    // appendix; the engine may have prior batches behind it.
    const std::size_t degraded_mark = engine.degradedRuns().size();
    std::optional<sys::SystemConfig> pod; // see pod512()

    os << "# mlpsim study report\n\n"
       << "Reproduction of 'Demystifying the MLPerf Training "
          "Benchmark Suite' (ISPASS 2020); all numbers modeled.\n\n";
    // Each section is a harness "phase" span, so --telemetry-dir runs
    // get per-section wall times in the manifest and self-trace.
    auto section = [](const char *name, auto &&fn) {
        obs::Span span("phase", std::string("report/") + name);
        fn();
    };
    if (opts.include_scaling)
        section("scaling", [&] { appendScaling(os, suite, engine); });
    if (opts.include_mixed_precision)
        section("mixed_precision",
                [&] { appendMixedPrecision(os, suite, engine); });
    if (opts.include_topology)
        section("topology", [&] { appendTopology(os, suite, engine); });
    if (opts.include_scheduling)
        section("scheduling",
                [&] { appendScheduling(os, suite, engine); });
    if (opts.include_characterization)
        section("characterization",
                [&] { appendCharacterization(os, engine); });
    if (opts.include_faults)
        section("fault_tolerance",
                [&] { appendFaultTolerance(os, suite, engine); });
    if (opts.include_degraded_fabric)
        section("degraded_fabric",
                [&] { appendDegradedFabric(os, suite, engine); });
    if (opts.include_pod_scale)
        section("pod_scale",
                [&] { appendPodScale(os, suite, engine, pod); });
    if (opts.include_attribution)
        section("attribution",
                [&] { appendAttribution(os, suite, engine, pod); });
    if (!opts.imported.empty() || !opts.rejected_files.empty())
        section("imported",
                [&] { appendImported(os, suite, engine, opts); });
    appendDegradedRuns(os, engine, degraded_mark);
    return os.str();
}

bool
writeStudyReport(const std::string &path, const ReportOptions &opts)
{
    exec::Engine engine = makeReportEngine(opts);
    return writeStudyReport(path, opts, engine);
}

bool
writeStudyReport(const std::string &path, const ReportOptions &opts,
                 exec::Engine &engine)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << generateStudyReport(opts, engine);
    return static_cast<bool>(out);
}

} // namespace mlps::core
