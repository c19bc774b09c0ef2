/**
 * @file
 * mlpsim command-line interface: the study as a tool.
 *
 * One table drives the whole command line: kFlags names every flag
 * with its value kind, and kCommands gives each subcommand its
 * positional arity, its flags and a summary. parseArgs() reads argv
 * against a row, main() dispatches through it and usage() (printed by
 * `mlpsim` with no arguments) is generated from it.
 */

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/hooks.h"
#include "chaos/schedule.h"
#include "chaos/soak.h"
#include "core/characterize.h"
#include "core/report.h"
#include "core/suite.h"
#include "exec/engine.h"
#include "exec/supervisor.h"
#include "fault/fault_model.h"
#include "fault/link_fault.h"
#include "obs/attrib/attribution.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "prof/trace.h"
#include "sched/gantt.h"
#include "sched/naive.h"
#include "sched/optimal.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/logger.h"
#include "sys/machines.h"
#include "train/checkpoint.h"
#include "train/fabric_faults.h"
#include "wl/import/exporter.h"
#include "wl/import/fuzz.h"
#include "wl/import/importer.h"
#include "wl/import/quarantine.h"

namespace {

using namespace mlps;

/** Exit codes; sibling tools and CI scripts match on these. */
constexpr int kOk = 0;
constexpr int kUsage = 2;    ///< bad invocation (missing args, ...)
constexpr int kConfig = 3;   ///< bad configuration (unknown system, ...)
constexpr int kDegraded = 4; ///< degraded report, or cache busy
constexpr int kCorrupt = 5;  ///< cache verify found corruption
constexpr int kOverloaded = 6; ///< query rejected: server overloaded
constexpr int kDiskFull = 7; ///< journal writes lost: disk full
constexpr int kRejected = 8; ///< workload file rejected by the importer

/** Invocation error: wrong arguments rather than wrong values. */
struct UsageError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/**
 * A --workload-file failed validation. Distinct from FatalError so
 * the importer's structured rejection gets its own exit code (8) —
 * CI tells "your file is bad" from "your flags are bad".
 */
struct RejectError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/** A flag's value: none (a switch), free text, or a number that is
 *  checked strictly when the command line is read. */
enum class Kind { Switch, Text, Int, Number };
using enum Kind;

struct Flag {
    const char *name;
    Kind kind;
    const char *meta = ""; ///< the value's placeholder in usage
    bool repeatable = false;
};

/** Every flag of every command. A name has one kind everywhere, so
 *  --seed is the same integer for run, faults, soak and workload. */
const Flag kFlags[] = {
    {"system", Text, "NAME"}, {"gpus", Int, "N"},
    {"precision", Text, "fp32|fp16|mixed"}, {"reference", Switch},
    {"degraded-links", Text, "SPEC"}, {"jobs", Int, "N"},
    {"cache-dir", Text, "DIR"}, {"cache-max-entries", Int, "N"},
    {"cache-max-bytes", Number, "B"}, {"compact-ratio", Number, "R"},
    {"workload-file", Text, "FILE", true}, {"telemetry-dir", Text, "DIR"},
    {"mttf-hours", Number, "H"}, {"link-mttf-hours", Number, "H"},
    {"checkpoint", Number, "MIN"}, {"hours", Number, "H"},
    {"seed", Int, "S"}, {"iterations", Int, "K"}, {"json", Switch},
    {"out", Text, "FILE"}, {"trace", Text, "FILE"},
    {"listen", Text, "HOST:PORT"}, {"port-file", Text, "FILE"},
    {"rate", Number, "R"}, {"burst", Number, "B"}, {"weight", Int, "W"},
    {"max-queued", Int, "N"}, {"max-batch", Int, "N"},
    {"deadline-s", Number, "D"}, {"drain-timeout-s", Number, "D"},
    {"chaos", Text, "fs,net,clock"}, {"chaos-seed", Int, "S"},
    {"connect", Text, "HOST:PORT"}, {"wait-s", Number, "S"},
    {"local", Switch}, {"stats", Switch}, {"ping", Switch},
    {"ops", Int, "N"}, {"cycles", Int, "K"}, {"clients", Int, "C"}};

/** Flag groups shared by several commands. "global" is implied on
 *  every command. */
const std::pair<const char *, const char *> kGroups[] = {
    {"machine", "system gpus precision reference degraded-links"},
    {"engine",
     "jobs cache-dir cache-max-entries cache-max-bytes compact-ratio"},
    {"imports", "workload-file"},
    {"global", "telemetry-dir"},
};

/** Numbers parse strictly: the whole value, in range, or a usage
 *  error naming the flag ("--gpus 4x" must not run on 4 GPUs). */
void
checkNumber(const Flag &flag, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    double v = flag.kind == Int ? std::strtol(value.c_str(), &end, 10)
                                : std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || errno == ERANGE ||
        (flag.kind == Int && (v < INT_MIN || v > INT_MAX)))
        throw UsageError(std::string("--") + flag.name + " " + value +
                         ": expected " +
                         (flag.kind == Int ? "an integer" : "a number"));
}

/** A command line read against its command's row in kCommands. */
struct Args {
    std::string command;
    std::vector<std::string> positional;
    /** Every value of every flag given, in command-line order; a
     *  switch records an empty value. */
    std::map<std::string, std::vector<std::string>> values;

    bool has(const std::string &key) const { return values.count(key); }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        return has(key) ? values.at(key).front() : fallback;
    }

    /** All values of a repeatable flag, command-line order. */
    std::vector<std::string>
    getAll(const std::string &key) const
    {
        return has(key) ? values.at(key) : std::vector<std::string>{};
    }

    /** Numbers were checked when the command line was read. */
    int
    getInt(const std::string &key, int fallback) const
    {
        return has(key) ? std::atoi(get(key, "").c_str()) : fallback;
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        return has(key) ? std::atof(get(key, "").c_str()) : fallback;
    }

    /** A stray positional is a usage error, never an ignored word. */
    void
    takesAtMost(std::size_t n) const
    {
        if (positional.size() > n)
            throw UsageError(command + ": unexpected argument '" +
                             positional[n] + "'");
    }
};

/** Write `text` to `path`; false on any error. */
bool
writeText(const std::string &path, const std::string &text)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

/** Validate a user-supplied GPU count against the machine. */
int
gpusFrom(const Args &args, const sys::SystemConfig &machine,
         int fallback)
{
    int gpus = args.getInt("gpus", fallback);
    if (gpus <= 0)
        sim::fatal("--gpus %d: GPU count must be a positive power of "
                   "two (got a non-positive value)", gpus);
    if ((gpus & (gpus - 1)) != 0)
        sim::fatal("--gpus %d: GPU count must be a power of two",
                   gpus);
    if (gpus > machine.num_gpus)
        sim::fatal("--gpus %d: '%s' only has %d GPUs", gpus,
                   machine.name.c_str(), machine.num_gpus);
    return gpus;
}

/**
 * Validate a user-supplied worker count. 0 means "not given": the
 * engine then falls back to MLPSIM_JOBS, else hardware concurrency.
 */
int
jobsFrom(const Args &args)
{
    int jobs = args.getInt("jobs", 0);
    if (args.has("jobs") && jobs <= 0)
        sim::fatal("--jobs %s: worker count must be a positive integer",
                   args.get("jobs", "").c_str());
    return jobs;
}

/**
 * The engine of a sweep command or the server: worker count from
 * --jobs, durable journal from --cache-dir (omitted = in-memory only)
 * and the bounded-cache flags.
 */
exec::ExecOptions
engineOptions(const Args &args,
              exec::ErrorPolicy policy = exec::ErrorPolicy::Throw)
{
    exec::ExecOptions eopts(jobsFrom(args));
    eopts.cache_dir = args.get("cache-dir", "");
    eopts.on_error = policy;
    int entries = args.getInt("cache-max-entries", 0);
    if (entries < 0)
        sim::fatal("--cache-max-entries %d: must be >= 0 (0 = "
                   "unbounded)", entries);
    double bytes = args.getDouble("cache-max-bytes", 0.0);
    if (bytes < 0.0)
        sim::fatal("--cache-max-bytes %g: must be >= 0 (0 = "
                   "unbounded)", bytes);
    double ratio = args.getDouble("compact-ratio", 0.5);
    if (ratio < 0.0 || ratio > 1.0)
        sim::fatal("--compact-ratio %g: must be in [0, 1] (0 "
                   "disables compaction)", ratio);
    eopts.cache_max_entries = static_cast<std::size_t>(entries);
    eopts.cache_max_bytes = static_cast<std::uint64_t>(bytes);
    eopts.journal_compact_ratio = ratio;
    return eopts;
}

/**
 * Disk-full is worse than degraded: results already printed are fine,
 * but the journal silently stopped persisting, so the next run will
 * re-simulate. Escalate the exit code and say so.
 */
int
diskFullExit(const exec::Engine &engine, int rc)
{
    const exec::Journal *j = engine.journal();
    if (!j || !j->diskFull())
        return rc;
    std::fprintf(stderr,
                 "mlpsim: error: journal disk full: %llu write "
                 "error(s); results were NOT persisted to the cache "
                 "directory\n",
                 static_cast<unsigned long long>(j->writeErrors()));
    return kDiskFull;
}

/** Copy an engine's provenance into the live telemetry session. */
void
noteEngine(const exec::Engine &engine)
{
    if (auto *t = obs::TelemetrySession::current())
        exec::fillManifest(engine, &t->manifest());
}

/** Record the machine's config fingerprint in the manifest. */
void
noteSystem(const sys::SystemConfig &machine)
{
    if (auto *t = obs::TelemetrySession::current())
        t->manifest().config_digests.push_back(
            "system:" + machine.name + "=" +
            exec::toHex(exec::fingerprintOf(machine)));
}

/**
 * Import every --workload-file strictly: the first rejected file has
 * its full diagnostic bundle printed to stderr and aborts the command
 * with RejectError (exit code 8). Used by the commands that cannot
 * proceed without the workload (run, scaling, schedule, characterize,
 * query, workload export); report degrades instead — see cmdReport.
 */
std::vector<wl::WorkloadSpec>
importedWorkloads(const Args &args)
{
    std::vector<wl::WorkloadSpec> specs;
    for (const std::string &path : args.getAll("workload-file")) {
        wl::import::ImportResult res =
            wl::import::importWorkloadFile(path);
        if (!res.ok) {
            std::fprintf(
                stderr, "%s",
                wl::import::renderDiagnostics(path, res).c_str());
            throw RejectError("workload file '" + path +
                              "' rejected: " +
                              wl::import::summaryLine(res));
        }
        specs.push_back(std::move(res.spec));
    }
    return specs;
}

/**
 * The workload of `run` and `explain`: the positional, which picks
 * among built-ins and imports alike, or else the only imported file.
 */
std::string
oneWorkload(const Args &args,
            const std::vector<wl::WorkloadSpec> &imported)
{
    if (!args.positional.empty())
        return args.positional[0];
    if (imported.size() == 1)
        return imported[0].abbrev;
    throw UsageError(args.command + ": need a workload name (or "
                     "exactly one --workload-file)");
}

/** Workload names of a sweep: positionals then imported abbrevs. */
std::vector<std::string>
workloadNames(const Args &args,
              const std::vector<wl::WorkloadSpec> &imported)
{
    std::vector<std::string> names = args.positional;
    for (const wl::WorkloadSpec &s : imported)
        names.push_back(s.abbrev);
    if (names.empty())
        throw UsageError(args.command +
                         ": need workload names or --workload-file");
    return names;
}

int
cmdList(const Args &)
{
    core::Registry reg;
    std::printf("Workloads:\n");
    for (const auto &b : reg.all())
        std::printf("  %s\n", b.statsRow().c_str());
    std::printf("\nSystems:\n");
    for (const auto &s : sys::allMachines())
        std::printf("  %-11s %d x %s, %d x %s\n", s.name.c_str(),
                    s.num_cpus, s.cpu.name.c_str(), s.num_gpus,
                    s.gpu.name.c_str());
    std::printf("  %-11s 1 x %s (v0.5 reference)\n", "reference",
                sys::mlperfReference().gpu.name.c_str());
    std::printf("\nAny --system flag also accepts the pod grammar\n"
                "  pod(<box>,<racks>x<nodes>[,spines=S])\n"
                "e.g. \"pod(C4140 (M),4x4)\" — racks of <box> hosts "
                "behind NICs,\nper-rack ToR switches and a spine "
                "layer.\n");
    return 0;
}

/**
 * The --system machine with any --degraded-links applied. --system
 * takes an exact machine name, "reference", or the pod grammar
 * `pod(<box>,<racks>x<nodes>[,spines=S])`. One resolver
 * (sys::systemFromSpec) serves both the CLI and the serve catalog,
 * so their vocabularies and did-you-mean hints never drift.
 */
sys::SystemConfig
machineFrom(const Args &args, const char *fallback = "DSS 8440")
{
    sys::SystemConfig machine;
    std::string error;
    if (!sys::systemFromSpec(args.get("system", fallback), &machine,
                             &error))
        sim::fatal("%s; 'mlpsim list' shows all systems",
                   error.c_str());
    if (args.has("degraded-links"))
        sys::applyDegradedLinks(machine, args.get("degraded-links", ""));
    return machine;
}

/** An MTTF flag's hours, which must be positive. */
double
mttfHours(const Args &args, const std::string &key, double fallback)
{
    double hours = args.getDouble(key, fallback);
    if (hours <= 0.0)
        sim::fatal("--%s %g: MTTF must be positive hours", key.c_str(),
                   hours);
    return hours;
}

train::RunOptions
optionsFrom(const Args &args, const sys::SystemConfig &machine)
{
    train::RunOptions opts;
    opts.num_gpus = gpusFrom(args, machine, 1);
    std::string prec = args.get("precision", "mixed");
    if (!serve::precisionFromToken(prec, &opts.precision))
        sim::fatal("unknown precision '%s'", prec.c_str());
    opts.reference_code = args.has("reference");
    return opts;
}

int
cmdRun(const Args &args)
{
    std::vector<wl::WorkloadSpec> imported = importedWorkloads(args);
    std::string name = oneWorkload(args, imported);
    sys::SystemConfig machine = machineFrom(args);
    noteSystem(machine);
    core::Suite suite(machine);
    for (const wl::WorkloadSpec &s : imported)
        suite.addWorkload(s);
    train::RunOptions opts = optionsFrom(args, machine);
    auto r = suite.run(name, opts);
    std::printf("%s on %s, %d GPU(s), %s%s\n", r.workload.c_str(),
                r.system.c_str(), r.num_gpus,
                hw::toString(r.precision).c_str(),
                r.reference_code ? " (reference code)" : "");
    std::printf("  iteration    %8.2f ms  (fwd %.1f, bwd %.1f, opt "
                "%.2f, comm %.1f/%.1f, host %.1f, h2d %.1f)\n",
                r.iter.iteration_s * 1e3, r.iter.fwd_s * 1e3,
                r.iter.bwd_s * 1e3, r.iter.optimizer_s * 1e3,
                r.iter.comm_s * 1e3, r.iter.exposed_comm_s * 1e3,
                r.iter.host_s * 1e3, r.iter.h2d_s * 1e3);
    std::printf("  batch        %g/GPU, %g global; %.1f epochs x %g "
                "steps\n", r.per_gpu_batch, r.global_batch, r.epochs,
                r.steps_per_epoch);
    std::printf("  fabric       %s\n", net::toString(r.fabric).c_str());
    std::printf("  utilization  GPU %.1f%% (sum), CPU %.1f%%\n",
                r.usage.gpu_util_pct_sum, r.usage.cpu_util_pct);
    std::printf("  footprints   HBM %.0f MB, DRAM %.0f MB\n",
                r.usage.hbm_footprint_mb, r.usage.dram_footprint_mb);
    std::printf("  buses        PCIe %.0f Mbps, NVLink %.0f Mbps\n",
                r.usage.pcie_mbps, r.usage.nvlink_mbps);
    std::printf("  total        %.1f min to quality target\n",
                r.totalMinutes());
    const wl::WorkloadSpec &spec = suite.registry().find(name)->spec();
    int seed = args.getInt("seed", 42);
    if (args.has("mttf-hours")) {
        double mttf = mttfHours(args, "mttf-hours", 0.0);
        auto ckpt = train::checkpointModelFor(machine, spec);
        fault::FaultModel model(
            fault::FaultModelConfig::datacenterProfile(mttf),
            static_cast<std::uint64_t>(seed));
        double interval_s = args.getDouble("checkpoint", 0.0) * 60.0;
        if (interval_s < 0.0)
            sim::fatal("--checkpoint %g: interval must be >= 0 "
                       "minutes (0 = Young-Daly optimal)",
                       interval_s / 60.0);
        auto ft = train::applyFaultTrace(r, ckpt, model, interval_s);
        std::printf("  --- with faults (MTTF %.1f h, seed %d) ---\n",
                    mttf, seed);
        std::printf("  checkpoint   %.1f s every %.1f min (%.0f MB "
                    "snapshot)\n", ft.checkpoint_s,
                    std::isinf(ft.checkpoint_interval_s)
                        ? 0.0
                        : ft.checkpoint_interval_s / 60.0,
                    ckpt.bytes / 1e6);
        std::printf("  expected     %.1f min (%d failures, %d "
                    "degradations)\n", ft.expected_seconds / 60.0,
                    ft.failures, ft.degradations);
        std::printf("  overheads    ckpt %.1f, degraded %.1f, lost "
                    "%.1f, restart %.1f min\n",
                    ft.checkpoint_overhead_s / 60.0,
                    ft.degraded_overhead_s / 60.0,
                    ft.lost_work_s / 60.0,
                    ft.restart_overhead_s / 60.0);
        std::printf("  goodput      %.3f, availability %.3f\n",
                    ft.goodput(), ft.availability());
    }
    if (args.has("link-mttf-hours")) {
        double mttf = mttfHours(args, "link-mttf-hours", 0.0);
        fault::LinkFaultModel model(
            fault::LinkFaultConfig::datacenterProfile(mttf),
            static_cast<std::uint64_t>(seed));
        auto lf = train::applyLinkFaultTrace(machine, spec, opts, model);
        std::printf("  --- with link faults (MTTF %.1f h, seed %d) "
                    "---\n", mttf, seed);
        std::printf("  expected     %.1f min (%d fabric windows, %d "
                    "topology epochs)\n", lf.expected_seconds / 60.0,
                    lf.degradations, lf.topology_epochs);
        std::printf("  degraded     %.1f min extra, %d stall "
                    "window(s), up to %d rerouted hop(s)\n",
                    lf.degraded_overhead_s / 60.0, lf.stalls,
                    lf.max_reroutes);
        std::printf("  goodput      %.3f\n", lf.goodput());
    }
    return 0;
}

int
cmdFaults(const Args &args)
{
    sys::SystemConfig machine = machineFrom(args);
    int gpus = gpusFrom(args, machine, machine.num_gpus);
    double mttf = mttfHours(args, "mttf-hours", 24.0);
    double hours = args.getDouble("hours", 24.0);
    if (hours <= 0.0)
        sim::fatal("--hours %g: horizon must be positive", hours);
    int seed = args.getInt("seed", 42);

    fault::FaultModel model(
        fault::FaultModelConfig::datacenterProfile(mttf),
        static_cast<std::uint64_t>(seed));
    auto trace = model.generate(hours * 3600.0, gpus);
    std::printf("%s", fault::describeTrace(trace).c_str());
    std::printf("\n%zu faults over %.1f h on %d GPUs (aggregate rate "
                "%.2f/h, seed %d)\n", trace.size(), hours, gpus,
                model.config().totalRatePerHour(), seed);

    std::vector<fault::LinkFaultEvent> link_trace;
    if (args.has("link-mttf-hours")) {
        double link_mttf = mttfHours(args, "link-mttf-hours", 0.0);
        fault::LinkFaultModel link_model(
            fault::LinkFaultConfig::datacenterProfile(link_mttf),
            static_cast<std::uint64_t>(seed));
        link_trace = link_model.generate(hours * 3600.0, machine.topo);
        std::printf("\n%s",
                    fault::describeLinkTrace(link_trace, machine.topo)
                        .c_str());
        std::printf("\n%zu link faults over %.1f h on '%s' (MTTF "
                    "%.1f h, seed %d)\n", link_trace.size(), hours,
                    machine.name.c_str(), link_mttf, seed);
    }

    if (args.has("trace")) {
        prof::TraceBuilder tb;
        tb.addFaultTrace(trace);
        tb.addLinkFaultTrace(link_trace, machine.topo);
        std::string path = args.get("trace", "");
        if (!tb.writeFile(path))
            sim::fatal("faults: cannot write '%s'", path.c_str());
        std::printf("wrote %zu fault spans to %s\n",
                    tb.events().size(), path.c_str());
    }
    return 0;
}

int
cmdScaling(const Args &args)
{
    std::vector<wl::WorkloadSpec> imported = importedWorkloads(args);
    std::vector<std::string> names = workloadNames(args, imported);
    sys::SystemConfig machine = machineFrom(args);
    core::Suite suite(machine);
    for (const wl::WorkloadSpec &s : imported)
        suite.addWorkload(s);
    std::vector<int> counts;
    for (int n = 1; n <= machine.num_gpus; n *= 2)
        counts.push_back(n);
    exec::Engine engine(engineOptions(args));
    auto rows = suite.scalingStudy(names, counts, &engine);
    noteSystem(machine);
    noteEngine(engine);
    std::printf("%-15s %12s %12s %8s", "workload", "P100 ref(min)",
                "1 GPU(min)", "P-to-V");
    for (std::size_t i = 1; i < counts.size(); ++i)
        std::printf("   1-to-%d", counts[i]);
    std::printf("\n");
    for (const auto &r : rows) {
        std::printf("%-15s %12.1f %12.1f %7.2fx", r.workload.c_str(),
                    r.p100_minutes, r.v100_minutes, r.p_to_v);
        for (std::size_t i = 1; i < counts.size(); ++i)
            std::printf("  %6.2fx", r.scaling.at(counts[i]));
        std::printf("\n");
    }
    return diskFullExit(engine, kOk);
}

int
cmdSchedule(const Args &args)
{
    std::vector<wl::WorkloadSpec> imported = importedWorkloads(args);
    std::vector<std::string> names = workloadNames(args, imported);
    sys::SystemConfig machine = machineFrom(args);
    int gpus = gpusFrom(args, machine, machine.num_gpus);
    core::Suite suite(machine);
    for (const wl::WorkloadSpec &s : imported)
        suite.addWorkload(s);
    exec::Engine engine(engineOptions(args));
    auto jobs = suite.jobSpecs(names, gpus, &engine);
    noteSystem(machine);
    noteEngine(engine);
    auto naive = sched::naiveSchedule(jobs, gpus);
    auto opt = sched::optimalSchedule(jobs, gpus);
    std::printf("naive %.2f h, optimal %.2f h (saves %.1f h)\n\n%s",
                naive.makespan() / 3600.0, opt.makespan_s / 3600.0,
                (naive.makespan() - opt.makespan_s) / 3600.0,
                sched::renderGantt(opt.schedule).c_str());
    return diskFullExit(engine, kOk);
}

int
cmdCharacterize(const Args &args)
{
    std::vector<wl::WorkloadSpec> imported = importedWorkloads(args);
    sys::SystemConfig machine = machineFrom(args, "C4140 (K)");
    exec::Engine engine(engineOptions(args));
    auto rep = core::characterize(machine, gpusFrom(args, machine, 1),
                                  &engine, imported);
    noteSystem(machine);
    noteEngine(engine);
    std::printf("%-15s %-10s %9s %9s %10s %10s\n", "workload", "suite",
                "PC1", "PC2", "TFLOP/s", "FLOP/B");
    for (std::size_t i = 0; i < rep.workloads.size(); ++i) {
        int r = static_cast<int>(i);
        std::printf("%-15s %-10s %9.3f %9.3f %10.2f %10.1f\n",
                    rep.workloads[i].c_str(),
                    wl::toString(rep.suites[i]).c_str(),
                    rep.pca.scores.at(r, 0), rep.pca.scores.at(r, 1),
                    rep.roofline_points[i].flops / 1e12,
                    rep.roofline_points[i].intensity);
    }
    std::printf("\nPC1-PC4 cumulative variance: %.1f%%\n",
                100.0 * rep.pca.cumulativeVariance(4));
    std::fprintf(stderr, "%s\n", engine.summary().c_str());
    return diskFullExit(engine, kOk);
}

int
cmdTrace(const Args &args)
{
    if (args.positional.empty())
        throw UsageError("trace: need a workload name");
    sys::SystemConfig machine = machineFrom(args, "C4140 (K)");
    auto r = core::Suite(machine).run(args.positional[0],
                                      optionsFrom(args, machine));
    prof::TraceBuilder trace;
    trace.addIterations(r, args.getInt("iterations", 4));
    std::string path = args.get("out", "mlpsim_trace.json");
    if (!trace.writeFile(path))
        sim::fatal("trace: cannot write '%s'", path.c_str());
    std::printf("wrote %zu events to %s (open in chrome://tracing or "
                "ui.perfetto.dev)\n", trace.events().size(),
                path.c_str());
    return 0;
}

/**
 * `mlpsim explain`: run one point through the engine, attribute its
 * iteration into the causal span graph, and print where the time
 * goes. Everything written to stdout is a pure function of the run
 * request, so the output is byte-identical across --jobs, journal
 * warmth and reruns (the engine summary, which is volatile, goes to
 * stderr).
 */
int
cmdExplain(const Args &args)
{
    std::vector<wl::WorkloadSpec> imported = importedWorkloads(args);
    std::string name = oneWorkload(args, imported);
    sys::SystemConfig machine = machineFrom(args);
    noteSystem(machine);
    core::Suite suite(machine);
    for (const wl::WorkloadSpec &s : imported)
        suite.addWorkload(s);
    exec::Engine engine(engineOptions(args));
    exec::RunRequest req =
        suite.request(name, optionsFrom(args, machine));
    exec::RunResult res = engine.runOne(req);
    noteEngine(engine);
    obs::attrib::Attribution a =
        obs::attrib::attributeRun(req, res.train);

    if (args.has("trace")) {
        int iters = args.getInt("iterations", 4);
        prof::TraceBuilder tb;
        tb.addIterations(res.train, iters);
        tb.addAttribution(a, iters);
        std::string path = args.get("trace", "");
        if (!tb.writeFile(path))
            sim::fatal("explain: cannot write '%s'", path.c_str());
        std::fprintf(stderr,
                     "wrote %zu events to %s (open in "
                     "chrome://tracing or ui.perfetto.dev)\n",
                     tb.events().size(), path.c_str());
    }

    std::string json = obs::attrib::toJson(a);
    if (args.has("out")) {
        std::string out = args.get("out", "");
        if (!writeText(out, json))
            sim::fatal("explain: cannot write '%s'", out.c_str());
        std::fprintf(stderr, "wrote %s (%zu bytes)\n", out.c_str(),
                     json.size());
    }
    if (args.has("json")) {
        std::printf("%s\n", json.c_str());
        std::fprintf(stderr, "%s\n", engine.summary().c_str());
        return diskFullExit(engine, kOk);
    }

    double it = a.iteration_s;
    double denom = it > 0.0 ? it : 1.0;
    std::printf("%s on %s, %d GPU(s), %s%s — %s via %s\n",
                a.workload.c_str(), a.system.c_str(), a.num_gpus,
                hw::toString(a.precision).c_str(),
                a.reference_code ? " (reference code)" : "",
                a.mode == wl::RunMode::Training ? "training"
                : a.mode == wl::RunMode::KernelLoop
                    ? "kernel loop"
                    : "collective loop",
                net::toString(a.fabric).c_str());
    std::printf("  iteration    %10.3f ms  (gated by %s)\n", it * 1e3,
                a.gated_by.c_str());
    std::printf("  where the time goes:\n");
    std::printf("    %-18s %5.1f%%  %10.3f ms\n", "exposed compute",
                100.0 * a.exposed_compute_s / denom,
                a.exposed_compute_s * 1e3);
    std::printf("    %-18s %5.1f%%  %10.3f ms\n", "exposed comm",
                100.0 * a.exposedCommTotal() / denom,
                a.exposedCommTotal() * 1e3);
    for (int t = 0; t < net::kNumFabricTiers; ++t)
        if (a.exposed_comm_s[t] > 0.0)
            std::printf("      %-16s %5.1f%%  %10.3f ms\n",
                        net::toString(static_cast<net::FabricTier>(t))
                            .c_str(),
                        100.0 * a.exposed_comm_s[t] / denom,
                        a.exposed_comm_s[t] * 1e3);
    std::printf("    %-18s %5.1f%%  %10.3f ms\n", "bubble",
                100.0 * a.bubble_s / denom, a.bubble_s * 1e3);
    std::printf("    %-18s %5.1f%%  %10.3f ms\n", "overhead",
                100.0 * a.overhead_s / denom, a.overhead_s * 1e3);
    auto top = obs::attrib::topContributors(a, 3);
    std::printf("  critical path (%zu span(s); top %zu):\n",
                a.critical_path.size(), top.size());
    for (std::size_t i = 0; i < top.size(); ++i)
        std::printf("    %zu. %-28s %-16s %10.3f ms  %5.1f%%\n",
                    i + 1, top[i]->name.c_str(),
                    obs::attrib::toString(top[i]->bucket),
                    top[i]->duration_s * 1e3,
                    100.0 * top[i]->duration_s / denom);
    std::fprintf(stderr, "%s\n", engine.summary().c_str());
    return diskFullExit(engine, kOk);
}

int
cmdReport(const Args &args)
{
    std::string path = args.get("out", "mlpsim_report.md");
    core::ReportOptions ropts;
    ropts.jobs = jobsFrom(args);

    // Unlike the strict commands, report survives a bad workload
    // file: the rejection is quarantined next to the journal, listed
    // in the report's imported section, and degrades the exit code —
    // a sweep over many files documents its casualties instead of
    // dying on the first.
    std::string cache_dir = args.get("cache-dir", "");
    std::string quarantine_dir = cache_dir.empty()
                                     ? std::string("mlpsim-quarantine")
                                     : cache_dir + "/quarantine";
    for (const std::string &file : args.getAll("workload-file")) {
        wl::import::ImportResult res =
            wl::import::importWorkloadFile(file);
        if (res.ok) {
            ropts.imported.push_back(std::move(res.spec));
            continue;
        }
        std::fprintf(stderr, "%s",
                     wl::import::renderDiagnostics(file, res).c_str());
        std::string kept =
            wl::import::quarantineFile(quarantine_dir, file, res);
        if (!kept.empty())
            std::fprintf(stderr, "mlpsim: quarantined '%s' -> %s\n",
                         file.c_str(), kept.c_str());
        ropts.rejected_files.push_back(
            file + ": " + wl::import::summaryLine(res));
    }

    std::printf("running the full study (takes a moment)...\n");
    // Capture, not Throw: a failed point degrades its table cell and
    // lands in the report's appendix instead of aborting the study.
    exec::Engine engine(
        engineOptions(args, exec::ErrorPolicy::Capture));
    if (!core::writeStudyReport(path, ropts, engine))
        sim::fatal("report: cannot write '%s'", path.c_str());
    noteEngine(engine);
    std::printf("wrote %s\n", path.c_str());
    std::fprintf(stderr, "%s\n", engine.summary().c_str());
    const auto &degraded = engine.degradedRuns();
    if (!degraded.empty()) {
        std::fprintf(stderr,
                     "mlpsim: error: report degraded, %zu run(s) "
                     "failed:\n",
                     degraded.size());
        for (const auto &e : degraded)
            std::fprintf(stderr, "  %s on %s (%d GPUs): %s: %s\n",
                         e.workload.c_str(), e.system.c_str(),
                         e.num_gpus, e.reason.c_str(), e.what.c_str());
        return diskFullExit(engine, kDegraded);
    }
    if (!ropts.rejected_files.empty()) {
        std::fprintf(stderr,
                     "mlpsim: error: report degraded, %zu workload "
                     "file(s) rejected (quarantined in %s)\n",
                     ropts.rejected_files.size(),
                     quarantine_dir.c_str());
        return diskFullExit(engine, kDegraded);
    }
    return diskFullExit(engine, kOk);
}

int
cmdCache(const Args &args)
{
    args.takesAtMost(1);
    const std::string &sub = args.positional[0];
    std::string dir = args.get("cache-dir", "");
    if (dir.empty())
        throw UsageError("cache " + sub +
                         ": --cache-dir DIR is required");

    // A live process (usually `mlpsim serve`) owns this cache; both
    // mutating it and replaying it under the owner's feet would race
    // the journal, so refuse with the holder's pid.
    if (long pid = exec::Journal::lockHolder(dir)) {
        std::fprintf(stderr,
                     "mlpsim: error: cache at %s is held by a live "
                     "mlpsim process (pid %ld); stop the server or "
                     "pass --cache-dir elsewhere\n",
                     dir.c_str(), pid);
        return kDegraded;
    }

    if (sub == "stats" || sub == "verify") {
        exec::JournalVerifyReport v = exec::Journal::verify(dir);
        std::string path = exec::Journal::journalPath(dir);
        std::printf(v.exists ? "journal %s\n" : "no journal at %s\n",
                    path.c_str());
        if (!v.exists)
            return kOk;
        std::printf("  %zu record(s), %llu of %llu bytes valid\n",
                    v.valid_records,
                    static_cast<unsigned long long>(v.valid_bytes),
                    static_cast<unsigned long long>(v.total_bytes));
        if (!v.corrupt()) {
            std::printf("  integrity ok\n");
            if (sub == "stats") {
                // Replay the journal through a real engine so the
                // numbers come from the live metric registry — the
                // same source `--telemetry-dir` snapshots.
                exec::ExecOptions eopts(1);
                eopts.cache_dir = dir;
                exec::Engine engine{std::move(eopts)};
                obs::MetricRegistry &reg =
                    obs::MetricRegistry::global();
                std::printf("  registry:\n");
                for (const char *name :
                     {"exec.run_cache.hits", "exec.run_cache.misses",
                      "exec.run_cache.preloaded",
                      "exec.run_cache.size"})
                    std::printf("    %-26s %.0f\n", name,
                                reg.value(name));
                noteEngine(engine);
            }
            return kOk;
        }
        std::printf("  CORRUPT: %s\n", v.error.c_str());
        if (sub == "verify") {
            std::fprintf(stderr,
                         "mlpsim: error: journal corrupt: %s\n",
                         v.error.c_str());
            return kCorrupt;
        }
        return kOk;
    }
    std::uint64_t bytes = exec::Journal::clear(dir);
    std::printf("removed %llu byte(s) from %s\n",
                static_cast<unsigned long long>(bytes), dir.c_str());
    return kOk;
}

/** The --chaos fault dimensions, `fallback` when the flag is absent. */
chaos::ChaosSpec
chaosFrom(const Args &args, const char *fallback)
{
    chaos::ChaosSpec spec;
    std::string text = args.get("chaos", fallback);
    std::string error;
    if (!chaos::ChaosSpec::parse(text, &spec, &error))
        sim::fatal("--chaos %s: %s", text.c_str(), error.c_str());
    return spec;
}

int
cmdServe(const Args &args)
{
    serve::TcpServerConfig cfg;
    std::string listen = args.get("listen", "127.0.0.1:0");
    std::string err;
    // ":0" asks the kernel for an ephemeral port, so parseEndpoint's
    // 1..65535 check is bypassed for the explicit-zero form.
    std::size_t colon = listen.rfind(':');
    if (colon != std::string::npos &&
        listen.substr(colon + 1) == "0") {
        if (colon > 0)
            cfg.host = listen.substr(0, colon);
        cfg.port = 0;
    } else if (!serve::parseEndpoint(listen, &cfg.host, &cfg.port,
                                     &err)) {
        sim::fatal("--listen %s: %s", listen.c_str(), err.c_str());
    }
    cfg.port_file = args.get("port-file", "");

    cfg.core.exec = engineOptions(args);

    cfg.core.admission.rate = args.getDouble("rate", 50.0);
    cfg.core.admission.burst = args.getDouble("burst", 100.0);
    int max_queued = args.getInt("max-queued", 256);
    int weight = args.getInt("weight", 4);
    int max_batch = args.getInt("max-batch", 32);
    if (cfg.core.admission.rate <= 0.0 ||
        cfg.core.admission.burst < 1.0)
        sim::fatal("--rate/--burst: need rate > 0 and burst >= 1");
    if (max_queued < 1 || weight < 1 || max_batch < 1)
        sim::fatal("--max-queued/--weight/--max-batch: need "
                   "positive values");
    cfg.core.admission.max_queued = static_cast<std::size_t>(max_queued);
    cfg.core.admission.weight = static_cast<std::size_t>(weight);
    cfg.core.max_batch = static_cast<std::size_t>(max_batch);
    cfg.core.default_deadline_s = args.getDouble("deadline-s", 0.0);
    cfg.core.drain_timeout_s = args.getDouble("drain-timeout-s", 5.0);
    if (cfg.core.default_deadline_s < 0.0 ||
        cfg.core.drain_timeout_s < 0.0)
        sim::fatal("--deadline-s/--drain-timeout-s: need values "
                   ">= 0");

    // --chaos turns the live server hostile to itself: the listed
    // fault dimensions are injected into its own I/O, sockets and
    // clock — a way to watch recovery behaviour interactively with
    // the exact schedule a seed would give the soak harness.
    chaos::ChaosSpec spec = chaosFrom(args, "");
    std::uint64_t chaos_seed =
        static_cast<std::uint64_t>(args.getInt("chaos-seed", 42));
    std::unique_ptr<chaos::ScheduledFsHooks> fs_hooks;
    std::unique_ptr<chaos::ScheduledNetHooks> net_hooks;
    std::unique_ptr<chaos::ScheduledClockHooks> clock_hooks;
    if (spec.fs)
        fs_hooks =
            std::make_unique<chaos::ScheduledFsHooks>(chaos_seed);
    if (spec.net)
        net_hooks =
            std::make_unique<chaos::ScheduledNetHooks>(chaos_seed);
    if (spec.clock)
        clock_hooks =
            std::make_unique<chaos::ScheduledClockHooks>(chaos_seed);
    chaos::ScopedChaos installed(fs_hooks.get(), net_hooks.get(),
                                 clock_hooks.get());
    if (spec.any())
        std::fprintf(stderr,
                     "serve: chaos injection active (%s, seed %llu)\n",
                     spec.canonical().c_str(),
                     static_cast<unsigned long long>(chaos_seed));

    return serve::runTcpServer(cfg, [](serve::ServeCore &core) {
        noteEngine(core.engine());
    });
}

int
cmdSoak(const Args &args)
{
    chaos::SoakOptions opts;
    opts.seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
    int ops = args.getInt("ops", 300);
    if (ops < 1)
        sim::fatal("--ops %d: need at least one operation", ops);
    opts.ops = static_cast<std::size_t>(ops);
    opts.chaos = chaosFrom(args, "all");
    opts.jobs = jobsFrom(args);
    opts.cache_dir = args.get("cache-dir", "mlpsim-soak-cache");
    int clients = args.getInt("clients", 4);
    int cycles = args.getInt("cycles", 3);
    if (clients < 1 || cycles < 1)
        sim::fatal("--clients/--cycles: need positive values");
    opts.clients = static_cast<std::size_t>(clients);
    opts.cycles = static_cast<std::size_t>(cycles);

    chaos::SoakReport report = chaos::runSoak(opts);
    std::fputs(report.text.c_str(), stdout);
    if (!report.pass)
        std::fprintf(stderr, "mlpsim: error: soak failed (seed %llu); "
                     "the report above lists the broken invariant\n",
                     static_cast<unsigned long long>(opts.seed));
    return report.pass ? kOk : kDegraded;
}

/**
 * Build the JSON run request the query command sends (or, with
 * --local, evaluates in-process through the same validation).
 * `workload` is the request's workload member: a built-in's name, or
 * an imported workload carried inline as a "workload_graph" object —
 * the server never sees the file, only the compact export, and
 * re-validates it through the same importer the CLI used, so a
 * rejection reads identically in both places.
 */
std::string
queryRequestLine(const Args &args, const std::string &id,
                 const std::string &label, const std::string &workload)
{
    std::string line =
        "{\"type\":\"run\",\"id\":\"" + serve::jsonEscape(id) +
        "\"," + workload + ",\"system\":\"" +
        serve::jsonEscape(args.get("system", "DSS 8440")) +
        "\",\"gpus\":" + std::to_string(args.getInt("gpus", 1)) +
        ",\"precision\":\"" +
        serve::jsonEscape(args.get("precision", "mixed")) + "\"";
    if (args.has("reference"))
        line += ",\"reference\":true";
    double deadline = args.getDouble("deadline-s", 0.0);
    if (deadline > 0.0)
        line += ",\"deadline_s\":" + serve::jsonDouble(deadline);
    line += "}";
    if (line.size() > serve::kMaxLineBytes)
        sim::fatal("query: workload '%s' exports to %zu bytes, over "
                   "the %zu-byte protocol line limit",
                   label.c_str(), line.size(), serve::kMaxLineBytes);
    return line;
}

/** Render one answered query the way both modes print it. */
int
printQueryResponse(const serve::Response &r)
{
    if (r.status == "ok") {
        std::printf("%s\n",
                    serve::canonicalResultLine(r.train).c_str());
        return kOk;
    }
    if (r.status == "overloaded") {
        std::printf("%s overloaded: %s (retry after %.3f s)\n",
                    r.id.c_str(), r.what.c_str(), r.retry_after_s);
        return kOverloaded;
    }
    std::printf("%s %s: %s%s%s\n", r.id.c_str(), r.status.c_str(),
                r.reason.c_str(), r.reason.empty() ? "" : ": ",
                r.what.c_str());
    return kDegraded;
}

/**
 * Evaluate query requests without a server: the same request lines
 * run through the same parser and an in-process engine, printing the
 * same canonical output — the byte-for-byte baseline the serve smoke
 * test compares daemon responses against.
 */
int
queryLocal(const Args &args,
           const std::vector<std::string> &request_lines)
{
    serve::Catalog catalog;
    exec::Engine engine(
        engineOptions(args, exec::ErrorPolicy::Capture));
    int worst = kOk;
    std::vector<serve::Response> responses(request_lines.size());
    std::vector<exec::RunRequest> batch;
    std::vector<std::size_t> batch_slot;
    for (std::size_t i = 0; i < request_lines.size(); ++i) {
        serve::ParsedRequest req;
        std::string error;
        if (!serve::parseRequest(request_lines[i], catalog, &req,
                                 &error)) {
            responses[i].id = req.id;
            responses[i].status = "invalid";
            responses[i].what = error;
            continue;
        }
        batch.push_back(std::move(req.run));
        batch_slot.push_back(i);
        responses[i].id = req.id;
    }
    if (!batch.empty()) {
        engine.setRunDeadline(args.getDouble("deadline-s", 0.0));
        auto results = engine.run(std::move(batch));
        for (std::size_t j = 0; j < results.size(); ++j) {
            serve::Response &r = responses[batch_slot[j]];
            std::string line =
                serve::encodeResult(r.id, results[j]);
            std::string derr;
            serve::decodeResponse(line, &r, &derr);
        }
    }
    for (const auto &r : responses)
        worst = std::max(worst, printQueryResponse(r));
    std::fprintf(stderr, "%s\n", engine.summary().c_str());
    return diskFullExit(engine, worst);
}

/**
 * Dial the server named by --connect or a --port-file written by
 * serve. An explicit --connect endpoint dials once; --port-file
 * re-reads the file and retries refused connects until --wait-s
 * expires, so a stale file left by a previous server, or a server
 * still booting, costs a retry instead of failing the client.
 */
bool
dialServer(const Args &args, serve::Connection *conn,
           std::string *error)
{
    std::string host;
    int port = 0;
    if (args.has("connect"))
        return serve::parseEndpoint(args.get("connect", ""), &host,
                                    &port, error) &&
               conn->dial(host, port, error);
    std::string pf = args.get("port-file", "");
    if (pf.empty()) {
        *error = "need --connect HOST:PORT or --port-file FILE "
                 "(or --local)";
        return false;
    }
    double wait_s = args.getDouble("wait-s", 10.0);
    error->clear();
    for (int tries = 0;; ++tries) {
        if (FILE *f = std::fopen(pf.c_str(), "r")) {
            int p = 0;
            int got = std::fscanf(f, "%d", &p);
            std::fclose(f);
            if (got == 1 && p > 0 &&
                conn->dial("127.0.0.1", p, error))
                return true;
        }
        if (tries * 0.05 >= wait_s) {
            if (error->empty())
                *error = "port file '" + pf +
                         "' did not appear within " +
                         std::to_string(wait_s) + " s";
            return false;
        }
        struct timespec ts = {0, 50 * 1000 * 1000};
        nanosleep(&ts, nullptr);
    }
}

int
cmdQuery(const Args &args)
{
    bool want_stats = args.has("stats");
    std::vector<wl::WorkloadSpec> imported = importedWorkloads(args);
    if (args.positional.empty() && imported.empty() && !want_stats &&
        !args.has("ping"))
        throw UsageError("query: need workload names, "
                         "--workload-file FILE, --stats or --ping");

    // Imported workloads travel inline after the named ones; ids
    // number both, so output order matches the command line.
    std::vector<std::string> request_lines;
    auto add = [&](const std::string &label, const std::string &wl) {
        request_lines.push_back(queryRequestLine(
            args, "q" + std::to_string(request_lines.size() + 1),
            label, wl));
    };
    for (const std::string &name : args.positional)
        add(name, "\"workload\":\"" + serve::jsonEscape(name) + "\"");
    for (const wl::WorkloadSpec &spec : imported)
        add(spec.abbrev, "\"workload_graph\":" +
                             wl::import::exportWorkloadLine(spec));

    if (args.has("local")) {
        if (want_stats || args.has("ping"))
            throw UsageError(
                "query: --stats/--ping need a server (drop --local)");
        return queryLocal(args, request_lines);
    }

    std::string error;
    serve::Connection conn;
    if (!dialServer(args, &conn, &error))
        sim::fatal("query: %s", error.c_str());

    if (args.has("ping")) {
        serve::Response pong;
        if (!conn.roundTrip("{\"type\":\"ping\",\"id\":\"p\"}",
                            &pong, &error) ||
            pong.type != "pong")
            sim::fatal("query: ping failed: %s", error.c_str());
        std::printf("pong (proto %d)\n", conn.serverProto());
    }

    // Pipeline every request, then collect answers by id: responses
    // may interleave in completion order, output stays in submission
    // order (so two invocations print byte-identically).
    for (const auto &line : request_lines)
        if (!conn.sendLine(line, &error))
            sim::fatal("query: %s", error.c_str());
    std::map<std::string, serve::Response> by_id;
    while (by_id.size() < request_lines.size()) {
        std::string line;
        serve::Response r;
        if (!conn.recvLine(&line, &error) ||
            !serve::decodeResponse(line, &r, &error))
            sim::fatal("query: %s", error.c_str());
        if (r.type == "result")
            by_id[r.id] = std::move(r);
    }
    int worst = kOk;
    int hits = 0;
    for (std::size_t i = 0; i < request_lines.size(); ++i) {
        const serve::Response &r =
            by_id["q" + std::to_string(i + 1)];
        hits += r.cache_hit ? 1 : 0;
        worst = std::max(worst, printQueryResponse(r));
    }
    if (!request_lines.empty())
        std::fprintf(stderr, "query: %zu request(s), %d server "
                     "cache hit(s)\n", request_lines.size(), hits);

    if (want_stats) {
        serve::Response stats;
        if (!conn.roundTrip("{\"type\":\"stats\",\"id\":\"s\"}",
                            &stats, &error) ||
            stats.type != "stats")
            sim::fatal("query: stats failed: %s", error.c_str());
        std::printf("%s\n", stats.metrics_json.c_str());
    }
    return worst;
}

/**
 * Workload file toolbox:
 *
 *   workload list               describe every built-in
 *   workload validate <file...> import strictly, print diagnostics
 *   workload export <name>      write a built-in as mlpsim-graph-v1
 *   workload fuzz               mutation-fuzz the importer
 *
 * `export` then `validate` round-trips by construction; CI leans on
 * that to pin the canonical form.
 */
int
cmdWorkload(const Args &args)
{
    const std::string &sub = args.positional[0];

    if (sub == "list") {
        args.takesAtMost(1);
        core::Registry reg;
        std::printf("%-10s %-9s %-15s %4s %10s %10s\n", "workload",
                    "suite", "mode", "ops", "params(M)", "GB/step");
        for (const auto &b : reg.all()) {
            wl::GraphTotals t = b.spec().graph.totals();
            double step_gb = t.trainBytes() *
                             b.spec().per_gpu_batch / 1e9;
            std::printf("%-10s %-9s %-15s %4d %10.1f %10.1f\n",
                        b.abbrev().c_str(),
                        wl::toString(b.suite()).c_str(),
                        wl::import::modeToken(b.spec().mode).c_str(),
                        t.op_count, b.paramCount() / 1e6, step_gb);
        }
        std::printf("\n%zu workloads; 'mlpsim workload export "
                    "<name>' writes any of them as %s.\n",
                    reg.size(), wl::import::kFormatName);
        return kOk;
    }

    if (sub == "validate") {
        std::vector<std::string> files(args.positional.begin() + 1,
                                       args.positional.end());
        for (const std::string &f : args.getAll("workload-file"))
            files.push_back(f);
        if (files.empty())
            throw UsageError("workload validate: need file paths");
        int rc = kOk;
        for (const std::string &f : files) {
            wl::import::ImportResult res =
                wl::import::importWorkloadFile(f);
            if (res.ok) {
                std::printf("%s: OK %s (%zu ops, fingerprint %s)\n",
                            f.c_str(), res.spec.abbrev.c_str(),
                            res.spec.graph.size(),
                            exec::toHex(exec::fingerprintOf(res.spec))
                                .c_str());
                continue;
            }
            std::fprintf(
                stderr, "%s",
                wl::import::renderDiagnostics(f, res).c_str());
            std::printf("%s: REJECTED (%s)\n", f.c_str(),
                        wl::import::summaryLine(res).c_str());
            rc = kRejected;
        }
        return rc;
    }

    if (sub == "export") {
        if (args.positional.size() < 2)
            throw UsageError("workload export: need a workload name");
        args.takesAtMost(2);
        const std::string &name = args.positional[1];
        core::Registry reg;
        const core::Benchmark *b = reg.find(name);
        if (!b)
            sim::fatal("workload export: unknown workload '%s'%s",
                       name.c_str(),
                       core::didYouMean(name, reg.names()).c_str());
        std::string text = wl::import::exportWorkload(b->spec());
        std::string out = args.get("out", "");
        if (out.empty()) {
            std::fputs(text.c_str(), stdout);
            return kOk;
        }
        if (!writeText(out, text))
            sim::fatal("workload export: cannot write '%s'",
                       out.c_str());
        std::printf("wrote %s (%zu bytes)\n", out.c_str(),
                    text.size());
        return kOk;
    }

    // fuzz
    args.takesAtMost(1);
    wl::import::FuzzOptions fopts;
    int seed = args.getInt("seed", 1);
    fopts.iterations = args.getInt("iterations", 1000);
    if (seed < 1 || fopts.iterations < 1)
        throw UsageError("workload fuzz: --seed and --iterations "
                         "must be positive");
    fopts.seed = static_cast<std::uint64_t>(seed);
    core::Registry reg;
    std::vector<std::string> corpus;
    for (const auto &b : reg.all())
        corpus.push_back(wl::import::exportWorkload(b.spec()));
    wl::import::FuzzReport rep = wl::import::fuzzImporter(corpus, fopts);
    std::printf("fuzz: seed %llu, %d iteration(s), %d accepted, "
                "%d rejected, digest %016llx\n",
                static_cast<unsigned long long>(fopts.seed),
                rep.iterations, rep.accepted, rep.rejected,
                static_cast<unsigned long long>(rep.digest));
    if (!rep.pass) {
        std::fprintf(stderr, "mlpsim: error: fuzz failed: %s\n",
                     rep.failure.c_str());
        return kDegraded;
    }
    return kOk;
}

/**
 * How many positionals a command takes: none; at most one (the
 * command says whether it is required); a sub-verb from the row's
 * '|'-separated operands, then whatever that verb takes; or many.
 */
enum class Arity { None, One, Verb, Many };

struct Command {
    const char *name;
    Arity arity;
    const char *operands; ///< the positionals, as usage shows them
    /** Groups and flags, space-separated. "NAME@PARTNER" marks flags
     *  that only matter with --PARTNER: given alone, they are a usage
     *  error. */
    const char *flags;
    const char *summary;
    int (*run)(const Args &);
};

const Command kCommands[] = {
    {"list", Arity::None, "", "", "workloads and systems", cmdList},
    {"run", Arity::One, "<workload>",
     "machine imports mttf-hours checkpoint@mttf-hours seed "
     "link-mttf-hours",
     "one training run, optionally under faults", cmdRun},
    {"scaling", Arity::Many, "<workload...>", "system engine imports",
     "time to train from 1 GPU to the whole machine", cmdScaling},
    {"schedule", Arity::Many, "<workload...>",
     "system gpus engine imports",
     "naive vs optimal job schedule", cmdSchedule},
    {"characterize", Arity::None, "", "system gpus engine imports",
     "PCA and roofline of every workload", cmdCharacterize},
    {"trace", Arity::One, "<workload>", "machine iterations out",
     "chrome://tracing timeline of K iterations", cmdTrace},
    {"explain", Arity::One, "<workload>",
     "machine engine imports json out trace iterations",
     "where one run's iteration time goes", cmdExplain},
    {"report", Arity::None, "", "out engine imports",
     "the whole study as one markdown report", cmdReport},
    {"cache", Arity::Verb, "stats|verify|clear", "cache-dir",
     "inspect, check or clear a run journal", cmdCache},
    {"faults", Arity::None, "",
     "system gpus mttf-hours link-mttf-hours hours seed trace",
     "a seeded GPU and link failure trace", cmdFaults},
    {"serve", Arity::None, "",
     "listen port-file engine rate burst max-queued weight max-batch "
     "deadline-s drain-timeout-s chaos chaos-seed",
     "one warm cache served to many clients (docs/SERVICE.md)", cmdServe},
    {"query", Arity::Many, "<workload...>",
     "connect port-file wait-s local system gpus precision reference "
     "deadline-s stats ping engine@local imports",
     "run requests on a server, or in-process with --local", cmdQuery},
    {"soak", Arity::None, "",
     "seed ops chaos cycles clients jobs cache-dir",
     "seeded chaos soak (docs/CHAOS.md)", cmdSoak},
    {"workload", Arity::Verb, "list|validate|export|fuzz",
     "imports out seed iterations",
     "validate <file...>, export <name> (docs/WORKLOAD_IR.md)",
     cmdWorkload},
};

std::vector<std::string>
split(const std::string &text, char sep = ' ')
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string word; std::getline(in, word, sep);)
        if (!word.empty())
            out.push_back(word);
    return out;
}

/** The members of flag group `word`, or null for a single flag. */
const char *
groupMembers(const std::string &word)
{
    for (const auto &[group, members] : kGroups)
        if (word == group)
            return members;
    return nullptr;
}

/** A word of a command's flag list split at '@': the group or flag
 *  name, and the partner flag it needs (empty for none). */
std::pair<std::string, std::string>
splitPartner(const std::string &word)
{
    std::size_t at = word.find('@');
    if (at == std::string::npos)
        return {word, ""};
    return {word.substr(0, at), word.substr(at + 1)};
}

/** The flags a space-separated list of groups and flag names means. */
std::vector<const Flag *>
expand(const std::string &spec)
{
    std::vector<const Flag *> out;
    for (const std::string &item : split(spec)) {
        std::string word = splitPartner(item).first;
        const char *members = groupMembers(word);
        for (const std::string &name : split(members ? members : word)) {
            auto f = std::find_if(
                std::begin(kFlags), std::end(kFlags),
                [&](const Flag &flag) { return name == flag.name; });
            if (f == std::end(kFlags))
                throw std::logic_error("no flag --" + name);
            out.push_back(f);
        }
    }
    return out;
}

/**
 * Read argv against a command's row: its flags and the global group,
 * nothing else. A value flag takes the next word even when it starts
 * with '-' ("--mttf-hours -4" reaches validation as -4), but not an
 * empty word or another "--" flag.
 */
Args
parseArgs(const Command &cmd, int argc, char **argv)
{
    Args a;
    a.command = cmd.name;
    std::vector<const Flag *> accepted =
        expand(std::string(cmd.flags) + " global");
    std::vector<std::string> names;
    for (const Flag *f : accepted)
        names.push_back(std::string("--") + f->name);
    for (int i = 2; i < argc; ++i) {
        std::string tok = argv[i];
        if (tok.size() < 2 || tok[0] != '-') {
            a.positional.push_back(tok);
            continue;
        }
        auto at = std::find(names.begin(), names.end(), tok);
        if (at == names.end())
            throw UsageError(a.command + ": unknown flag '" + tok +
                             "'" + core::didYouMean(tok, names));
        const Flag &flag = *accepted[at - names.begin()];
        std::vector<std::string> &seen = a.values[flag.name];
        if (!seen.empty() && !flag.repeatable)
            throw UsageError(tok + " given more than once");
        std::string value;
        if (flag.kind != Switch) {
            if (i + 1 == argc || !*argv[i + 1] ||
                std::string(argv[i + 1]).rfind("--", 0) == 0)
                throw UsageError(tok + " needs a value (" + flag.meta +
                                 ")");
            value = argv[++i];
            if (flag.kind != Text)
                checkNumber(flag, value);
        }
        seen.push_back(value);
    }
    for (const std::string &word : split(cmd.flags)) {
        auto [names, partner] = splitPartner(word);
        if (partner.empty() || a.has(partner))
            continue;
        for (const Flag *f : expand(names)) {
            if (a.has(f->name))
                throw UsageError(a.command + ": --" + f->name +
                                 " only matters with --" + partner +
                                 "; add --" + partner + " or drop --" +
                                 f->name);
        }
    }
    if (cmd.arity == Arity::None || cmd.arity == Arity::One)
        a.takesAtMost(cmd.arity == Arity::One ? 1 : 0);
    if (cmd.arity != Arity::Verb)
        return a;
    if (a.positional.empty())
        throw UsageError(a.command + ": need a subcommand (" +
                         cmd.operands + ")");
    const std::string &verb = a.positional[0];
    std::vector<std::string> verbs = split(cmd.operands, '|');
    if (std::find(verbs.begin(), verbs.end(), verb) == verbs.end())
        throw UsageError(a.command + ": unknown subcommand '" + verb +
                         "'" + core::didYouMean(verb, verbs));
    return a;
}

/** `line` continued by `items`, wrapped before column 72. */
std::string
wrapped(std::string line, const std::vector<std::string> &items)
{
    std::size_t start = 0;
    for (const std::string &item : items) {
        if (line.size() - start + 1 + item.size() > 72) {
            start = line.size() + 1;
            line += "\n" + std::string(12, ' ');
        }
        line += " " + item;
    }
    return line + "\n";
}

/** The usage words of a flag list: "[machine flags]" for a group,
 *  "[--name META]" for a flag, with "..." when it repeats and
 *  " with --partner" when it needs one. */
std::vector<std::string>
synopsis(const std::string &spec)
{
    std::vector<std::string> out;
    for (const std::string &item : split(spec)) {
        auto [word, partner] = splitPartner(item);
        std::string with = partner.empty() ? "" : " with --" + partner;
        if (groupMembers(word)) {
            out.push_back("[" + word + " flags" + with + "]");
            continue;
        }
        const Flag &f = *expand(word)[0];
        std::string text = std::string("[--") + f.name;
        if (f.kind != Switch)
            text += std::string(" ") + f.meta;
        out.push_back(text + with + (f.repeatable ? "]..." : "]"));
    }
    return out;
}

void
usage()
{
    std::string text =
        "mlpsim — MLPerf training characterization simulator\n\n";
    for (const Command &c : kCommands) {
        std::vector<std::string> items = synopsis(c.flags);
        if (*c.operands)
            items.insert(items.begin(), c.operands);
        text += wrapped(std::string("  mlpsim ") + c.name, items) +
                "      " + c.summary + "\n";
    }
    text += "\nFlag groups (every command takes the global flags):\n";
    for (const auto &[group, members] : kGroups)
        text += wrapped(std::string("  ") + group + " flags:",
                        synopsis(members));
    std::printf(
        "%s\n--workload-file imports an mlpsim-graph-v1 document next to\n"
        "the built-ins; report quarantines a rejected file, the other\n"
        "commands exit 8. --system takes a machine name, 'reference' or\n"
        "pod(<box>,<racks>x<nodes>[,spines=S]), e.g. 'pod(C4140 (M),4x4)'.\n"
        "--degraded-links takes 'GPU0-GPU1:down,nvlink:0.5,...'.\n\n"
        "Flags are strict per command. Exit codes: 0 ok, 2 usage (unknown\n"
        "command or flag, stray argument, missing or malformed value),\n"
        "3 configuration, 4 degraded report, busy cache or failed soak,\n"
        "5 corrupt cache, 6 overloaded server, 7 journal writes lost to\n"
        "a full disk, 8 workload file rejected by the importer.\n",
        text.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return kUsage;
    }
    // Declared before the try so artifacts still flush (via the
    // destructor's finish()) when a command exits through fatal().
    std::unique_ptr<obs::TelemetrySession> telemetry;
    try {
        std::string name = argv[1];
        auto cmd = std::find_if(
            std::begin(kCommands), std::end(kCommands),
            [&](const Command &c) { return name == c.name; });
        if (cmd == std::end(kCommands)) {
            std::vector<std::string> names;
            for (const Command &c : kCommands)
                names.push_back(c.name);
            throw UsageError("unknown command '" + name + "'" +
                             core::didYouMean(name, names));
        }
        Args args = parseArgs(*cmd, argc, argv);
        if (args.has("telemetry-dir"))
            telemetry = std::make_unique<obs::TelemetrySession>(
                args.get("telemetry-dir", ""), name,
                std::vector<std::string>(argv, argv + argc));
        obs::Span cmd_span("phase", name);
        return cmd->run(args);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "mlpsim: error: %s\n", e.what());
        std::fprintf(stderr,
                     "run 'mlpsim' without arguments for usage\n");
        return kUsage;
    } catch (const RejectError &e) {
        std::fprintf(stderr, "mlpsim: error: %s\n", e.what());
        return kRejected;
    } catch (const sim::FatalError &e) {
        std::fprintf(stderr, "mlpsim: error: %s\n", e.what());
        return kConfig;
    }
}
