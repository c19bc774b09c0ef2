/**
 * @file
 * mlpsim command-line interface: the study as a tool.
 *
 *   mlpsim list
 *   mlpsim run <workload> [--system NAME] [--gpus N]
 *                         [--precision fp32|mixed] [--reference]
 *   mlpsim scaling <workload...> [--system NAME] [--jobs N]
 *   mlpsim schedule [--gpus N] [--system NAME] [--jobs N] <workload...>
 *   mlpsim characterize [--system NAME] [--jobs N]
 *   mlpsim trace <workload> [--system NAME] [--gpus N] [--out FILE]
 *   mlpsim explain <workload> [--system NAME] [--gpus N] [--json]
 *                             [--degraded-links SPEC] [--jobs N]
 *                             [--cache-dir DIR] [...]
 *   mlpsim faults <workload> [--mttf-hours H] [--link-mttf-hours H]
 *                            [--seed S] [...]
 *   mlpsim report [--out FILE] [--jobs N] [--cache-dir DIR]
 *   mlpsim cache stats|verify|clear --cache-dir DIR
 *   mlpsim serve [--listen HOST:PORT] [--port-file FILE]
 *                [--cache-dir DIR] [--cache-max-entries N]
 *                [--cache-max-bytes B] [--jobs N]
 *                [--chaos fs,net,clock --chaos-seed S] [...]
 *   mlpsim query <workload...> --connect HOST:PORT | --port-file FILE
 *                [--local] [--system NAME] [--gpus N] [...]
 *   mlpsim soak [--seed S] [--ops N] [--chaos fs,net,clock]
 *               [--cycles K] [--clients C] [--jobs N]
 *               [--cache-dir DIR]
 *   mlpsim workload list
 *   mlpsim workload validate <file...>
 *   mlpsim workload export <name> [--out FILE]
 *   mlpsim workload fuzz [--seed S] [--iterations N]
 *
 * run, scaling, schedule, characterize, explain, report and query
 * accept --workload-file FILE (repeatable): an external
 * mlpsim-graph-v1 JSON document imported, validated and registered
 * next to the built-ins (docs/WORKLOAD_IR.md). A rejected file aborts
 * strict commands with exit code 8; report quarantines it and
 * degrades instead.
 *
 * Every subcommand additionally accepts --telemetry-dir DIR: the
 * invocation then writes a provenance manifest, metric snapshots
 * (JSON + Prometheus), a harness self-trace and a structured log into
 * DIR (see docs/OBSERVABILITY.md).
 *
 * Exit codes: 0 success, 2 usage error, 3 configuration error,
 * 4 report written but degraded (some runs failed, the cache is busy
 * under a live server, or a soak invariant failed), 5 cache
 * corruption detected by `cache verify`, 6 query rejected by an
 * overloaded server, 7 journal writes lost to a full disk,
 * 8 workload file rejected by the importer.
 */

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
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

/** Tiny flag parser: positionals plus --key value / --switch. */
struct Args {
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;
    /** Every occurrence of each flag, in command-line order — for
     *  flags like --workload-file that may repeat. */
    std::map<std::string, std::vector<std::string>> all_flags;

    static Args
    parse(int argc, char **argv, int first)
    {
        Args a;
        for (int i = first; i < argc; ++i) {
            std::string tok = argv[i];
            if (tok.rfind("--", 0) == 0) {
                std::string key = tok.substr(2);
                // A leading '-' marks the next flag, except when it
                // spells a negative number ("--mttf-hours -4" must
                // reach validation as -4, not be dropped).
                bool has_value =
                    i + 1 < argc &&
                    (argv[i + 1][0] != '-' ||
                     std::isdigit(static_cast<unsigned char>(
                         argv[i + 1][1])) ||
                     argv[i + 1][1] == '.');
                if (has_value)
                    a.flags[key] = argv[++i];
                else
                    a.flags[key] = "true";
                a.all_flags[key].push_back(a.flags[key]);
            } else {
                a.positional.push_back(tok);
            }
        }
        return a;
    }

    /** All values of a repeatable flag, command-line order. */
    std::vector<std::string>
    getAll(const std::string &key) const
    {
        auto it = all_flags.find(key);
        return it == all_flags.end() ? std::vector<std::string>{}
                                     : it->second;
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = flags.find(key);
        return it == flags.end() ? fallback : it->second;
    }

    /** Numbers parse strictly: the whole value, in range, or a usage
     *  error naming the flag ("--gpus 4x" must not run on 4 GPUs). */
    int
    getInt(const std::string &key, int fallback) const
    {
        auto it = flags.find(key);
        if (it == flags.end())
            return fallback;
        char *end = nullptr;
        errno = 0;
        long v = std::strtol(it->second.c_str(), &end, 10);
        requireWhole(key, it->second, end,
                     errno != ERANGE && v >= INT_MIN && v <= INT_MAX,
                     "an integer");
        return static_cast<int>(v);
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        auto it = flags.find(key);
        if (it == flags.end())
            return fallback;
        char *end = nullptr;
        errno = 0;
        double v = std::strtod(it->second.c_str(), &end);
        requireWhole(key, it->second, end, errno != ERANGE, "a number");
        return v;
    }

    static void
    requireWhole(const std::string &key, const std::string &value,
                 const char *end, bool in_range, const char *kind)
    {
        if (value.empty() || *end != '\0' || !in_range)
            throw UsageError("--" + key + " " + value + ": expected " +
                             kind);
    }

    bool
    has(const std::string &key) const
    {
        return flags.count(key) > 0;
    }
};

/**
 * Resolve --system: an exact machine name, "reference", or the pod
 * grammar `pod(<box>,<racks>x<nodes>[,spines=S])`. One resolver
 * (sys::systemFromSpec) serves both the CLI and the serve catalog,
 * so their vocabularies and did-you-mean hints never drift.
 */
sys::SystemConfig
systemByName(const std::string &name)
{
    sys::SystemConfig out;
    std::string error;
    if (!sys::systemFromSpec(name, &out, &error))
        sim::fatal("%s; 'mlpsim list' shows all systems",
                   error.c_str());
    return out;
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
    if (!args.has("jobs"))
        return 0;
    int jobs = args.getInt("jobs", 0);
    if (jobs <= 0)
        sim::fatal("--jobs %s: worker count must be a positive integer",
                   args.get("jobs", "").c_str());
    return jobs;
}

/** Apply the --cache-max-entries/--cache-max-bytes/--compact-ratio
 *  bounded-cache flags to engine options. */
void
fillCacheBudget(const Args &args, exec::ExecOptions *eopts)
{
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
    eopts->cache_max_entries = static_cast<std::size_t>(entries);
    eopts->cache_max_bytes = static_cast<std::uint64_t>(bytes);
    eopts->journal_compact_ratio = ratio;
}

/**
 * Build the engine of a sweep command: worker count from --jobs,
 * durable journal from --cache-dir (omitted = in-memory only).
 */
exec::Engine
makeEngine(const Args &args,
           exec::ErrorPolicy policy = exec::ErrorPolicy::Throw)
{
    exec::ExecOptions eopts(jobsFrom(args));
    eopts.cache_dir = args.get("cache-dir", "");
    eopts.on_error = policy;
    fillCacheBudget(args, &eopts);
    return exec::Engine(std::move(eopts));
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

/** Record a labelled config fingerprint in the manifest. */
void
noteConfigDigest(const std::string &label, const exec::Fingerprint &fp)
{
    auto *t = obs::TelemetrySession::current();
    if (!t)
        return;
    char hex[36];
    std::snprintf(hex, sizeof(hex), "%016llx%016llx",
                  static_cast<unsigned long long>(fp.hi),
                  static_cast<unsigned long long>(fp.lo));
    t->manifest().config_digests.push_back(label + "=" + hex);
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

/** Workload names of a sweep: positionals then imported abbrevs. */
std::vector<std::string>
workloadNames(const Args &args,
              const std::vector<wl::WorkloadSpec> &imported)
{
    std::vector<std::string> names = args.positional;
    for (const wl::WorkloadSpec &s : imported)
        names.push_back(s.abbrev);
    return names;
}

int
cmdList()
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

/** The --system machine (default DSS 8440) with any --degraded-links
 *  applied: the machine `run` and `explain` price. */
sys::SystemConfig
machineFrom(const Args &args)
{
    sys::SystemConfig machine =
        systemByName(args.get("system", "DSS 8440"));
    if (args.has("degraded-links"))
        sys::applyDegradedLinks(machine, args.get("degraded-links", ""));
    return machine;
}

train::RunOptions
optionsFrom(const Args &args, const sys::SystemConfig &machine)
{
    train::RunOptions opts;
    opts.num_gpus = gpusFrom(args, machine, 1);
    std::string prec = args.get("precision", "mixed");
    if (prec == "fp32")
        opts.precision = hw::Precision::FP32;
    else if (prec == "fp16")
        opts.precision = hw::Precision::FP16;
    else if (prec == "mixed")
        opts.precision = hw::Precision::Mixed;
    else
        sim::fatal("unknown precision '%s'", prec.c_str());
    opts.reference_code = args.has("reference");
    return opts;
}

int
cmdRun(const Args &args)
{
    std::vector<wl::WorkloadSpec> imported = importedWorkloads(args);
    // With exactly one imported file the name is implied; otherwise
    // the positional picks among built-ins and imports alike.
    std::string name;
    if (!args.positional.empty())
        name = args.positional[0];
    else if (imported.size() == 1)
        name = imported[0].abbrev;
    else
        throw UsageError(
            "run: need a workload name (or exactly one "
            "--workload-file)");
    sys::SystemConfig machine = machineFrom(args);
    noteConfigDigest("system:" + machine.name,
                     exec::fingerprintOf(machine));
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
    if (args.has("mttf-hours")) {
        double mttf = args.getDouble("mttf-hours", 0.0);
        if (mttf <= 0.0)
            sim::fatal("--mttf-hours %g: MTTF must be positive hours",
                       mttf);
        const core::Benchmark *b =
            suite.registry().find(name);
        auto ckpt = train::checkpointModelFor(machine, b->spec());
        fault::FaultModel model(
            fault::FaultModelConfig::datacenterProfile(mttf),
            static_cast<std::uint64_t>(args.getInt("seed", 42)));
        double interval_s = args.getDouble("checkpoint", 0.0) * 60.0;
        if (interval_s < 0.0)
            sim::fatal("--checkpoint %g: interval must be >= 0 "
                       "minutes (0 = Young-Daly optimal)",
                       interval_s / 60.0);
        auto ft = train::applyFaultTrace(r, ckpt, model, interval_s);
        std::printf("  --- with faults (MTTF %.1f h, seed %d) ---\n",
                    mttf, args.getInt("seed", 42));
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
        double mttf = args.getDouble("link-mttf-hours", 0.0);
        if (mttf <= 0.0)
            sim::fatal("--link-mttf-hours %g: MTTF must be positive "
                       "hours", mttf);
        const core::Benchmark *b =
            suite.registry().find(name);
        fault::LinkFaultModel model(
            fault::LinkFaultConfig::datacenterProfile(mttf),
            static_cast<std::uint64_t>(args.getInt("seed", 42)));
        train::RunOptions opts = optionsFrom(args, machine);
        auto lf = train::applyLinkFaultTrace(machine, b->spec(), opts,
                                             model);
        std::printf("  --- with link faults (MTTF %.1f h, seed %d) "
                    "---\n", mttf, args.getInt("seed", 42));
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
    sys::SystemConfig machine =
        systemByName(args.get("system", "DSS 8440"));
    int gpus = gpusFrom(args, machine, machine.num_gpus);
    double mttf = args.getDouble("mttf-hours", 24.0);
    if (mttf <= 0.0)
        sim::fatal("--mttf-hours %g: MTTF must be positive hours",
                   mttf);
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
        double link_mttf = args.getDouble("link-mttf-hours", 0.0);
        if (link_mttf <= 0.0)
            sim::fatal("--link-mttf-hours %g: MTTF must be positive "
                       "hours", link_mttf);
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
        std::string path = args.get("trace", "mlpsim_faults.json");
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
    if (names.empty())
        throw UsageError(
            "scaling: need workload names or --workload-file");
    sys::SystemConfig machine =
        systemByName(args.get("system", "DSS 8440"));
    core::Suite suite(machine);
    for (const wl::WorkloadSpec &s : imported)
        suite.addWorkload(s);
    std::vector<int> counts;
    for (int n = 1; n <= machine.num_gpus; n *= 2)
        counts.push_back(n);
    exec::Engine engine = makeEngine(args);
    auto rows = suite.scalingStudy(names, counts, &engine);
    noteConfigDigest("system:" + machine.name,
                     exec::fingerprintOf(machine));
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
    if (names.empty())
        throw UsageError(
            "schedule: need workload names or --workload-file");
    sys::SystemConfig machine =
        systemByName(args.get("system", "DSS 8440"));
    int gpus = gpusFrom(args, machine, machine.num_gpus);
    core::Suite suite(machine);
    for (const wl::WorkloadSpec &s : imported)
        suite.addWorkload(s);
    exec::Engine engine = makeEngine(args);
    auto jobs = suite.jobSpecs(names, gpus, &engine);
    noteConfigDigest("system:" + machine.name,
                     exec::fingerprintOf(machine));
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
    sys::SystemConfig machine =
        systemByName(args.get("system", "C4140 (K)"));
    exec::Engine engine = makeEngine(args);
    auto rep = core::characterize(machine, gpusFrom(args, machine, 1),
                                  &engine, imported);
    noteConfigDigest("system:" + machine.name,
                     exec::fingerprintOf(machine));
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
    sys::SystemConfig machine =
        systemByName(args.get("system", "C4140 (K)"));
    core::Suite suite(machine);
    train::RunOptions opts = optionsFrom(args, machine);
    auto r = suite.run(args.positional[0], opts);
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
    std::string name;
    if (!args.positional.empty())
        name = args.positional[0];
    else if (imported.size() == 1)
        name = imported[0].abbrev;
    else
        throw UsageError(
            "explain: need a workload name (or exactly one "
            "--workload-file)");
    sys::SystemConfig machine = machineFrom(args);
    noteConfigDigest("system:" + machine.name,
                     exec::fingerprintOf(machine));
    core::Suite suite(machine);
    for (const wl::WorkloadSpec &s : imported)
        suite.addWorkload(s);
    exec::Engine engine = makeEngine(args);
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
        std::string path = args.get("trace", "mlpsim_explain.json");
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
        FILE *f = std::fopen(out.c_str(), "wb");
        if (!f || std::fwrite(json.data(), 1, json.size(), f) !=
                      json.size()) {
            if (f)
                std::fclose(f);
            sim::fatal("explain: cannot write '%s'", out.c_str());
        }
        std::fclose(f);
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
    bool rejected_any = false;
    for (const std::string &file : args.getAll("workload-file")) {
        wl::import::ImportResult res =
            wl::import::importWorkloadFile(file);
        if (res.ok) {
            ropts.imported.push_back(std::move(res.spec));
            continue;
        }
        rejected_any = true;
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
    exec::Engine engine = makeEngine(args, exec::ErrorPolicy::Capture);
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
    if (rejected_any) {
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
    if (args.positional.empty())
        throw UsageError(
            "cache: need a subcommand (stats, verify or clear)");
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
        if (!v.exists) {
            std::printf("no journal at %s\n",
                        exec::Journal::journalPath(dir).c_str());
            return kOk;
        }
        std::printf("journal %s\n",
                    exec::Journal::journalPath(dir).c_str());
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
    if (sub == "clear") {
        std::uint64_t bytes = exec::Journal::clear(dir);
        std::printf("removed %llu byte(s) from %s\n",
                    static_cast<unsigned long long>(bytes),
                    dir.c_str());
        return kOk;
    }
    throw UsageError("cache: unknown subcommand '" + sub + "'");
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

    exec::ExecOptions eopts(jobsFrom(args));
    eopts.cache_dir = args.get("cache-dir", "");
    fillCacheBudget(args, &eopts);
    cfg.core.exec = std::move(eopts);

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
    cfg.core.admission.max_queued =
        static_cast<std::size_t>(max_queued);
    cfg.core.admission.weight = static_cast<std::size_t>(weight);
    cfg.core.max_batch = static_cast<std::size_t>(max_batch);
    cfg.core.default_deadline_s = args.getDouble("deadline-s", 0.0);
    cfg.core.drain_timeout_s =
        args.getDouble("drain-timeout-s", 5.0);
    if (cfg.core.default_deadline_s < 0.0 ||
        cfg.core.drain_timeout_s < 0.0)
        sim::fatal("--deadline-s/--drain-timeout-s: need values "
                   ">= 0");

    // --chaos turns the live server hostile to itself: the listed
    // fault dimensions are injected into its own I/O, sockets and
    // clock — a way to watch recovery behaviour interactively with
    // the exact schedule a seed would give the soak harness.
    chaos::ChaosSpec spec;
    if (args.has("chaos")) {
        std::string cerr_msg;
        if (!chaos::ChaosSpec::parse(args.get("chaos", ""), &spec,
                                     &cerr_msg))
            sim::fatal("--chaos %s: %s", args.get("chaos", "").c_str(),
                       cerr_msg.c_str());
    }
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
    std::string spec = args.get("chaos", "all");
    std::string cerr_msg;
    if (!chaos::ChaosSpec::parse(spec, &opts.chaos, &cerr_msg))
        sim::fatal("--chaos %s: %s", spec.c_str(), cerr_msg.c_str());
    opts.jobs = jobsFrom(args);
    opts.cache_dir = args.get("cache-dir", "mlpsim-soak-cache");
    if (opts.cache_dir.empty())
        throw UsageError("soak: --cache-dir must not be empty (the "
                         "directory is wiped and reused)");
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

/** The request tail shared by named and inline-graph run requests:
 *  system, gpus, precision, the optional knobs, closing brace. */
std::string
queryRequestTail(const Args &args)
{
    std::string tail = ",\"system\":\"" +
                       serve::jsonEscape(
                           args.get("system", "DSS 8440")) +
                       "\",\"gpus\":" +
                       std::to_string(args.getInt("gpus", 1)) +
                       ",\"precision\":\"" +
                       serve::jsonEscape(
                           args.get("precision", "mixed")) +
                       "\"";
    if (args.has("reference"))
        tail += ",\"reference\":true";
    double deadline = args.getDouble("deadline-s", 0.0);
    if (deadline > 0.0)
        tail += ",\"deadline_s\":" + serve::jsonDouble(deadline);
    tail += "}";
    return tail;
}

/** Build the JSON run request the query command sends (or, with
 *  --local, evaluates in-process through the same validation). */
std::string
queryRequestLine(const Args &args, const std::string &workload,
                 const std::string &id)
{
    return "{\"type\":\"run\",\"id\":\"" + serve::jsonEscape(id) +
           "\",\"workload\":\"" + serve::jsonEscape(workload) + "\"" +
           queryRequestTail(args);
}

/**
 * As above, but carrying an imported workload inline as a
 * "workload_graph" object — the server never sees the file, only the
 * compact export, and re-validates it through the same importer the
 * CLI used, so a rejection reads identically in both places.
 */
std::string
queryGraphRequestLine(const Args &args, const wl::WorkloadSpec &spec,
                      const std::string &id)
{
    std::string line = "{\"type\":\"run\",\"id\":\"" +
                       serve::jsonEscape(id) +
                       "\",\"workload_graph\":" +
                       wl::import::exportWorkloadLine(spec) +
                       queryRequestTail(args);
    if (line.size() > serve::kMaxLineBytes)
        sim::fatal("query: workload '%s' exports to %zu bytes, over "
                   "the %zu-byte protocol line limit",
                   spec.abbrev.c_str(), line.size(),
                   serve::kMaxLineBytes);
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
    exec::Engine engine = makeEngine(args, exec::ErrorPolicy::Capture);
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
    if (args.has("connect")) {
        std::string host;
        int port = 0;
        if (!serve::parseEndpoint(args.get("connect", ""), &host,
                                  &port, error))
            return false;
        return conn->dial(host, port, error);
    }
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

    std::vector<std::string> request_lines;
    for (std::size_t i = 0; i < args.positional.size(); ++i)
        request_lines.push_back(queryRequestLine(
            args, args.positional[i],
            "q" + std::to_string(i + 1)));
    // Imported workloads travel inline; ids continue the numbering so
    // output order matches the command line (names, then files).
    for (std::size_t i = 0; i < imported.size(); ++i)
        request_lines.push_back(queryGraphRequestLine(
            args, imported[i],
            "q" + std::to_string(args.positional.size() + i + 1)));

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
    if (args.positional.empty())
        throw UsageError("workload: need a subcommand (list, "
                         "validate, export or fuzz)");
    const std::string &sub = args.positional[0];

    if (sub == "list") {
        auto mode_token = [](wl::RunMode m) {
            switch (m) {
            case wl::RunMode::KernelLoop: return "kernel-loop";
            case wl::RunMode::CollectiveLoop: return "collective-loop";
            default: return "training";
            }
        };
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
                        mode_token(b.spec().mode),
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
        FILE *f = std::fopen(out.c_str(), "wb");
        if (!f || std::fwrite(text.data(), 1, text.size(), f) !=
                      text.size()) {
            if (f)
                std::fclose(f);
            sim::fatal("workload export: cannot write '%s'",
                       out.c_str());
        }
        std::fclose(f);
        std::printf("wrote %s (%zu bytes)\n", out.c_str(),
                    text.size());
        return kOk;
    }

    if (sub == "fuzz") {
        wl::import::FuzzOptions fopts;
        fopts.seed = static_cast<std::uint64_t>(
            args.getDouble("seed", 1.0));
        fopts.iterations = args.getInt("iterations", 1000);
        if (fopts.seed == 0 || fopts.iterations < 1)
            throw UsageError("workload fuzz: --seed and --iterations "
                             "must be positive");
        core::Registry reg;
        std::vector<std::string> corpus;
        for (const auto &b : reg.all())
            corpus.push_back(wl::import::exportWorkload(b.spec()));
        wl::import::FuzzReport rep =
            wl::import::fuzzImporter(corpus, fopts);
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

    throw UsageError("workload: unknown subcommand '" + sub + "'");
}

void
usage()
{
    std::printf(
        "mlpsim — MLPerf training characterization simulator\n\n"
        "  mlpsim list\n"
        "  mlpsim run <workload> [--system NAME] [--gpus N]\n"
        "             [--precision fp32|fp16|mixed] [--reference]\n"
        "             [--mttf-hours H [--checkpoint MIN] [--seed S]]\n"
        "             [--link-mttf-hours H] [--degraded-links SPEC]\n"
        "             (SPEC: 'GPU0-GPU1:down,nvlink:0.5,...')\n"
        "  mlpsim scaling <workload...> [--system NAME] [--jobs N]\n"
        "             [--cache-dir DIR]\n"
        "  mlpsim schedule [--gpus N] [--system NAME] [--jobs N]\n"
        "             [--cache-dir DIR] <workload...>\n"
        "  mlpsim characterize [--system NAME] [--gpus N] [--jobs N]\n"
        "             [--cache-dir DIR]\n"
        "  mlpsim trace <workload> [--system NAME] [--gpus N]\n"
        "             [--iterations K] [--out FILE]\n"
        "  mlpsim explain <workload> [--system NAME] [--gpus N]\n"
        "             [--degraded-links SPEC]\n"
        "             [--precision P] [--reference] [--jobs N]\n"
        "             [--cache-dir DIR] [--json] [--out FILE]\n"
        "             [--trace FILE [--iterations K]]\n"
        "             (attribute one run's iteration time into\n"
        "             exposed compute / per-tier comm / bubble /\n"
        "             overhead; byte-identical across --jobs and\n"
        "             journal warmth)\n"
        "  mlpsim report [--out FILE] [--jobs N] [--cache-dir DIR]\n"
        "  mlpsim cache stats|verify|clear --cache-dir DIR\n"
        "  mlpsim faults [--system NAME] [--gpus N] [--mttf-hours H]\n"
        "             [--link-mttf-hours H] [--hours H] [--seed S]\n"
        "             [--trace FILE]\n"
        "  mlpsim serve [--listen HOST:PORT] [--port-file FILE]\n"
        "             [--cache-dir DIR] [--cache-max-entries N]\n"
        "             [--cache-max-bytes B] [--compact-ratio R]\n"
        "             [--jobs N] [--rate R] [--burst B]\n"
        "             [--max-queued N] [--weight W] [--max-batch N]\n"
        "             [--deadline-s D] [--drain-timeout-s D]\n"
        "             [--chaos fs,net,clock [--chaos-seed S]]\n"
        "  mlpsim query <workload...> --connect HOST:PORT\n"
        "             | --port-file FILE [--wait-s S] | --local\n"
        "             [--system NAME] [--gpus N] [--precision P]\n"
        "             [--reference] [--deadline-s D] [--stats]\n"
        "             [--ping]  (docs/SERVICE.md)\n"
        "  mlpsim soak [--seed S] [--ops N] [--chaos fs,net,clock]\n"
        "             [--cycles K] [--clients C] [--jobs N]\n"
        "             [--cache-dir DIR]  (docs/CHAOS.md)\n"
        "  mlpsim workload list | validate <file...>\n"
        "             | export <name> [--out FILE]\n"
        "             | fuzz [--seed S] [--iterations N]\n"
        "             (docs/WORKLOAD_IR.md)\n\n"
        "run, scaling, schedule, characterize, explain, report and\n"
        "query also\n"
        "accept --workload-file FILE (repeatable): an external\n"
        "mlpsim-graph-v1 document validated and registered next to\n"
        "the built-ins. report quarantines rejected files; the other\n"
        "commands abort with exit code 8.\n\n"
        "--system NAME accepts a machine name, 'reference', or the\n"
        "pod grammar pod(<box>,<racks>x<nodes>[,spines=S]) — e.g.\n"
        "--system 'pod(C4140 (M),4x4)' ('mlpsim list' for details).\n\n"
        "Sweep commands accept --cache-max-entries/--cache-max-bytes\n"
        "to bound the run cache (LRU eviction; evicted entries stay\n"
        "in the journal until compaction).\n\n"
        "Every command accepts --telemetry-dir DIR: write a run\n"
        "manifest, metric snapshots, a harness self-trace and a\n"
        "structured log into DIR (docs/OBSERVABILITY.md).\n\n"
        "Exit codes: 0 ok, 2 usage, 3 configuration, 4 degraded\n"
        "report, busy cache or failed soak, 5 corrupt cache,\n"
        "6 overloaded server, 7 journal writes lost to a full disk,\n"
        "8 workload file rejected by the importer.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return kUsage;
    }
    std::string cmd = argv[1];
    Args args = Args::parse(argc, argv, 2);
    // Declared before the try so artifacts still flush (via the
    // destructor's finish()) when a command exits through fatal().
    std::unique_ptr<obs::TelemetrySession> telemetry;
    try {
        if (args.has("telemetry-dir")) {
            std::string dir = args.get("telemetry-dir", "");
            if (dir.empty() || dir == "true")
                throw UsageError(
                    "--telemetry-dir needs a directory path");
            telemetry = std::make_unique<obs::TelemetrySession>(
                dir, cmd,
                std::vector<std::string>(argv, argv + argc));
        }
        obs::Span cmd_span("phase", cmd);
        if (cmd == "list")
            return cmdList();
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "scaling")
            return cmdScaling(args);
        if (cmd == "schedule")
            return cmdSchedule(args);
        if (cmd == "characterize")
            return cmdCharacterize(args);
        if (cmd == "trace")
            return cmdTrace(args);
        if (cmd == "explain")
            return cmdExplain(args);
        if (cmd == "report")
            return cmdReport(args);
        if (cmd == "cache")
            return cmdCache(args);
        if (cmd == "faults")
            return cmdFaults(args);
        if (cmd == "serve")
            return cmdServe(args);
        if (cmd == "query")
            return cmdQuery(args);
        if (cmd == "soak")
            return cmdSoak(args);
        if (cmd == "workload")
            return cmdWorkload(args);
        throw UsageError("unknown command '" + cmd + "'");
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
