/**
 * @file
 * perfbench: the repository benchmark binary.
 *
 *   perfbench --workload report|pod_explain --seed N --seconds S
 *             --trace 0|1 [--work-dir DIR]
 *
 * Every engine runs at jobs = nproc. Untraced runs (--trace 0) print
 * the end-to-end metrics; traced runs print the per-layer metrics. Before the result it prints notes, one
 * provenance line and one line of deterministic work counters; the
 * last line of standard output is the result object. Normally started
 * through perfbench/run.py, which builds it first.
 */

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "obs/registry.h"
#include "obs/span.h"
#include "sim/json.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "report|pod_explain --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *s, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end || s[0] == '-')
        usage((std::string(flag) + " needs a non-negative integer").c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.jobs = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    o.work_dir = ".bench_build/perfbench-work";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            o.workload = v;
        else if (flag == "--seed")
            o.seed = parseUnsigned(v, "--seed");
        else if (flag == "--seconds")
            o.seconds = static_cast<double>(parseUnsigned(v, "--seconds"));
        else if (flag == "--trace")
            o.trace = parseUnsigned(v, "--trace") != 0;
        else if (flag == "--work-dir")
            o.work_dir = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (o.workload != "report" && o.workload != "pod_explain")
        usage("--workload must be report or pod_explain");
    if (o.seconds < 1 || o.seconds > 120)
        usage("--seconds must be 1..120");
    return o;
}

/** Where the numbers came from; Debug and sanitizer builds flagged. */
std::string
provenance(const Options &o)
{
    bool optimized = true, sanitized = false;
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    sanitized = true;
#endif
    char host[256] = "unknown";
    gethostname(host, sizeof(host) - 1);
    const char *rev = std::getenv("PERFBENCH_REVISION");
    using mlps::sim::jsonEscape;
    return std::string("{\"provenance\":{\"revision\":\"") +
           jsonEscape(rev ? rev : "unknown") + "\",\"build_type\":\"" +
           PERFBENCH_BUILD_TYPE + "\",\"cxx_flags\":\"" +
           jsonEscape(PERFBENCH_CXX_FLAGS) + "\",\"compiler\":\"" +
           jsonEscape(__VERSION__) + "\",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"jobs\":" + std::to_string(o.jobs) + ",\"host\":\"" +
           jsonEscape(host) + "\",\"optimized\":" +
           (optimized ? "true" : "false") + ",\"sanitized\":" +
           (sanitized ? "true" : "false") + ",\"workload\":\"" +
           o.workload + "\",\"seed\":" + std::to_string(o.seed) +
           ",\"seconds\":" + mlps::sim::jsonDouble(o.seconds) +
           ",\"trace\":" + (o.trace ? "1" : "0") + "}}";
}

void
print(const Options &o, const Result &r)
{
    for (const std::string &n : r.notes)
        std::printf("# %s\n", n.c_str());
    for (const std::string &p : r.problems)
        std::printf("# PROBLEM: %s\n", p.c_str());
    std::printf("%s\n", provenance(o).c_str());

    std::string counters = "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : r.counters) {
        counters += (first ? "\"" : ",\"") + mlps::sim::jsonEscape(name) +
                    "\":\"" + mlps::sim::jsonEscape(value) + "\"";
        first = false;
    }
    std::printf("%s}}\n", counters.c_str());

    std::string metrics;
    for (const Result::Metric &m : r.metrics)
        metrics += (metrics.empty() ? "\"" : ",\"") + m.name +
                   "\":{\"value\":" + mlps::sim::jsonDouble(m.value) +
                   ",\"unit\":\"" + m.unit + "\"}";
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                r.problems.empty() ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    1, r.attempted)),
                static_cast<unsigned long long>(r.failed), metrics.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    const std::string trace_file =
        o.work_dir + "/trace-" + o.workload + ".json";
    o.work_dir += "/" + std::to_string(getpid());
    std::filesystem::remove_all(o.work_dir);
    std::filesystem::create_directories(o.work_dir);

    // The program's harness tracer numbers threads in order of first
    // use; record once here so this thread is thread 0.
    auto &self = mlps::obs::SelfTracer::global();
    self.setEnabled(true);
    { mlps::obs::Span prime("perfbench", "prime"); }
    self.setEnabled(false);
    self.clear();

    Result r;
    int code = 0;
    try {
        auto &registry = mlps::obs::MetricRegistry::global();
        const double hits0 = registry.value("net.topology.route_cache.hits");
        const double miss0 = registry.value("net.topology.route_cache.misses");
        if (o.workload == "report")
            runReport(o, r);
        else
            runPodExplain(o, r);
        if (o.trace) {
            const double hits =
                registry.value("net.topology.route_cache.hits") - hits0;
            const double lookups =
                hits + registry.value("net.topology.route_cache.misses") - miss0;
            r.metric("net.route_cache_hit_ratio", "ratio",
                     lookups > 0 ? hits / lookups : 0.0);
            r.metric("net.route_cache_lookups", "count", lookups);
            runLayers(o, r);
            if (!Tracer::get().writeJson(trace_file))
                r.note("could not write " + trace_file);
        } else {
            r.metric("peak_rss_mb", "MiB", peakRssMb());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        code = 1;
    }
    std::filesystem::remove_all(o.work_dir);
    if (code == 0)
        print(o, r);
    return code;
}
