/**
 * @file
 * Shared machinery of the repository benchmark: run options, the
 * result record every workload fills, latency summaries, and the
 * span tracer used by traced runs.
 *
 * All times are host wall time from std::chrono::steady_clock.
 * Simulated results are outputs to check, never metrics.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds since t0. */
inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int jobs = 1;            ///< worker count of every engine (nproc)
    std::string work_dir;    ///< scratch space inside the checkout
};

/** Median of a sample set (0 when empty). */
double median(std::vector<double> v);

/**
 * Latency summary: the median of all samples, and the "tail". The
 * samples are split, in order, into equal groups (a pass of a fixed
 * point set, or a fixed share of a request stream); in each group the
 * tail is the highest percentile that still has at least ten samples
 * beyond it, and the summary reports the median of the group tails.
 * One extreme group cannot move it, and its rank does not depend on
 * how many groups a run completed.
 */
struct Summary {
    double p50 = 0.0;
    double tail = 0.0;
    double tail_rank = 0.0; ///< percentile the tail was read at
    std::size_t n = 0;      ///< samples
    std::size_t group = 0;  ///< samples per group
};

Summary summarize(const std::vector<double> &samples,
                  std::size_t groups = 1);

/** 64-bit FNV-1a, for output digests. */
class Digest
{
  public:
    void add(const std::string &bytes);
    std::string hex() const;

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** Everything one run reports. */
struct Result {
    struct Metric {
        std::string name;
        std::string unit;
        double value = 0.0;
    };

    std::vector<Metric> metrics;
    /** Deterministic work counters, compared across same-seed runs. */
    std::map<std::string, std::string> counters;
    /** Human-readable notes printed before the result line. */
    std::vector<std::string> notes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Broken invariants; any entry makes the run incorrect. */
    std::vector<std::string> problems;

    void metric(const std::string &name, const std::string &unit,
                double value)
    {
        metrics.push_back({name, unit, value});
    }
    /** Count one failed operation and say why (first 20 kept). */
    void fail(const std::string &what)
    {
        ++failed;
        if (problems.size() < 20)
            problems.push_back(what);
    }
    void counter(const std::string &name, std::uint64_t v)
    {
        counters[name] = std::to_string(v);
    }
    void note(const std::string &line) { notes.push_back(line); }
};

/**
 * Run `fn` repeatedly until `budget_ms` has elapsed and at least
 * `min_reps` repetitions ran; returns the median per-call time, ms.
 */
double medianMs(const std::function<void()> &fn, int min_reps,
                double budget_ms);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

// ---- tracing ---------------------------------------------------------

/** Layers a span's self time is charged to. */
enum class Layer { Simulate, Exec, Attrib, Core, Serve, Bench };
constexpr int kNumLayers = 6;
const char *layerName(Layer l);

/** One recorded span. */
struct TraceSpan {
    std::string name;
    Layer layer = Layer::Bench;
    int thread = 0;          ///< 0 = the benchmark's own thread
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;         ///< index of the enclosing span, -1 = root
    std::uint64_t request = 0; ///< request id, 0 = none
};

/**
 * Span recorder of a traced run. The benchmark opens a Scope around
 * each call into a layer; the program's own harness spans
 * (obs::SelfTracer: engine batches, per-point evaluations, report
 * sections) are merged in when collected. Spans stay in memory until
 * written out at the end of the run. Disarmed, a Scope costs one
 * branch.
 */
class Tracer
{
  public:
    static Tracer &get();

    /** Arm or disarm both this recorder and obs::SelfTracer. */
    void setEnabled(bool on);

    /** Microseconds on the shared span clock. */
    double nowUs() const;

    class Scope
    {
      public:
        Scope(Layer layer, const char *name, std::uint64_t request = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        int index_ = -1;
    };

    /**
     * Pull the program's harness spans recorded so far into this
     * recorder and clear them there.
     */
    void collect();

    /**
     * Self time per layer, microseconds, of the spans that lie inside
     * [from_us, to_us]: each span's duration minus the time its
     * direct children on the same thread cover.
     */
    std::vector<double> selfTimeByLayer(double from_us,
                                        double to_us) const;

    /** Write every span as a JSON array. @return false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::vector<TraceSpan> spans_;
    int open_ = -1; ///< innermost open benchmark span
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
