/**
 * @file
 * Scoped spans: a Chrome-trace of the harness itself.
 *
 * prof::TraceBuilder reconstructs the timeline of the *modeled* run;
 * SelfTracer records the timeline of the *simulator process* — engine
 * batches, dedupe and publish phases, per-point evaluations on
 * executor workers, journal replay, fabric-fault state re-runs. Open
 * the written file in ui.perfetto.dev next to a model trace to see
 * where harness wall time actually goes.
 *
 * Span is RAII: construction stamps a start on the monotonic clock,
 * destruction appends a complete event. Spans nest naturally (Chrome
 * complete events on one track nest by interval containment) and are
 * thread-aware: each OS thread gets a stable per-process index, and a
 * span's track is "<component>" on the first thread observed and
 * "<component>/t<k>" on others, so worker activity lands on separate
 * rows.
 *
 * Overhead: when tracing is disabled (the default) a Span is one
 * relaxed atomic load and no allocation, and a report records none
 * (SelfTrace.ReportWithTelemetryOffRecordsNothing).
 */

#ifndef MLPSIM_OBS_SPAN_H
#define MLPSIM_OBS_SPAN_H

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <vector>

namespace mlps::obs {

/** One recorded harness span. */
struct SelfSpan {
    std::string name;
    std::string track; ///< component, suffixed /t<k> off the first thread
    double start_us = 0.0;
    double duration_us = 0.0;
};

/** Thread-safe collector of harness spans. */
class SelfTracer
{
  public:
    SelfTracer() : epoch_(std::chrono::steady_clock::now()) {}

    /** The process-wide tracer driving obs::Span. */
    static SelfTracer &global();

    /** Turn collection on/off; spans are no-ops while disabled. */
    void setEnabled(bool on) {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool enabled() const {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Microseconds since this tracer was constructed. */
    double nowUs() const;

    /**
     * Append one span for the calling thread. Thread-safe; the track
     * is derived from `component` and the caller's thread index.
     */
    void record(const char *component, std::string name,
                double start_us, double duration_us);

    /** Copy of everything recorded so far. */
    std::vector<SelfSpan> events() const;

    /** Drop all recorded spans (thread indices persist). */
    void clear();

    /** Chrome trace-event JSON (cat "harness"), via the shared emitter. */
    std::string toJson() const;

    /** Write the JSON to a file. @return false on I/O error. */
    bool writeFile(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<SelfSpan> events_;
};

/**
 * RAII harness span on the global tracer. Constructing while tracing
 * is disabled records nothing (and formats nothing).
 */
class Span
{
  public:
    Span(const char *component, std::string name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *component_ = nullptr; ///< null when disarmed
    std::string name_;
    double start_us_ = 0.0;
};

} // namespace mlps::obs

#endif // MLPSIM_OBS_SPAN_H
