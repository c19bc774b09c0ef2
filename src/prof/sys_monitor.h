/**
 * @file
 * dstat-analog system monitor.
 *
 * The paper sampled whole-host statistics (CPU utilization, memory,
 * I/O) at a fixed cadence with dstat and averaged them. SysMonitor
 * reproduces that measurement process against a modeled run: it draws
 * per-second samples around the steady-state values (log-normal jitter
 * mimicking scheduler noise) and reports the same averages dstat's CSV
 * export would yield.
 */

#ifndef MLPSIM_PROF_SYS_MONITOR_H
#define MLPSIM_PROF_SYS_MONITOR_H

#include <vector>

#include "sim/counters.h"
#include "sim/rng.h"
#include "train/training_job.h"

namespace mlps::prof {

/** One dstat-style host sample. */
struct SysSample {
    double t_s = 0.0;
    double cpu_util_pct = 0.0;
    double dram_used_mb = 0.0;
    double disk_read_mbps = 0.0;
};

/** Whole-host statistics sampler. */
class SysMonitor
{
  public:
    /**
     * @param seed  deterministic seed for the sampling jitter.
     * @param cadence_s sampling period (dstat default: 1 s).
     */
    explicit SysMonitor(std::uint64_t seed = 1, double cadence_s = 1.0);

    /**
     * Sample a run for a window of simulated seconds (defaults to the
     * smaller of the run length and 120 s, like a profiling window).
     */
    void observe(const train::TrainResult &result, double window_s = 0.0);

    const std::vector<SysSample> &samples() const { return samples_; }

    /** Average CPU utilization over the window, percent. */
    double avgCpuUtil() const { return cpu_.mean(); }
    /** Average DRAM footprint, MB. */
    double avgDramMb() const { return dram_.mean(); }

    /** Clear collected samples. */
    void reset();

  private:
    sim::Rng rng_;
    double cadence_s_;
    std::vector<SysSample> samples_;
    sim::Sampler cpu_{"cpu", false};
    sim::Sampler dram_{"dram", false};
};

} // namespace mlps::prof

#endif // MLPSIM_PROF_SYS_MONITOR_H
