#include "prof/sys_monitor.h"

#include <algorithm>
#include <cmath>

#include "sim/logger.h"

namespace mlps::prof {

SysMonitor::SysMonitor(std::uint64_t seed, double cadence_s)
    : rng_(seed), cadence_s_(cadence_s)
{
    if (cadence_s <= 0.0)
        sim::fatal("SysMonitor: non-positive cadence %g", cadence_s);
}

void
SysMonitor::observe(const train::TrainResult &result, double window_s)
{
    if (window_s <= 0.0)
        window_s = std::min(result.total_seconds, 120.0);
    window_s = std::max(window_s, cadence_s_);

    // Disk activity: the input pipeline re-reads the staged dataset
    // window at the training consumption rate.
    double consume_mbps = 0.0;
    if (result.iter.iteration_s > 0.0) {
        consume_mbps = result.global_batch *
                       1e-6 / result.iter.iteration_s;
    }

    for (double t = 0.0; t < window_s; t += cadence_s_) {
        SysSample s;
        s.t_s = t;
        s.cpu_util_pct = std::clamp(
            result.usage.cpu_util_pct * rng_.lognormalNoise(0.06), 0.0,
            100.0);
        s.dram_used_mb =
            result.usage.dram_footprint_mb * rng_.lognormalNoise(0.015);
        s.disk_read_mbps = consume_mbps * rng_.lognormalNoise(0.2);
        samples_.push_back(s);
        cpu_.record(s.cpu_util_pct);
        dram_.record(s.dram_used_mb);
    }
}

void
SysMonitor::reset()
{
    samples_.clear();
    cpu_.reset();
    dram_.reset();
}

} // namespace mlps::prof
