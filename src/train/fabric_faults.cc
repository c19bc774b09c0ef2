#include "train/fabric_faults.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "obs/registry.h"
#include "obs/span.h"
#include "sim/logger.h"

namespace mlps::train {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Degraded fabric states actually modeled (memoization misses). */
sim::Counter &
stateModels()
{
    static sim::Counter c{"fabric.state_models"};
    static auto reg = obs::MetricRegistry::global().registerCounter(
        "train.fabric.state_models", &c);
    return c;
}

/** Trace replays, counting horizon-regeneration retries. */
sim::Counter &
traceReplays()
{
    static sim::Counter c{"fabric.replays"};
    static auto reg = obs::MetricRegistry::global().registerCounter(
        "train.fabric.replays", &c);
    return c;
}

/** Canonical key of a degraded fabric state (for memoization). */
std::string
stateKey(const net::Topology &topo, double throttle)
{
    std::ostringstream os;
    for (int e = 0; e < topo.edgeCount(); ++e) {
        if (topo.linkDown(e))
            os << e << "d;";
        else if (topo.linkBandwidthScale(e) != 1.0)
            os << e << "s" << topo.linkBandwidthScale(e) << ";";
    }
    if (throttle != 1.0)
        os << "t" << throttle;
    return os.str();
}

/** Modeled progress rate and reroute count of one fabric state. */
struct StateModel {
    double rate = 1.0; ///< healthy-seconds of work per wall-second
    int reroutes = 0;
};

} // namespace

LinkFaultedTrainResult
applyLinkFaultTrace(const sys::SystemConfig &system,
                    const wl::WorkloadSpec &spec, const RunOptions &opts,
                    const fault::LinkFaultModel &faults)
{
    LinkFaultedTrainResult out;

    sys::SystemConfig healthy = system;
    healthy.topo.resetLinkState();
    out.base = Trainer(healthy).run(spec, opts);
    const double work = out.base.total_seconds;
    const double base_iter = out.base.iter.iteration_s;
    if (work <= 0.0) {
        out.expected_seconds = 0.0;
        return out;
    }

    // Memoized per-state Trainer re-runs: a flapping link revisits
    // the same degraded state many times but models it once.
    std::map<std::string, StateModel> models;
    models[""] = StateModel{1.0, 0};

    auto modelState = [&](sys::SystemConfig &scratch,
                          double throttle) -> StateModel {
        std::string key = stateKey(scratch.topo, throttle);
        auto it = models.find(key);
        if (it != models.end())
            return it->second;
        stateModels().add(1.0);
        obs::Span span("train.fabric", "model_state");
        StateModel m;
        std::vector<bool> up = scratch.topo.reachableOverUpLinks();
        if (up.empty() ||
            std::find(up.begin(), up.end(), false) != up.end()) {
            // The fault stranded part of the machine: no route, no
            // progress until the window heals.
            m.rate = 0.0;
        } else {
            TrainResult degraded = Trainer(scratch).run(spec, opts);
            double iter = degraded.iter.iteration_s;
            // A throttled GPU paces the whole data-parallel step.
            if (throttle > 0.0 && throttle < 1.0)
                iter /= throttle;
            m.rate = iter > 0.0 ? base_iter / iter : 0.0;
            m.reroutes = degraded.iter.reroutes;
        }
        models.emplace(key, m);
        return m;
    };

    // Replay, regenerating over a longer horizon whenever degradation
    // pushes completion past the trace's coverage (regeneration is
    // prefix-stable, so the replay stays deterministic).
    double horizon = std::max(2.0 * work, work + 3600.0);
    for (int attempt = 0; attempt < 24; ++attempt) {
        traceReplays().add(1.0);
        obs::Span replay_span("train.fabric",
                              "replay attempt=" + std::to_string(attempt));
        auto trace = faults.generate(horizon, healthy.topo);

        std::vector<double> bounds;
        for (const auto &ev : trace) {
            bounds.push_back(ev.start_s);
            if (ev.duration_s > 0.0)
                bounds.push_back(ev.start_s + ev.duration_s);
        }
        std::sort(bounds.begin(), bounds.end());

        out.topology_epochs = 0;
        out.max_reroutes = 0;
        out.stalls = 0;
        out.degradations = 0;

        sys::SystemConfig scratch = healthy;
        std::string prev_key;
        double t = 0.0, done = 0.0;
        StateModel cur = models[""];
        std::size_t bi = 0;
        bool finished = false;

        while (!finished) {
            double t_finish =
                cur.rate > 0.0 ? t + (work - done) / cur.rate : kInf;
            double t_bound =
                bi < bounds.size() ? std::max(bounds[bi], t) : kInf;
            if (t_finish == kInf && t_bound == kInf)
                sim::fatal("applyLinkFaultTrace: run stalls forever "
                           "(fabric never heals)");
            double t_next = std::min(t_finish, t_bound);
            done += (t_next - t) * cur.rate;
            t = t_next;
            if (t_next == t_finish && t_finish <= t_bound) {
                finished = true;
                break;
            }

            double bt = bounds[bi++];
            // Coalesce simultaneous boundaries into one state change.
            while (bi < bounds.size() && bounds[bi] == bt)
                ++bi;
            double throttle =
                fault::applyLinkFaults(scratch.topo, trace, bt);
            std::string key = stateKey(scratch.topo, throttle);
            if (key != prev_key) {
                if (!key.empty())
                    ++out.topology_epochs;
                prev_key = key;
                bool was_stalled = cur.rate == 0.0;
                cur = modelState(scratch, throttle);
                out.max_reroutes =
                    std::max(out.max_reroutes, cur.reroutes);
                if (cur.rate == 0.0 && !was_stalled)
                    ++out.stalls;
            }
        }

        if (t <= horizon) {
            out.expected_seconds = t;
            for (const auto &ev : trace) {
                if (ev.start_s < t)
                    ++out.degradations;
            }
            out.degraded_overhead_s = std::max(0.0, t - work);
            return out;
        }
        horizon *= 2.0;
    }
    sim::fatal("applyLinkFaultTrace: run never completes under this "
               "link-fault trace (MTTF too small for %g s of work?)",
               work);
}

} // namespace mlps::train
