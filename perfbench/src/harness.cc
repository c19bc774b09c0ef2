#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/span.h"
#include "sim/json.h"

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Summary
summarize(const std::vector<double> &samples, std::size_t groups)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    s.p50 = median(samples);
    groups = std::clamp<std::size_t>(groups, 1, s.n);
    const std::size_t size = s.n / groups;
    // In a group of `size`, the highest percentile with ten samples
    // beyond it is the eleventh-largest sample.
    const std::size_t beyond = std::min<std::size_t>(10, size - 1);
    std::vector<double> tails;
    for (std::size_t g = 0; g < groups; ++g) {
        std::vector<double> part(samples.begin() + g * size,
                                 samples.begin() + (g + 1) * size);
        std::nth_element(part.begin(), part.end() - 1 - beyond, part.end());
        tails.push_back(part[size - 1 - beyond]);
    }
    s.tail = median(std::move(tails));
    s.tail_rank = 100.0 * static_cast<double>(size - beyond) /
                  static_cast<double>(size);
    s.group = size;
    return s;
}

void
Digest::add(const std::string &bytes)
{
    for (unsigned char c : bytes) {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }
}

std::string
Digest::hex() const
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

double
medianMs(const std::function<void()> &fn, int min_reps, double budget_ms)
{
    std::vector<double> ms;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(ms.size()) < min_reps ||
           msSince(start) < budget_ms) {
        const Clock::time_point t0 = Clock::now();
        fn();
        ms.push_back(msSince(t0));
    }
    return median(std::move(ms));
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---- tracing ---------------------------------------------------------

const char *
layerName(Layer l)
{
    switch (l) {
    case Layer::Simulate: return "simulate";
    case Layer::Exec: return "exec";
    case Layer::Attrib: return "attrib";
    case Layer::Core: return "core";
    case Layer::Serve: return "serve";
    case Layer::Bench: return "bench";
    }
    return "bench";
}

namespace {

/**
 * Layer of a program harness span. Per-point evaluations are the
 * simulation proper (train/ over net/); the report's attribution
 * section is attribution plus its table rendering.
 */
Layer
layerOfHarnessSpan(const std::string &component, const std::string &name)
{
    if (component.rfind("exec.engine.evaluate", 0) == 0 ||
        component.rfind("train.", 0) == 0)
        return Layer::Simulate;
    if (component.rfind("exec.", 0) == 0)
        return Layer::Exec;
    if (component == "phase" && name == "report/attribution")
        return Layer::Attrib;
    return Layer::Core;
}

} // namespace

Tracer &
Tracer::get()
{
    static Tracer t;
    return t;
}

void
Tracer::setEnabled(bool on)
{
    enabled_ = on;
    mlps::obs::SelfTracer::global().setEnabled(on);
}

double
Tracer::nowUs() const
{
    return mlps::obs::SelfTracer::global().nowUs();
}

Tracer::Scope::Scope(Layer layer, const char *name, std::uint64_t request)
{
    Tracer &t = Tracer::get();
    if (!t.enabled_)
        return;
    TraceSpan s;
    s.name = name;
    s.layer = layer;
    s.start_us = t.nowUs();
    s.parent = t.open_;
    s.request = request;
    index_ = static_cast<int>(t.spans_.size());
    t.spans_.push_back(std::move(s));
    t.open_ = index_;
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    Tracer &t = Tracer::get();
    t.spans_[static_cast<std::size_t>(index_)].end_us = t.nowUs();
    t.open_ = t.spans_[static_cast<std::size_t>(index_)].parent;
}

void
Tracer::collect()
{
    auto &self = mlps::obs::SelfTracer::global();
    for (const mlps::obs::SelfSpan &e : self.events()) {
        TraceSpan s;
        const std::size_t slash = e.track.find("/t");
        const std::string component = e.track.substr(0, slash);
        if (slash != std::string::npos)
            s.thread = std::atoi(e.track.c_str() + slash + 2);
        s.name = component + ":" + e.name;
        s.layer = layerOfHarnessSpan(component, e.name);
        s.start_us = e.start_us;
        s.end_us = e.start_us + e.duration_us;
        spans_.push_back(std::move(s));
    }
    self.clear();
}

std::vector<double>
Tracer::selfTimeByLayer(double from_us, double to_us) const
{
    // Nest by time containment per thread: sort by start, longer
    // first on ties, and keep a stack of open spans.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].start_us >= from_us && spans_[i].end_us <= to_us)
            order.push_back(i);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         const TraceSpan &x = spans_[a], &y = spans_[b];
                         if (x.thread != y.thread)
                             return x.thread < y.thread;
                         if (x.start_us != y.start_us)
                             return x.start_us < y.start_us;
                         return x.end_us > y.end_us;
                     });
    std::vector<double> self(spans_.size(), 0.0);
    std::vector<std::size_t> stack;
    int thread = -1;
    for (std::size_t i : order) {
        const TraceSpan &s = spans_[i];
        if (s.thread != thread) {
            stack.clear();
            thread = s.thread;
        }
        while (!stack.empty() && spans_[stack.back()].end_us <= s.start_us)
            stack.pop_back();
        const double dur = s.end_us - s.start_us;
        self[i] = dur;
        if (!stack.empty())
            self[stack.back()] -= dur;
        stack.push_back(i);
    }
    std::vector<double> by_layer(kNumLayers, 0.0);
    for (std::size_t i : order)
        by_layer[static_cast<int>(spans_[i].layer)] +=
            std::max(0.0, self[i]);
    return by_layer;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const TraceSpan &s = spans_[i];
        out << "  {\"name\":\"" << mlps::sim::jsonEscape(s.name)
            << "\",\"layer\":\"" << layerName(s.layer)
            << "\",\"thread\":" << s.thread
            << ",\"start_us\":" << mlps::sim::jsonDouble(s.start_us)
            << ",\"end_us\":" << mlps::sim::jsonDouble(s.end_us)
            << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
