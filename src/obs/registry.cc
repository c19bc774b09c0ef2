#include "obs/registry.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "sim/json.h"
#include "sim/logger.h"

namespace mlps::obs {

namespace {

bool
validName(const std::string &name)
{
    if (name.empty() || name.front() == '.' || name.back() == '.')
        return false;
    bool prev_dot = false;
    for (char c : name) {
        if (c == '.') {
            if (prev_dot)
                return false;
            prev_dot = true;
            continue;
        }
        prev_dot = false;
        if (!(std::islower(static_cast<unsigned char>(c)) ||
              std::isdigit(static_cast<unsigned char>(c)) || c == '_'))
            return false;
    }
    return true;
}

std::string
promName(const std::string &name)
{
    std::string out = "mlpsim_";
    for (char c : name)
        out += c == '.' ? '_' : c;
    return out;
}

} // namespace

void
MetricRegistry::Registration::release()
{
    if (registry_)
        registry_->retire(name_, id_);
    registry_ = nullptr;
    name_.clear();
    id_ = 0;
}

MetricRegistry &
MetricRegistry::global()
{
    // Leaked intentionally: function-scope statics in other modules
    // unregister during shutdown, so the registry must outlive them.
    static MetricRegistry *r = new MetricRegistry;
    return *r;
}

MetricRegistry::Registration
MetricRegistry::add(const std::string &name, Entry entry)
{
    if (!validName(name))
        sim::fatal("metric '%s': name must be dot-separated "
                   "[a-z0-9_] segments", name.c_str());
    std::lock_guard<std::mutex> lock(mu_);
    entry.id = next_id_++;
    std::uint64_t id = entry.id;
    entries_[name] = std::move(entry); // last registration wins
    return Registration(this, name, id);
}

MetricRow
MetricRegistry::readRow(const std::string &name, const Entry &e)
{
    if (e.retired)
        return e.frozen;
    MetricRow row;
    row.name = name;
    row.kind = e.kind;
    row.volatility = e.volatility;
    if (e.counter) {
        row.value = e.counter->total();
        row.events = e.counter->events();
    } else if (e.sampler) {
        row.value = e.sampler->sum();
        row.events = e.sampler->count();
        row.min = e.sampler->min();
        row.max = e.sampler->max();
        row.mean = e.sampler->mean();
    } else if (e.gauge) {
        row.value = e.gauge();
    }
    return row;
}

void
MetricRegistry::retire(const std::string &name, std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    // Only our own entry; a later registration under the same name
    // (id differs) stays.
    if (it == entries_.end() || it->second.id != id)
        return;
    // Freeze the final value instead of dropping the row: a snapshot
    // taken after the owner died (TelemetrySession::finish() runs
    // after the command's engine is gone) must still report it. The
    // owner's member order — Registration declared after the metric —
    // guarantees the source is alive here.
    Entry &e = it->second;
    e.frozen = readRow(name, e);
    e.counter = nullptr;
    e.sampler = nullptr;
    e.gauge = nullptr;
    e.retired = true;
}

MetricRegistry::Registration
MetricRegistry::registerCounter(const std::string &name,
                                const sim::Counter *c, Volatility v)
{
    Entry e;
    e.kind = "counter";
    e.volatility = v;
    e.counter = c;
    return add(name, std::move(e));
}

MetricRegistry::Registration
MetricRegistry::registerSampler(const std::string &name,
                                const sim::Sampler *s, Volatility v)
{
    Entry e;
    e.kind = "sampler";
    e.volatility = v;
    e.sampler = s;
    return add(name, std::move(e));
}

MetricRegistry::Registration
MetricRegistry::registerGauge(const std::string &name,
                              std::function<double()> fn, Volatility v)
{
    Entry e;
    e.kind = "gauge";
    e.volatility = v;
    e.gauge = std::move(fn);
    return add(name, std::move(e));
}

std::vector<MetricRow>
MetricRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<MetricRow> rows;
    rows.reserve(entries_.size());
    for (const auto &[name, e] : entries_)
        rows.push_back(readRow(name, e));
    return rows; // std::map iteration is already name-sorted
}

std::string
MetricRegistry::toPrometheus() const
{
    std::ostringstream os;
    for (const MetricRow &r : snapshot()) {
        std::string p = promName(r.name);
        if (r.kind == "counter") {
            os << "# TYPE " << p << " counter\n"
               << p << "_total " << sim::shortestDouble(r.value) << "\n"
               << p << "_events " << r.events << "\n";
        } else if (r.kind == "sampler") {
            os << "# TYPE " << p << " summary\n"
               << p << "_count " << r.events << "\n"
               << p << "_sum " << sim::shortestDouble(r.value) << "\n"
               << p << "_min " << sim::shortestDouble(r.min) << "\n"
               << p << "_max " << sim::shortestDouble(r.max) << "\n";
        } else {
            os << "# TYPE " << p << " gauge\n"
               << p << " " << sim::shortestDouble(r.value) << "\n";
        }
    }
    return os.str();
}

std::string
MetricRegistry::toJson() const
{
    auto rows = snapshot();
    auto emit = [](std::ostringstream &os, const MetricRow &r,
                   bool last) {
        os << "    {\"name\": \"" << r.name << "\", \"kind\": \""
           << r.kind << "\", \"value\": " << sim::shortestDouble(r.value)
           << ", \"events\": " << r.events;
        if (r.kind == "sampler")
            os << ", \"min\": " << sim::shortestDouble(r.min)
               << ", \"max\": " << sim::shortestDouble(r.max)
               << ", \"mean\": " << sim::shortestDouble(r.mean);
        os << "}" << (last ? "\n" : ",\n");
    };
    std::ostringstream os;
    os << "{\n  \"schema\": \"mlpsim-metrics-v1\",\n";
    for (Volatility v :
         {Volatility::Deterministic, Volatility::Volatile}) {
        os << (v == Volatility::Deterministic
                   ? "  \"deterministic\": [\n"
                   : "  \"volatile\": [\n");
        std::vector<const MetricRow *> part;
        for (const MetricRow &r : rows)
            if (r.volatility == v)
                part.push_back(&r);
        for (std::size_t i = 0; i < part.size(); ++i)
            emit(os, *part[i], i + 1 == part.size());
        os << (v == Volatility::Deterministic ? "  ],\n" : "  ]\n");
    }
    os << "}\n";
    return os.str();
}

double
MetricRegistry::value(const std::string &name, bool *found) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (found)
        *found = it != entries_.end();
    if (it == entries_.end())
        return 0.0;
    return readRow(name, it->second).value;
}

std::size_t
MetricRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t live = 0;
    for (const auto &[name, e] : entries_)
        live += e.retired ? 0 : 1;
    return live;
}

} // namespace mlps::obs
