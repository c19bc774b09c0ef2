#include "wl/import/exporter.h"

#include <sstream>
#include <vector>

#include "sim/json.h"
#include "wl/import/importer.h"
#include "wl/op.h"

namespace mlps::wl::import {

namespace {

std::string
quote(const std::string &s)
{
    return "\"" + sim::jsonEscape(s) + "\"";
}

/** One already-rendered member of an object. */
struct KV {
    std::string key;
    std::string value;
};

/**
 * Render an object from pre-rendered members. Pretty mode puts one
 * member per line at `indent` nesting levels; compact mode emits no
 * whitespace at all. Both modes emit members in the given order, so
 * the two forms differ only in whitespace.
 */
std::string
renderObject(const std::vector<KV> &kvs, bool pretty, int indent)
{
    if (kvs.empty())
        return "{}";
    std::ostringstream os;
    os << '{';
    const std::string pad((indent + 1) * 2, ' ');
    for (std::size_t i = 0; i < kvs.size(); ++i) {
        if (i)
            os << ',';
        if (pretty)
            os << '\n' << pad;
        os << quote(kvs[i].key) << (pretty ? ": " : ":")
           << kvs[i].value;
    }
    if (pretty)
        os << '\n' << std::string(indent * 2, ' ');
    os << '}';
    return os.str();
}

/** Ops are compact in both modes: one op, one line. */
std::string
renderOp(const Op &op)
{
    return "{\"name\":" + quote(op.name) +
           ",\"kind\":" + quote(toString(op.kind)) +
           ",\"flops\":" + sim::jsonDouble(op.flops) +
           ",\"bytes\":" + sim::jsonDouble(op.bytes) +
           ",\"param_bytes\":" + sim::jsonDouble(op.param_bytes) +
           ",\"activation_bytes\":" +
           sim::jsonDouble(op.activation_bytes) + "}";
}

std::string
renderOps(const OpGraph &graph, bool pretty, int indent)
{
    std::ostringstream os;
    os << '[';
    const std::string pad((indent + 1) * 2, ' ');
    const std::vector<Op> &ops = graph.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (i)
            os << ',';
        if (pretty)
            os << '\n' << pad;
        os << renderOp(ops[i]);
    }
    if (pretty)
        os << '\n' << std::string(indent * 2, ' ');
    os << ']';
    return os.str();
}

std::string
render(const WorkloadSpec &s, bool pretty)
{
    const std::vector<KV> workload = {
        {"abbrev", quote(s.abbrev)},
        {"domain", quote(s.domain)},
        {"model", quote(s.model_name)},
        {"framework", quote(s.framework)},
        {"submitter", quote(s.submitter)},
        {"suite", quote(toString(s.suite))},
        {"mode", quote(modeToken(s.mode))},
    };
    const std::vector<KV> graph = {
        {"name", quote(s.graph.name())},
        {"ops", renderOps(s.graph, pretty, 2)},
    };
    const std::vector<KV> dataset = {
        {"name", quote(s.dataset.name)},
        {"num_samples", sim::jsonDouble(s.dataset.num_samples)},
        {"raw_bytes_per_sample",
         sim::jsonDouble(s.dataset.raw_bytes_per_sample)},
        {"input_bytes_per_sample",
         sim::jsonDouble(s.dataset.input_bytes_per_sample)},
    };
    const std::vector<KV> convergence = {
        {"quality_target", quote(s.convergence.quality_target)},
        {"base_epochs", sim::jsonDouble(s.convergence.base_epochs)},
        {"reference_global_batch",
         sim::jsonDouble(s.convergence.reference_global_batch)},
        {"penalty_exponent",
         sim::jsonDouble(s.convergence.penalty_exponent)},
        {"global_batch_cap",
         sim::jsonDouble(s.convergence.global_batch_cap)},
        {"eval_overhead",
         sim::jsonDouble(s.convergence.eval_overhead)},
    };
    const std::vector<KV> host = {
        {"cpu_core_us_per_sample",
         sim::jsonDouble(s.host.cpu_core_us_per_sample)},
        {"serial_cpu_us_per_sample",
         sim::jsonDouble(s.host.serial_cpu_us_per_sample)},
        {"framework_dram_bytes",
         sim::jsonDouble(s.host.framework_dram_bytes)},
        {"per_gpu_dram_bytes",
         sim::jsonDouble(s.host.per_gpu_dram_bytes)},
        {"dataset_residency",
         sim::jsonDouble(s.host.dataset_residency)},
        {"os_baseline_cpu_pct",
         sim::jsonDouble(s.host.os_baseline_cpu_pct)},
    };
    const std::vector<KV> calibration = {
        {"per_gpu_batch", sim::jsonDouble(s.per_gpu_batch)},
        {"comm_overlap", sim::jsonDouble(s.comm_overlap)},
        {"sync_penalty_base", sim::jsonDouble(s.sync_penalty_base)},
        {"sync_penalty_log", sim::jsonDouble(s.sync_penalty_log)},
        {"tc_efficiency", sim::jsonDouble(s.tc_efficiency)},
        {"fp32_gradients", s.fp32_gradients ? "true" : "false"},
        {"staged_overlap_retention",
         sim::jsonDouble(s.staged_overlap_retention)},
        {"staged_iteration_penalty",
         sim::jsonDouble(s.staged_iteration_penalty)},
        {"iteration_overhead_us",
         sim::jsonDouble(s.iteration_overhead_us)},
        {"reference_code_derate",
         sim::jsonDouble(s.reference_code_derate)},
        {"kernel_iterations", sim::jsonDouble(s.kernel_iterations)},
        {"collective_bytes", sim::jsonDouble(s.collective_bytes)},
        {"collective_iterations",
         sim::jsonDouble(s.collective_iterations)},
    };

    std::vector<KV> doc = {
        {"format", quote(kFormatName)},
        {"workload", renderObject(workload, pretty, 1)},
        {"graph", renderObject(graph, pretty, 1)},
    };
    if (s.pipeline_stages > 0)
        doc.push_back(
            {"pipeline",
             renderObject({{"stages", sim::jsonDouble(
                                          s.pipeline_stages)}},
                          pretty, 1)});
    doc.push_back({"dataset", renderObject(dataset, pretty, 1)});
    doc.push_back(
        {"convergence", renderObject(convergence, pretty, 1)});
    doc.push_back({"host", renderObject(host, pretty, 1)});
    doc.push_back(
        {"calibration", renderObject(calibration, pretty, 1)});

    std::string out = renderObject(doc, pretty, 0);
    if (pretty)
        out += "\n";
    return out;
}

} // namespace

std::string
modeToken(RunMode mode)
{
    switch (mode) {
      case RunMode::Training: return "training";
      case RunMode::KernelLoop: return "kernel-loop";
      case RunMode::CollectiveLoop: return "collective-loop";
    }
    return "training";
}

std::string
exportWorkload(const WorkloadSpec &spec)
{
    return render(spec, true);
}

std::string
exportWorkloadLine(const WorkloadSpec &spec)
{
    return render(spec, false);
}

} // namespace mlps::wl::import
