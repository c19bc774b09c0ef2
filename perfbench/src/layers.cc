/**
 * @file
 * Per-layer suite of traced runs: each metric times one public entry
 * point of one layer on fixed inputs (the pod is pod(C4140 (M),16x8),
 * the box point ResNet-50 on a DSS 8440 at 8 GPUs), so the numbers do
 * not depend on the workload seed. Medians over repetitions.
 */

#include <filesystem>

#include "core/report.h"
#include "exec/engine.h"
#include "exec/journal.h"
#include "models/zoo.h"
#include "net/allreduce.h"
#include "net/transfer.h"
#include "obs/attrib/attribution.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sys/machines.h"
#include "train/trainer.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace mlps;

namespace {

constexpr double kBudgetMs = 150.0;

exec::RunRequest
request(const sys::SystemConfig &system, int gpus)
{
    exec::RunRequest req;
    req.system = system;
    req.workload = *models::findWorkload("MLPf_Res50_MX");
    req.options.num_gpus = gpus;
    return req;
}

void
netLayer(Result &r, const sys::SystemConfig &pod)
{
    const std::vector<net::NodeId> gpus = pod.gpuSubset(512);
    const net::NodeId from = gpus.front(), to = gpus.back();

    std::vector<double> cold, warm;
    for (int i = 0; i < 20; ++i) {
        net::Topology topo = pod.topo; // a copy starts with no routes
        Clock::time_point t0 = Clock::now();
        const bool routed = topo.route(from, to).has_value();
        cold.push_back(msSince(t0));
        t0 = Clock::now();
        const bool again = topo.route(from, to).has_value();
        warm.push_back(msSince(t0));
        if (!routed || !again)
            r.fail("net: no route across the pod");
    }
    r.metric("net.route_cold_us", "us", median(cold) * 1e3);
    r.metric("net.route_warm_us", "us", median(warm) * 1e3);

    for (int flows : {8, 64, 512}) {
        const double ms = medianMs(
            [&] {
                net::FlowSimulator sim(pod.topo);
                for (int f = 0; f < flows; ++f)
                    sim.addFlow(gpus[static_cast<std::size_t>(f * 7 % 512)],
                                gpus[static_cast<std::size_t>(
                                    (f * 7 + 256 + f % 5) % 512)],
                                64e6);
                sim.run();
            },
            3, kBudgetMs);
        r.metric("net.flow" + std::to_string(flows) + "_us", "us", ms * 1e3);
    }
    for (int n : {64, 512}) {
        const std::vector<net::NodeId> set = pod.gpuSubset(n);
        const double ms = medianMs(
            [&] { net::autoHierarchicalAllReduce(pod.topo, set, 100e6); },
            3, kBudgetMs);
        r.metric("net.allreduce" + std::to_string(n) + "_us", "us", ms * 1e3);
    }
}

void
trainAttribLayers(Result &r, const sys::SystemConfig &box,
                  const sys::SystemConfig &pod)
{
    const exec::RunRequest box_req = request(box, 8);
    const exec::RunRequest pod_req = request(pod, 512);
    const train::Trainer box_trainer(box), pod_trainer(pod);
    train::TrainResult box_res, pod_res;

    r.metric("train.run_box_us", "us",
             1e3 * medianMs([&] {
                 box_res = box_trainer.run(box_req.workload, box_req.options);
             }, 5, kBudgetMs));
    r.metric("train.run_pod512_ms", "ms", medianMs([&] {
                 pod_res = pod_trainer.run(pod_req.workload, pod_req.options);
             }, 3, kBudgetMs));
    r.metric("train.gradient_allreduce_pod512_ms", "ms", medianMs([&] {
                 train::gradientAllReduce(pod, pod_req.workload,
                                          pod_req.options.precision, 512);
             }, 3, kBudgetMs));

    obs::attrib::Attribution pod_attr;
    r.metric("attrib.box_us", "us", 1e3 * medianMs([&] {
                 obs::attrib::attributeRun(box_req, box_res);
             }, 5, kBudgetMs));
    r.metric("attrib.pod512_ms", "ms", medianMs([&] {
                 pod_attr = obs::attrib::attributeRun(pod_req, pod_res);
             }, 3, kBudgetMs));
    r.metric("attrib.json_us", "us", 1e3 * medianMs([&] {
                 obs::attrib::toJson(pod_attr);
             }, 5, kBudgetMs));
}

void
execLayer(Result &r, const Options &o, const sys::SystemConfig &box,
          const sys::SystemConfig &pod)
{
    const exec::RunRequest box_req = request(box, 8);
    const exec::RunRequest pod_req = request(pod, 512);
    r.metric("exec.fingerprint_box_us", "us",
             1e3 * medianMs([&] { box_req.key(); }, 5, kBudgetMs));
    r.metric("exec.fingerprint_pod_us", "us",
             1e3 * medianMs([&] { pod_req.key(); }, 5, kBudgetMs));

    exec::Engine engine(engineOptions(o.jobs));
    const exec::RunResult result = engine.runOne(box_req);
    r.metric("exec.hit_us", "us",
             1e3 * medianMs([&] { engine.runOne(box_req); }, 5, kBudgetMs));

    const exec::Fingerprint key = box_req.key();
    std::string payload;
    r.metric("exec.journal_encode_us", "us", 1e3 * medianMs([&] {
                 payload = exec::encodeJournalPayload(key, result);
             }, 5, kBudgetMs));
    r.metric("exec.journal_decode_us", "us", 1e3 * medianMs([&] {
                 exec::Fingerprint k;
                 exec::RunResult back;
                 if (!exec::decodeJournalPayload(payload, &k, &back))
                     r.fail("exec: journal payload did not decode");
             }, 5, kBudgetMs));
}

/** The cold report into a fresh journal directory. @return ms. */
double
coldReportMs(int jobs, const std::string &dir)
{
    fs::remove_all(dir);
    exec::Engine engine(engineOptions(jobs, dir));
    const Clock::time_point t0 = Clock::now();
    core::generateStudyReport({}, engine);
    return msSince(t0);
}

/**
 * Report-driven metrics: parallel efficiency of the cold report,
 * journal replay cost per record, and each report section alone on
 * a warm engine.
 */
void
reportLayers(Result &r, const Options &o)
{
    const std::string dir = o.work_dir + "/layers-journal";
    const std::string empty_dir = o.work_dir + "/layers-empty";

    // The same journaled cold pass at jobs 1 and at jobs nproc.
    std::vector<double> serial_ms, parallel_ms;
    for (int rep = 0; rep < 3; ++rep) {
        serial_ms.push_back(coldReportMs(1, dir));
        parallel_ms.push_back(coldReportMs(o.jobs, dir));
    }
    r.metric("exec.parallel_efficiency", "ratio",
             median(serial_ms) / (o.jobs * median(parallel_ms)));

    fs::remove_all(empty_dir);
    const double empty_ms = medianMs(
        [&] { exec::Engine e(engineOptions(o.jobs, empty_dir)); }, 5, kBudgetMs);
    const double full_ms = medianMs(
        [&] { exec::Engine e(engineOptions(o.jobs, dir)); }, 5, kBudgetMs);
    exec::Engine warm(engineOptions(o.jobs, dir));
    const std::uint64_t records = warm.stats().journal_loaded;
    r.metric("exec.journal_loaded", "count", static_cast<double>(records));
    r.metric("exec.journal_replay_us_per_record", "us",
             1e3 * (full_ms - empty_ms) / static_cast<double>(records));
    using Flag = bool core::ReportOptions::*;
    static const std::pair<const char *, Flag> kSections[] = {
        {"scaling", &core::ReportOptions::include_scaling},
        {"mixed_precision", &core::ReportOptions::include_mixed_precision},
        {"topology", &core::ReportOptions::include_topology},
        {"scheduling", &core::ReportOptions::include_scheduling},
        {"characterization", &core::ReportOptions::include_characterization},
        {"faults", &core::ReportOptions::include_faults},
        {"degraded_fabric", &core::ReportOptions::include_degraded_fabric},
        {"attribution", &core::ReportOptions::include_attribution},
        {"pod_scale", &core::ReportOptions::include_pod_scale},
    };
    for (const auto &[name, flag] : kSections) {
        core::ReportOptions only;
        for (const auto &[other, f] : kSections)
            only.*f = false;
        only.*flag = true;
        r.metric(std::string("core.section.") + name + "_ms", "ms",
                 medianMs([&] { core::generateStudyReport(only, warm); }, 3,
                          kBudgetMs));
    }
    if (warm.stats().unique_runs != 0)
        r.fail("core: a section simulated on the warm engine");
    fs::remove_all(dir);
    fs::remove_all(empty_dir);
}

void
serveLayer(Result &r, const Options &o, const sys::SystemConfig &box)
{
    const std::string run_line =
        "{\"type\":\"run\",\"id\":\"x\",\"workload\":\"MLPf_Res50_MX\","
        "\"system\":\"DSS 8440\",\"gpus\":8}";
    serve::Catalog catalog;
    r.metric("serve.parse_us", "us", 1e3 * medianMs([&] {
                 serve::ParsedRequest req;
                 std::string error;
                 if (!serve::parseRequest(run_line, catalog, &req, &error))
                     r.fail("serve: " + error);
             }, 5, kBudgetMs));

    exec::Engine engine(engineOptions(1));
    const exec::RunResult result = engine.runOne(request(box, 8));
    r.metric("serve.encode_us", "us", 1e3 * medianMs([&] {
                 serve::encodeResult("x", result);
             }, 5, kBudgetMs));

    serve::ServeConfig cfg;
    cfg.exec = engineOptions(o.jobs);
    cfg.admission.rate = 1e9;
    cfg.admission.burst = 1e9;
    std::uint64_t answered = 0;
    serve::ServeCore core(cfg,
                          [&](const std::string &, const std::string &) {
                              ++answered;
                          });
    core.clientConnected("c0");
    core.handleLine("c0", run_line, 0.0);
    while (core.hasPending())
        core.dispatchBatch();

    // Batches of 32 warm hits: admission per line, dispatch per run.
    constexpr int kBatch = 32;
    std::vector<double> handle_ms, dispatch_ms;
    const Clock::time_point start = Clock::now();
    while (handle_ms.size() < 5 || msSince(start) < kBudgetMs) {
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kBatch; ++i)
            core.handleLine("c0", run_line, 0.0);
        handle_ms.push_back(msSince(t0) / kBatch);
        t0 = Clock::now();
        while (core.hasPending())
            core.dispatchBatch();
        dispatch_ms.push_back(msSince(t0) / kBatch);
    }
    r.metric("serve.handle_line_us", "us", 1e3 * median(handle_ms));
    r.metric("serve.dispatch_us_per_run", "us", 1e3 * median(dispatch_ms));
    r.metric("serve.metrics_verb_us", "us", 1e3 * medianMs([&] {
                 core.handleLine("c0", "{\"type\":\"metrics\",\"id\":\"m\"}",
                                 0.0);
             }, 5, kBudgetMs));
    if (core.engine().stats().unique_runs != 1)
        r.fail("serve: warm hits simulated");
}

} // namespace

void
runLayers(const Options &o, Result &r)
{
    sys::SystemConfig pod;
    std::string error;
    r.metric("sys.pod_build_ms", "ms", medianMs([&] {
                 if (!sys::systemFromSpec("pod(C4140 (M),16x8)", &pod, &error))
                     throw std::runtime_error(error);
             }, 3, kBudgetMs));
    const sys::SystemConfig box = sys::dss8440();

    netLayer(r, pod);
    trainAttribLayers(r, box, pod);
    execLayer(r, o, box, pod);
    reportLayers(r, o);
    serveLayer(r, o, box);
    runServeLayer(o, r);
}

} // namespace perfbench
