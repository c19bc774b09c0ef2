/**
 * @file
 * The benchmark's workloads and its per-layer suite. Each fills a
 * Result; see perfbench/README.md for what every metric means.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>

#include "exec/executor.h"
#include "harness.h"

namespace perfbench {

/** Options of every engine the benchmark builds. */
mlps::exec::ExecOptions engineOptions(int jobs,
                                      const std::string &cache_dir = "");

/** The full study report: cold pass, then a journal-warm pass. */
void runReport(const Options &o, Result &r);

/** Seeded pod-scale what-if points, explained cold then warm. */
void runPodExplain(const Options &o, Result &r);

/**
 * A short seeded request stream into one ServeCore, for the serve/
 * layer metrics that need live traffic (server-side p50, queue wait,
 * generator lag) and the self-time split of warm hits.
 */
void runServeLayer(const Options &o, Result &r);

/** Per-layer timings of the public layer entry points (traced runs). */
void runLayers(const Options &o, Result &r);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
