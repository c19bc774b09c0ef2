/**
 * @file
 * Exporter of `mlpsim-graph-v1` workload documents — the inverse of
 * wl/import/importer.h.
 *
 * Rendering is canonical: fixed key order (the importer's vocabulary
 * order), %.17g doubles (bit-exact round trip), every stanza always
 * emitted except the advisory "pipeline" hint (only when set). That
 * makes export deterministic byte-for-byte, so
 *
 *   export(import(export(spec))) == export(spec)
 *
 * holds exactly, and an exported built-in re-imports to the same
 * exec::Fingerprint — the round-trip identity the importer tests and
 * the CI `workload-ingest` job gate on.
 */

#ifndef MLPSIM_WL_IMPORT_EXPORTER_H
#define MLPSIM_WL_IMPORT_EXPORTER_H

#include <string>

#include "wl/workload.h"

namespace mlps::wl::import {

/** The document's "mode" token: "training", "kernel-loop" or
 *  "collective-loop". */
std::string modeToken(RunMode mode);

/**
 * Pretty document: two-space indent, one op per line, trailing
 * newline. The file form written by `mlpsim workload export`.
 */
std::string exportWorkload(const WorkloadSpec &spec);

/**
 * Compact one-line document (no newline) with byte-identical content
 * to the pretty form modulo whitespace — the shape embedded as
 * "workload_graph" inside a serve request line.
 */
std::string exportWorkloadLine(const WorkloadSpec &spec);

} // namespace mlps::wl::import

#endif // MLPSIM_WL_IMPORT_EXPORTER_H
