/**
 * @file
 * Shared Chrome-trace JSON emitter.
 *
 * One escaper and one complete-event serializer feed both trace
 * exports in the tree: the *modeled* timeline (prof::TraceBuilder —
 * what the simulated run did) and the *harness* self-trace
 * (obs::SelfTracer — what the simulator process did). Keeping them on
 * a single code path means an escaping fix, or a viewer-compatibility
 * tweak, can never drift between the two. Strings are escaped by
 * sim::jsonEscape, like every other JSON emitter in the tree.
 */

#ifndef MLPSIM_OBS_TRACE_JSON_H
#define MLPSIM_OBS_TRACE_JSON_H

#include <ostream>
#include <string>

namespace mlps::obs {

/**
 * Append one Chrome complete ("X") trace event object, no trailing
 * separator. `cat` distinguishes model traces ("model") from the
 * harness self-trace ("harness"). The track name is written as a
 * string tid — viewer-compatible, but lanes sort lexically.
 */
void appendTraceEvent(std::ostream &os, const std::string &name,
                      const std::string &track, const char *cat,
                      double ts_us, double dur_us, int pid = 1);

/**
 * Append one complete ("X") event with a numeric thread id. Pair
 * with appendThreadNameEvent so the viewer still shows the track
 * name; numeric tids are what lets Perfetto honor sort indices.
 */
void appendTraceEventTid(std::ostream &os, const std::string &name,
                         const char *cat, double ts_us, double dur_us,
                         int pid, int tid);

/**
 * Perfetto/Chrome metadata ("M") events: name a process, name a
 * thread (track), or pin a track's position in the viewer. Emitted
 * once per pid/tid at the head of a trace.
 */
void appendProcessNameEvent(std::ostream &os, int pid,
                            const std::string &name);
void appendThreadNameEvent(std::ostream &os, int pid, int tid,
                           const std::string &name);
void appendThreadSortIndexEvent(std::ostream &os, int pid, int tid,
                                int sort_index);

} // namespace mlps::obs

#endif // MLPSIM_OBS_TRACE_JSON_H
