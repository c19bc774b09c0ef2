#include "obs/trace_json.h"

#include "sim/json.h"

namespace mlps::obs {

using sim::jsonEscape;

void
appendTraceEvent(std::ostream &os, const std::string &name,
                 const std::string &track, const char *cat,
                 double ts_us, double dur_us, int pid)
{
    os << "{\"name\": \"" << jsonEscape(name) << "\", \"cat\": \""
       << cat << "\", \"ph\": \"X\", \"ts\": " << ts_us
       << ", \"dur\": " << dur_us << ", \"pid\": " << pid
       << ", \"tid\": \"" << jsonEscape(track) << "\"}";
}

void
appendTraceEventTid(std::ostream &os, const std::string &name,
                    const char *cat, double ts_us, double dur_us,
                    int pid, int tid)
{
    os << "{\"name\": \"" << jsonEscape(name) << "\", \"cat\": \""
       << cat << "\", \"ph\": \"X\", \"ts\": " << ts_us
       << ", \"dur\": " << dur_us << ", \"pid\": " << pid
       << ", \"tid\": " << tid << "}";
}

void
appendProcessNameEvent(std::ostream &os, int pid,
                       const std::string &name)
{
    os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
       << ", \"args\": {\"name\": \"" << jsonEscape(name) << "\"}}";
}

void
appendThreadNameEvent(std::ostream &os, int pid, int tid,
                      const std::string &name)
{
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << pid
       << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
       << jsonEscape(name) << "\"}}";
}

void
appendThreadSortIndexEvent(std::ostream &os, int pid, int tid,
                           int sort_index)
{
    os << "{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": "
       << pid << ", \"tid\": " << tid
       << ", \"args\": {\"sort_index\": " << sort_index << "}}";
}

} // namespace mlps::obs
