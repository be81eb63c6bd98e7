#include "symcan/obs/export.hpp"

#include <fstream>
#include <stdexcept>

#include "symcan/obs/json.hpp"

namespace symcan::obs {

std::string metrics_to_json(const MetricsRegistry& registry) {
  const RegistrySnapshot snap = registry.snapshot();
  std::string out;
  JsonOut w{out, JsonOut::Layout::kSpaced};
  w.begin_object(true).key("counters").begin_object(true);
  for (const auto& [name, value] : snap.counters) w.field(name, value);
  w.end_object().key("gauges").begin_object(true);
  for (const auto& [name, value] : snap.gauges) w.field(name, value);
  w.end_object().key("histograms").begin_array(true);
  for (const auto& h : snap.histograms) {
    w.begin_object().field("name", h.name).field("count", h.count).field("sum", h.sum);
    w.field("min", h.min).field("max", h.max);
    w.field("p50", h.p50).field("p95", h.p95).field("p99", h.p99);
    w.key("buckets").begin_array();
    for (const auto& [le, count] : h.buckets)
      w.begin_object().field("le", le).field("count", count).end_object();
    w.end_array().field("overflow", h.overflow).end_object();
  }
  w.end_array().key("series").begin_object(true);
  for (const auto& [name, samples] : snap.series) {
    w.key(name).begin_array(true);
    for (const auto& sample : samples) {
      w.begin_object();
      for (const auto& [key, value] : sample) w.field(key, value);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object().end_object().end_line();
  return out;
}

std::string trace_to_chrome_json(const Tracer& tracer) {
  const std::vector<TraceEvent> events = tracer.collect();
  std::string out;
  JsonOut w{out, JsonOut::Layout::kSpaced};
  w.begin_object().key("traceEvents").begin_array(true);
  // Metadata: name the process and every thread that registered a name,
  // so chrome://tracing shows "symcan-worker-3" instead of a bare tid.
  w.begin_object().field("name", "process_name").field("ph", "M").field("pid", 1);
  w.key("args").begin_object().field("name", "symcan").end_object().end_object();
  for (const auto& [tid, name] : tracer.thread_names()) {
    w.begin_object().field("name", "thread_name").field("ph", "M").field("pid", 1);
    w.field("tid", tid).key("args").begin_object().field("name", name).end_object().end_object();
  }
  for (const TraceEvent& e : events) {
    w.begin_object().field("name", e.name).field("cat", "symcan");
    if (e.dur_us < 0)
      w.field("ph", "i").field("s", "t");
    else
      w.field("ph", "X").field("dur", e.dur_us);
    w.field("ts", e.start_us).field("pid", 1).field("tid", e.tid);
    if (e.flow != 0) w.key("args").begin_object().field("flow", e.flow).end_object();
    w.end_object();
  }
  w.end_array().field("displayTimeUnit", "ms").end_object().end_line();
  return out;
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream f{path, std::ios::binary | std::ios::trunc};
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  f.flush();
  if (!f) throw std::runtime_error("write failed: " + path);
}

}  // namespace symcan::obs
