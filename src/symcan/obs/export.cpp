#include "symcan/obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace symcan::obs {

void append_json_escaped(std::string& out, std::string_view s) {
  const char* p = s.data();
  const char* const end = p + s.size();
  while (p != end) {
    const char* const run = p;
    while (p != end && *p != '"' && *p != '\\' && static_cast<unsigned char>(*p) >= 0x20) ++p;
    out.append(run, p);
    if (p == end) break;
    const char c = *p++;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {  // the other control bytes
        constexpr char kHex[] = "0123456789abcdef";
        const auto u = static_cast<unsigned char>(c);
        const char esc[] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 0xF]};
        out.append(esc, sizeof esc);
      }
    }
  }
}

void append_json_quoted(std::string& out, std::string_view s) {
  out += '"';
  append_json_escaped(out, s);
  out += '"';
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_to_json(const MetricsRegistry& registry) {
  const RegistrySnapshot snap = registry.snapshot();
  std::string out;
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_quoted(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_quoted(out, name);
    out += ": " + json_number(value);
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"histograms\": [";
  first = true;
  for (const auto& h : snap.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"name\": ";
    append_json_quoted(out, h.name);
    out += ", \"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + json_number(h.sum);
    out += ", \"min\": " + json_number(h.min);
    out += ", \"max\": " + json_number(h.max);
    out += ", \"p50\": " + json_number(h.p50);
    out += ", \"p95\": " + json_number(h.p95);
    out += ", \"p99\": " + json_number(h.p99);
    out += ", \"buckets\": [";
    bool bfirst = true;
    for (const auto& [le, count] : h.buckets) {
      if (!bfirst) out += ", ";
      bfirst = false;
      out += "{\"le\": " + json_number(le) + ", \"count\": " + std::to_string(count) + "}";
    }
    out += "], \"overflow\": " + std::to_string(h.overflow) + "}";
  }
  out += first ? "]" : "\n  ]";

  out += ",\n  \"series\": {";
  first = true;
  for (const auto& [name, samples] : snap.series) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_quoted(out, name);
    out += ": [";
    bool sfirst = true;
    for (const auto& sample : samples) {
      out += sfirst ? "\n      {" : ",\n      {";
      sfirst = false;
      bool ffirst = true;
      for (const auto& [key, value] : sample) {
        if (!ffirst) out += ", ";
        ffirst = false;
        append_json_quoted(out, key);
        out += ": " + json_number(value);
      }
      out += "}";
    }
    out += sfirst ? "]" : "\n    ]";
  }
  out += first ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

std::string trace_to_chrome_json(const Tracer& tracer) {
  const std::vector<TraceEvent> events = tracer.collect();
  std::string out;
  out += "{\"traceEvents\": [";
  bool first = true;
  // Metadata pass: name the process and every thread that registered a
  // name, so chrome://tracing shows "symcan-worker-3" instead of a bare
  // tid.
  out += "\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1"
         ", \"args\": {\"name\": \"symcan\"}}";
  first = false;
  for (const auto& [tid, name] : tracer.thread_names()) {
    out += ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(tid) + ", \"args\": {\"name\": ";
    append_json_quoted(out, name);
    out += "}}";
  }
  for (const TraceEvent& e : events) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += "{\"name\": ";
    append_json_quoted(out, e.name);
    out += ", \"cat\": \"symcan\"";
    if (e.dur_us < 0) {
      out += ", \"ph\": \"i\", \"s\": \"t\"";
    } else {
      out += ", \"ph\": \"X\", \"dur\": " + std::to_string(e.dur_us);
    }
    out += ", \"ts\": " + std::to_string(e.start_us);
    out += ", \"pid\": 1, \"tid\": " + std::to_string(e.tid);
    if (e.flow != 0) out += ", \"args\": {\"flow\": " + std::to_string(e.flow) + "}";
    out += "}";
  }
  out += first ? "]" : "\n]";
  out += ", \"displayTimeUnit\": \"ms\"}\n";
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
