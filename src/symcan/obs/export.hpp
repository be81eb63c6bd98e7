#pragma once

// Exporters for the obs subsystem: metrics → JSON, trace → Chrome
// `chrome://tracing` / Perfetto JSON (load via chrome://tracing "Load" or
// https://ui.perfetto.dev).

#include <string>
#include <string_view>

#include "symcan/obs/metrics.hpp"
#include "symcan/obs/trace.hpp"

namespace symcan::obs {

/// JSON-escape a string body (no surrounding quotes).
std::string json_escape(const std::string& s);

/// json_escape appended to `out`; each run of plain bytes is one append.
void append_json_escaped(std::string& out, std::string_view s);
/// Append `s` as a quoted JSON string.
void append_json_quoted(std::string& out, std::string_view s);

/// Finite numbers print via %.17g round-trip; NaN/Inf degrade to null.
std::string json_number(double v);

/// {"counters":{...},"gauges":{...},"histograms":[...],"series":{...}}
std::string metrics_to_json(const MetricsRegistry& registry);

/// {"traceEvents":[...],"displayTimeUnit":"ms"} — spans as "ph":"X"
/// complete events, instants as "ph":"i".
std::string trace_to_chrome_json(const Tracer& tracer);

/// Throws std::runtime_error on I/O failure.
void write_file(const std::string& path, const std::string& contents);

}  // namespace symcan::obs
