#pragma once

// Exporters for the obs subsystem: metrics → JSON, trace → Chrome
// `chrome://tracing` / Perfetto JSON (load via chrome://tracing "Load" or
// https://ui.perfetto.dev). Both write through obs::JsonOut's spaced
// layout (obs/json.hpp).

#include <string>

#include "symcan/obs/metrics.hpp"
#include "symcan/obs/trace.hpp"

namespace symcan::obs {

/// {"counters":{...},"gauges":{...},"histograms":[...],"series":{...}}
std::string metrics_to_json(const MetricsRegistry& registry);

/// {"traceEvents":[...],"displayTimeUnit":"ms"} — spans as "ph":"X"
/// complete events, instants as "ph":"i".
std::string trace_to_chrome_json(const Tracer& tracer);

/// Throws std::runtime_error on I/O failure.
void write_file(const std::string& path, const std::string& contents);

}  // namespace symcan::obs
