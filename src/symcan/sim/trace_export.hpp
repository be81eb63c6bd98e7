#pragma once

// Simulation-trace exporters: the event log as line-delimited JSON for
// ad-hoc tooling (jq, pandas), and as chrome://tracing / Perfetto JSON
// with one track per ECU plus one for the bus — the same target format
// obs::trace_to_chrome_json uses for runtime spans, so a simulated bus
// and the tool's own execution can be inspected with one viewer.

#include <string>

#include "symcan/can/kmatrix.hpp"
#include "symcan/sim/trace.hpp"

namespace symcan {

/// The JSONL spelling of an event type ("tx_start", ...), which
/// stream::trace_from_jsonl reads back.
const char* event_type_slug(TraceEventType t);

/// One JSON object per line:
/// {"t_ns":...,"type":"tx_start","message":"...","instance":N}
/// Message names are JSON-escaped; an empty trace yields an empty string.
std::string trace_to_jsonl(const Trace& trace);

/// Chrome trace-event JSON. Transmission attempts (start to completion
/// or corruption) become complete ("ph":"X") slices on the bus track;
/// releases, losses and retransmits become instants on their sending
/// ECU's track (resolved through `km`; messages unknown to `km` land on
/// a "?" track). Timestamps are microseconds as the format requires.
std::string sim_trace_to_chrome_json(const Trace& trace, const KMatrix& km);

}  // namespace symcan
