#include "symcan/stream/trace_reader.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>
#include <utility>

#include "symcan/sim/trace_export.hpp"
#include "symcan/util/jsonl.hpp"

namespace symcan::stream {

namespace {

using jsonl::Cursor;

bool slug_to_type(const std::string& slug, TraceEventType& out) {
  for (int i = 0; i <= static_cast<int>(TraceEventType::kLoss); ++i) {
    out = static_cast<TraceEventType>(i);
    if (slug == event_type_slug(out)) return true;
  }
  return false;
}

/// The line grammar's keys; bit i of read_object's mask is kKeys[i].
constexpr std::string_view kKeys[] = {"t_ns", "type", "message", "instance"};

/// One trace line -> one event. Returns false when the line is unusable
/// (already diagnosed).
bool parse_line(std::string_view line, std::size_t line_no, TraceEvent& out, Diagnostics& diags) {
  std::string slug;
  std::int64_t t_ns = 0;
  const auto seen = jsonl::read_object(line, line_no, diags, kKeys, [&](std::size_t i, Cursor& at) {
    const char* key = kKeys[i].data();  // NUL-terminated literals
    switch (i) {
      case 0: return jsonl::parse_i64(at, line_no, key, t_ns, diags);
      case 1: return jsonl::parse_string(at, line_no, key, slug, diags);
      case 2: return jsonl::parse_string(at, line_no, key, out.message, diags);
      default: return jsonl::parse_i64(at, line_no, key, out.instance, diags);
    }
  });
  if (!seen) return false;
  if (*seen != (1u << std::size(kKeys)) - 1) {
    std::string missing;
    for (std::size_t i = 0; i < std::size(kKeys); ++i) {
      if (*seen >> i & 1) continue;
      if (!missing.empty()) missing += ", ";
      missing += kKeys[i];
    }
    diags.error(line_no, "missing key(s): " + missing);
    return false;
  }
  if (t_ns < 0) {
    diags.error(line_no, "t_ns must be non-negative");
    return false;
  }
  if (!slug_to_type(slug, out.type)) {
    diags.error(line_no, "unknown event type '" + slug + "'");
    return false;
  }
  out.time = Duration::ns(t_ns);
  return true;
}

}  // namespace

std::optional<Trace> trace_from_jsonl(const std::string& text, Diagnostics& diags) {
  diags.set_source("trace JSONL");
  Trace trace;
  std::size_t line_no = 0;
  Duration prev = Duration::zero();
  bool warned_backwards = false;
  for (std::size_t at = 0; at < text.size();) {
    ++line_no;
    const std::size_t nl = std::min(text.find('\n', at), text.size());
    std::string_view line{text.data() + at, nl - at};
    at = nl + 1;
    if (line.ends_with('\r')) line.remove_suffix(1);
    if (line.find_first_not_of(" \t") == std::string_view::npos) continue;
    if (diags.exhausted()) {
      diags.error(0, "too many problems; giving up");
      return std::nullopt;
    }
    TraceEvent e;
    if (!parse_line(line, line_no, e, diags)) continue;
    if (e.time < prev && !warned_backwards) {
      diags.warning(line_no, "timestamps run backwards (first at this line); "
                             "the stream analyzer tolerates but cannot re-order them");
      warned_backwards = true;
    }
    prev = e.time;
    trace.record(e.time, e.type, std::move(e.message), e.instance);
  }
  if (!diags.ok()) return std::nullopt;
  return trace;
}

Trace trace_from_jsonl(const std::string& text) {
  Diagnostics diags;
  auto trace = trace_from_jsonl(text, diags);
  if (!trace) {
    diags.throw_if_failed();
    return Trace{};  // Unreachable: nullopt implies a recorded error.
  }
  return std::move(*trace);
}

Trace load_trace_jsonl(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Diagnostics diags(DiagnosticPolicy::kLenient, "trace JSONL");
    diags.error(0, "cannot open '" + path + "'");
    diags.throw_if_failed();
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return trace_from_jsonl(ss.str());
}

}  // namespace symcan::stream
