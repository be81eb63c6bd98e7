#include "symcan/sim/trace_stats.hpp"

#include <algorithm>
#include <cinttypes>
#include <utility>

#include "symcan/obs/export.hpp"
#include "symcan/stream/analyzer.hpp"
#include "symcan/util/table.hpp"

namespace symcan {

const MessageTraceStats* TraceStats::find(const std::string& name) const {
  for (const auto& m : messages)
    if (m.name == name) return &m;
  return nullptr;
}

TraceStats compute_trace_stats(const Trace& trace, Duration span, Duration window) {
  TraceStats stats;
  stats.span = span;

  // Every per-message number is the stream analyzer's fold of the trace.
  stream::StreamAnalyzer analyzer;
  analyzer.ingest(trace);
  for (stream::MessageStreamStats& m : analyzer.stats().messages) {
    MessageTraceStats t;
    t.name = std::move(m.name);
    t.releases = m.releases;
    t.completions = m.completions;
    t.errors = m.errors;
    t.retransmits = m.retransmits;
    t.losses = m.losses;
    t.observed_max = m.latency_max;
    t.observed_p99 = Duration::ns(static_cast<std::int64_t>(m.latency_us.p99 * 1000.0 + 0.5));
    t.latency_us = std::move(m.latency_us);
    t.observed_min = m.latency_min;
    t.latency_total = m.latency_total;
    t.latency_samples = m.latency_samples;
    t.arbitration_wait_total = m.arbitration_wait_total;
    t.arbitration_wait_max = m.arbitration_wait_max;
    t.retransmit_delay_total = m.retransmit_delay_total;
    stats.messages.push_back(std::move(t));
  }

  // Bus busy intervals: transmission start to completion or corruption.
  // The bus is serial, so at most one interval is open at a time.
  std::vector<std::pair<Duration, Duration>> busy;
  Duration open_start = Duration::zero();
  bool open = false;
  for (const TraceEvent& e : trace.events()) {
    if (e.type == TraceEventType::kTxStart) {
      open_start = e.time;
      open = true;
    } else if (e.type == TraceEventType::kTxEnd || e.type == TraceEventType::kError) {
      if (open) busy.emplace_back(open_start, e.time);
      open = false;
    }
  }
  // A transmission still on the wire when the trace ends counts as busy
  // up to the span boundary.
  if (open && span > open_start) busy.emplace_back(open_start, span);

  // Utilization. Guard every divisor: an empty trace, a zero span, or a
  // non-positive window must all degrade to "no windows", never to a
  // division by zero.
  Duration total_busy = Duration::zero();
  for (const auto& [b, e] : busy) total_busy += min(e, span) - min(b, span);
  if (span > Duration::zero())
    stats.average_utilization =
        static_cast<double>(total_busy.count_ns()) / static_cast<double>(span.count_ns());

  if (span > Duration::zero() && window > Duration::zero()) {
    const Duration step = window.count_ns() >= 2 ? Duration::ns(window.count_ns() / 2) : window;
    std::size_t lo = 0;  // First busy interval that can still overlap.
    for (Duration t = Duration::zero(); t < span; t += step) {
      const Duration end = min(t + window, span);
      while (lo < busy.size() && busy[lo].second <= t) ++lo;
      Duration overlap = Duration::zero();
      for (std::size_t i = lo; i < busy.size() && busy[i].first < end; ++i)
        overlap += min(busy[i].second, end) - max(busy[i].first, t);
      UtilizationWindow uw;
      uw.start = t;
      uw.end = end;
      uw.utilization =
          static_cast<double>(overlap.count_ns()) / static_cast<double>((end - t).count_ns());
      stats.peak_utilization = std::max(stats.peak_utilization, uw.utilization);
      stats.utilization.push_back(uw);
    }
  }
  return stats;
}

std::string trace_stats_to_text(const TraceStats& stats) {
  std::string out;
  appendf(out, "trace span %s, bus utilization avg %.1f%% peak %.1f%% (%zu windows)\n",
          to_string(stats.span).c_str(), stats.average_utilization * 100.0,
          stats.peak_utilization * 100.0, stats.utilization.size());
  appendf(out, "%-20s %8s %8s %6s %6s %6s %12s %12s %12s\n", "message", "released", "complete",
          "err", "retx", "lost", "max latency", "p99", "max arb wait");
  for (const auto& m : stats.messages) {
    appendf(out, "%-20s %8" PRId64 " %8" PRId64 " %6" PRId64 " %6" PRId64 " %6" PRId64
                 " %12s %12s %12s\n",
            m.name.c_str(), m.releases, m.completions, m.errors, m.retransmits, m.losses,
            to_string(m.observed_max).c_str(), to_string(m.observed_p99).c_str(),
            to_string(m.arbitration_wait_max).c_str());
  }
  return out;
}

std::string trace_stats_to_json(const TraceStats& stats) {
  std::string out = "{";
  appendf(out, "\"span_ns\":%" PRId64 ",", stats.span.count_ns());
  out += "\"average_utilization\":" + obs::json_number(stats.average_utilization) + ",";
  out += "\"peak_utilization\":" + obs::json_number(stats.peak_utilization) + ",";
  out += "\"messages\":[";
  for (std::size_t i = 0; i < stats.messages.size(); ++i) {
    const MessageTraceStats& m = stats.messages[i];
    if (i) out += ",";
    out += "{";
    appendf(out, "\"name\":\"%s\",", obs::json_escape(m.name).c_str());
    appendf(out, "\"releases\":%" PRId64 ",", m.releases);
    appendf(out, "\"completions\":%" PRId64 ",", m.completions);
    appendf(out, "\"errors\":%" PRId64 ",", m.errors);
    appendf(out, "\"retransmits\":%" PRId64 ",", m.retransmits);
    appendf(out, "\"losses\":%" PRId64 ",", m.losses);
    appendf(out, "\"observed_max_ns\":%" PRId64 ",", m.observed_max.count_ns());
    appendf(out, "\"observed_min_ns\":%" PRId64 ",",
            m.latency_samples > 0 ? m.observed_min.count_ns() : 0);
    appendf(out, "\"latency_mean_ns\":%" PRId64 ",", m.latency_mean().count_ns());
    appendf(out, "\"latency_samples\":%" PRId64 ",", m.latency_samples);
    appendf(out, "\"observed_p99_ns\":%" PRId64 ",", m.observed_p99.count_ns());
    appendf(out, "\"arbitration_wait_max_ns\":%" PRId64 ",", m.arbitration_wait_max.count_ns());
    appendf(out, "\"arbitration_wait_total_ns\":%" PRId64 ",", m.arbitration_wait_total.count_ns());
    appendf(out, "\"retransmit_delay_total_ns\":%" PRId64 ",", m.retransmit_delay_total.count_ns());
    out += "\"latency_us\":{";
    out += "\"count\":";
    appendf(out, "%" PRId64 ",", m.latency_us.count);
    out += "\"sum\":" + obs::json_number(m.latency_us.sum) + ",";
    out += "\"min\":" + obs::json_number(m.latency_us.min) + ",";
    out += "\"max\":" + obs::json_number(m.latency_us.max) + ",";
    out += "\"p50\":" + obs::json_number(m.latency_us.p50) + ",";
    out += "\"p95\":" + obs::json_number(m.latency_us.p95) + ",";
    out += "\"p99\":" + obs::json_number(m.latency_us.p99) + ",";
    out += "\"buckets\":[";
    for (std::size_t j = 0; j < m.latency_us.buckets.size(); ++j) {
      if (j) out += ",";
      out += "[" + obs::json_number(m.latency_us.buckets[j].first) + ",";
      appendf(out, "%" PRId64 "]", m.latency_us.buckets[j].second);
    }
    out += "],";
    appendf(out, "\"overflow\":%" PRId64 "}}", m.latency_us.overflow);
  }
  out += "],\"utilization\":[";
  for (std::size_t i = 0; i < stats.utilization.size(); ++i) {
    const UtilizationWindow& w = stats.utilization[i];
    if (i) out += ",";
    appendf(out, "{\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 ",\"utilization\":%s}",
            w.start.count_ns(), w.end.count_ns(), obs::json_number(w.utilization).c_str());
  }
  out += "]}";
  return out;
}

}  // namespace symcan
