#pragma once

// Post-hoc analytics over a recorded simulation Trace — the "what did
// the bus actually do" half of the domain-observability layer (the RTA
// provenance in analysis/provenance.hpp is the "why is the bound what it
// is" half; sim/validation.hpp joins the two).
//
// The per-message numbers (counters, exact latency aggregates, the
// latency histogram on the obs subsystem's buckets, arbitration-wait and
// retransmit breakdowns) are stream::StreamAnalyzer run to completion
// over the trace: there is one reducer, so offline and online numbers
// agree by construction. What only this file computes is bus utilization
// over sliding windows, from the transmission intervals.

#include <cstdint>
#include <string>
#include <vector>

#include "symcan/obs/metrics.hpp"
#include "symcan/sim/trace.hpp"
#include "symcan/util/time.hpp"

namespace symcan {

/// Observed statistics of one message, reduced from its trace events.
struct MessageTraceStats {
  std::string name;
  std::int64_t releases = 0;
  std::int64_t completions = 0;
  std::int64_t errors = 0;       ///< Corrupted transmissions of this message.
  std::int64_t retransmits = 0;
  std::int64_t losses = 0;       ///< Overwritten instances.

  /// Release-to-completion latency of completed instances, in
  /// microseconds on obs::MetricsRegistry::default_latency_bounds_us().
  obs::HistogramSnapshot latency_us;
  Duration observed_max = Duration::zero();
  Duration observed_p99 = Duration::zero();  ///< Interpolated from the histogram.

  /// Exact integer-ns latency aggregates (the histogram above is a lossy
  /// microsecond view). `observed_min` is infinite when no completed
  /// instance had an observed release.
  Duration observed_min = Duration::infinite();
  Duration latency_total = Duration::zero();
  std::int64_t latency_samples = 0;
  Duration latency_mean() const {
    return latency_samples > 0 ? latency_total / latency_samples : Duration::zero();
  }

  /// Arbitration wait: release to *first* transmission start — the time
  /// an instance spent queued while losing (or waiting out) arbitration.
  Duration arbitration_wait_total = Duration::zero();
  Duration arbitration_wait_max = Duration::zero();

  /// Extra latency retransmissions cost: first error to final completion,
  /// summed over instances that were corrupted at least once.
  Duration retransmit_delay_total = Duration::zero();
};

/// Bus utilization inside one window position.
struct UtilizationWindow {
  Duration start = Duration::zero();
  Duration end = Duration::zero();
  double utilization = 0;  ///< Transmitting fraction of [start, end).
};

struct TraceStats {
  /// Sorted by message name.
  std::vector<MessageTraceStats> messages;

  /// Sliding windows (50 % overlap) covering [0, span).
  std::vector<UtilizationWindow> utilization;
  double peak_utilization = 0;
  double average_utilization = 0;  ///< Busy fraction of the whole span.

  Duration span = Duration::zero();

  const MessageTraceStats* find(const std::string& name) const;
};

/// Reduce `trace` over the time span [0, span). `window` is the sliding
/// utilization window length; a non-positive `window` or `span` yields no
/// utilization windows (never a division by zero). An empty trace yields
/// empty stats. Busy time counts transmission attempts (start to
/// completion or corruption); error-frame recovery between a corruption
/// and the retransmission re-entering arbitration is not charged.
TraceStats compute_trace_stats(const Trace& trace, Duration span, Duration window);

/// Render per-message table + utilization summary for terminals.
std::string trace_stats_to_text(const TraceStats& stats);

/// Machine-readable form; durations in integer nanoseconds, histograms
/// as (le_us, count) pairs.
std::string trace_stats_to_json(const TraceStats& stats);

}  // namespace symcan
