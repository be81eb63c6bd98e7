#pragma once

// Typed health events emitted by the streaming analyzer (analyzer.hpp).
//
// Every detector reports *conditions*, not samples: an onset event when a
// message's timing leaves its self-calibrated envelope and a clear event
// when it returns — the alarm semantics a bus monitor needs, instead of a
// static threshold that either spams per frame or never fires. Bound
// violations are the exception: each message raises at most one
// kBoundViolation, with repeats counted, not re-emitted. The verdict is
// sim::exceeds_bound, the predicate behind the per-message `violation`
// bit of sim::compare_bound_vs_observed.

#include <cstdint>
#include <string>
#include <vector>

#include "symcan/util/time.hpp"

namespace symcan::stream {

enum class HealthEventType : std::uint8_t {
  kJitterBurstOnset,  ///< Consecutive inter-arrival outliers vs the EWMA envelope.
  kJitterBurstClear,
  kDriftOnset,  ///< Fast period baseline ran away from the slow reference.
  kDriftClear,
  kStallOnset,  ///< Watchdog on the expected next arrival expired.
  kStallClear,
  kArrhythmiaOnset,  ///< Sustained inter-arrival irregularity (high EWMA deviation).
  kArrhythmiaClear,
  kBoundViolation,  ///< Observed response time crossed the analysis bound.
};

const char* to_string(HealthEventType t);

/// True for the *Onset types and kBoundViolation (conditions being raised).
bool is_onset(HealthEventType t);

struct HealthEvent {
  Duration time = Duration::zero();  ///< Stream time the condition changed.
  HealthEventType type = HealthEventType::kStallOnset;
  std::string message;  ///< Message name the condition applies to.

  /// The offending measurement (inter-arrival, response, or baseline gap)
  /// and the self-calibrated expectation it was judged against, integer ns.
  std::int64_t observed_ns = 0;
  std::int64_t baseline_ns = 0;

  /// 0-based index of the ingested trace event that triggered this —
  /// chunk-invariant, so detector tests can pin exact firing positions.
  std::int64_t frame_index = 0;

  friend bool operator==(const HealthEvent&, const HealthEvent&) = default;
};

/// "1.204 ms  stall_onset  M7  observed 41.0 ms baseline 10.0 ms @ frame 812".
std::string to_string(const HealthEvent& e);

/// One JSON object per line:
/// {"t_ns":...,"event":"stall_onset","message":"...","observed_ns":...,
///  "baseline_ns":...,"frame":N}
/// Message names are JSON-escaped; an empty list yields an empty string.
std::string health_events_to_jsonl(const std::vector<HealthEvent>& events);

}  // namespace symcan::stream
