#include "symcan/stream/health.hpp"

#include <cinttypes>
#include <cstdio>

#include "symcan/obs/json.hpp"

namespace symcan::stream {

const char* to_string(HealthEventType t) {
  switch (t) {
    case HealthEventType::kJitterBurstOnset: return "jitter_burst_onset";
    case HealthEventType::kJitterBurstClear: return "jitter_burst_clear";
    case HealthEventType::kDriftOnset: return "drift_onset";
    case HealthEventType::kDriftClear: return "drift_clear";
    case HealthEventType::kStallOnset: return "stall_onset";
    case HealthEventType::kStallClear: return "stall_clear";
    case HealthEventType::kArrhythmiaOnset: return "arrhythmia_onset";
    case HealthEventType::kArrhythmiaClear: return "arrhythmia_clear";
    case HealthEventType::kBoundViolation: return "bound_violation";
  }
  return "?";
}

bool is_onset(HealthEventType t) {
  switch (t) {
    case HealthEventType::kJitterBurstOnset:
    case HealthEventType::kDriftOnset:
    case HealthEventType::kStallOnset:
    case HealthEventType::kArrhythmiaOnset:
    case HealthEventType::kBoundViolation: return true;
    case HealthEventType::kJitterBurstClear:
    case HealthEventType::kDriftClear:
    case HealthEventType::kStallClear:
    case HealthEventType::kArrhythmiaClear: return false;
  }
  return false;
}

std::string to_string(const HealthEvent& e) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-12s %-18s %-20s observed %-12s baseline %-12s @ frame %" PRId64,
                to_string(e.time).c_str(), to_string(e.type), e.message.c_str(),
                to_string(Duration::ns(e.observed_ns)).c_str(),
                to_string(Duration::ns(e.baseline_ns)).c_str(), e.frame_index);
  return buf;
}

std::string health_events_to_jsonl(const std::vector<HealthEvent>& events) {
  std::string out;
  obs::JsonOut w{out};
  for (const HealthEvent& e : events) {
    w.begin_object().field("t_ns", e.time.count_ns()).field("event", to_string(e.type));
    w.field("message", e.message).field("observed_ns", e.observed_ns);
    w.field("baseline_ns", e.baseline_ns).field("frame", e.frame_index).end_object().end_line();
  }
  return out;
}

}  // namespace symcan::stream
