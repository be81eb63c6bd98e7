#include "symcan/serve/telemetry.hpp"

#include <cstring>
#include <stdexcept>

#include "symcan/obs/export.hpp"

namespace symcan::serve {

void RequestTelemetry::set_id(const std::string& s) {
  const std::size_t n = s.size() < sizeof id - 1 ? s.size() : sizeof id - 1;
  std::memcpy(id, s.data(), n);
  id[n] = '\0';
}

std::string telemetry_to_jsonl(const RequestTelemetry& t) {
  std::string out = "{\"id\":\"" + obs::json_escape(t.id) + "\"";
  out += ",\"kind\":\"" + std::string(to_string(t.kind)) + "\"";
  out += ",\"outcome\":\"" + std::string(to_string(t.outcome)) + "\"";
  out += ",\"exit_code\":" + std::to_string(t.exit_code);
  out += ",\"start_ns\":" + std::to_string(t.start_ns);
  out += ",\"finish_ns\":" + std::to_string(t.finish_ns);
  // Always 0: handle() answers on the calling thread. Kept because
  // perfbench/src/serve_workload.cpp reads it from every record.
  out += ",\"queue_wait_ns\":0";
  out += ",\"service_ns\":" + std::to_string(t.service_ns());
  // The flow: every handle() call is a batch of one. Kept because
  // perfbench/src/serve_workload.cpp reads it from every record.
  out += ",\"batch_id\":" + std::to_string(t.flow);
  out += ",\"flow\":" + std::to_string(t.flow);
  out += ",\"matrix_cache\":" + std::to_string(static_cast<int>(t.matrix_cache));
  out += ",\"response_bytes\":" + std::to_string(t.response_bytes);
  out += "}";
  return out;
}

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_{capacity} {
  if (capacity_ == 0) throw std::invalid_argument("flight recorder capacity must be positive");
  ring_.resize(capacity_);
}

void FlightRecorder::record(const RequestTelemetry& t) {
  std::lock_guard<std::mutex> lk{m_};
  ring_[next_] = t;
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

std::vector<RequestTelemetry> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lk{m_};
  std::vector<RequestTelemetry> out;
  const std::size_t held =
      recorded_ < static_cast<std::int64_t>(capacity_) ? static_cast<std::size_t>(recorded_)
                                                       : capacity_;
  out.reserve(held);
  // Oldest-first: the ring index `next_` points at the oldest retained
  // record once the ring has wrapped.
  const std::size_t first = recorded_ < static_cast<std::int64_t>(capacity_) ? 0 : next_;
  for (std::size_t i = 0; i < held; ++i) out.push_back(ring_[(first + i) % capacity_]);
  return out;
}

std::int64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lk{m_};
  return recorded_;
}

std::string FlightRecorder::dump_jsonl() const {
  std::string out;
  for (const RequestTelemetry& t : snapshot()) {
    out += telemetry_to_jsonl(t);
    out += "\n";
  }
  return out;
}

}  // namespace symcan::serve
