#include "symcan/serve/telemetry.hpp"

#include <cstring>
#include <stdexcept>

#include "symcan/obs/json.hpp"

namespace symcan::serve {

void RequestTelemetry::set_id(const std::string& s) {
  const std::size_t n = s.size() < sizeof id - 1 ? s.size() : sizeof id - 1;
  std::memcpy(id, s.data(), n);
  id[n] = '\0';
}

std::string telemetry_to_jsonl(const RequestTelemetry& t) {
  std::string out;
  obs::JsonOut w{out};
  w.begin_object().field("id", t.id).field("kind", to_string(t.kind));
  w.field("outcome", to_string(t.outcome)).field("exit_code", t.exit_code);
  w.field("start_ns", t.start_ns).field("finish_ns", t.finish_ns);
  // Always 0: handle() answers on the calling thread. Kept because
  // perfbench/src/serve_workload.cpp reads it from every record.
  w.field("queue_wait_ns", 0).field("service_ns", t.service_ns());
  // The flow: every handle() call is a batch of one. Kept because
  // perfbench/src/serve_workload.cpp reads it from every record.
  w.field("batch_id", t.flow).field("flow", t.flow);
  w.field("matrix_cache", static_cast<int>(t.matrix_cache));
  w.field("response_bytes", t.response_bytes).end_object();
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
