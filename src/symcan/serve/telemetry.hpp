#pragma once

// Request-scoped telemetry for `symcan serve`: one fixed-size record per
// request tracing its life from arrival at the core to response bytes, plus
// the flight recorder that keeps the last N of them for post-incident
// dumps.
//
// The record is plain data with no heap members (the id is a truncating
// char array), so recording one is a bounded copy — no allocation — and
// the flight recorder can preallocate its whole ring up front. Timing is
// in integer nanoseconds on the core's monotonic clock: ServeCore::handle
// answers on the calling thread, so service_ns() == finish_ns - start_ns
// is the request's whole time in the core.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "symcan/serve/request.hpp"

namespace symcan::serve {

struct RequestTelemetry {
  /// Truncating copy of the client correlation id (at most 39 bytes +
  /// NUL, cut between UTF-8 characters).
  char id[40] = {};
  RequestKind kind = RequestKind::kAnalyze;
  ResponseStatus outcome = ResponseStatus::kOk;
  int exit_code = 0;
  std::int64_t start_ns = 0;      ///< handle() began.
  std::int64_t finish_ns = 0;     ///< Response fully rendered.
  std::uint64_t flow = 0;         ///< Trace-context id (obs::FlowScope).
  std::int8_t matrix_cache = -1;  ///< 1 hit, 0 miss, -1 not consulted.
  std::uint64_t response_bytes = 0;

  void set_id(const std::string& s);

  std::int64_t service_ns() const { return finish_ns - start_ns; }
};

/// One telemetry record as a single JSON line.
std::string telemetry_to_jsonl(const RequestTelemetry& t);

/// Bounded ring of the last `capacity` records. record() is a mutex-
/// guarded bounded copy into preallocated storage — never allocates, so
/// it may run unconditionally on the request path. snapshot() returns
/// the retained records oldest-first.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  void record(const RequestTelemetry& t);

  std::vector<RequestTelemetry> snapshot() const;

  std::size_t capacity() const { return capacity_; }
  /// Total records ever recorded (retained + overwritten).
  std::int64_t recorded() const;

  /// The snapshot as JSONL, oldest record first.
  std::string dump_jsonl() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex m_;
  std::vector<RequestTelemetry> ring_;  ///< Guarded by m_; size capacity_.
  std::size_t next_ = 0;                ///< Guarded by m_.
  std::int64_t recorded_ = 0;           ///< Guarded by m_.
};

}  // namespace symcan::serve
