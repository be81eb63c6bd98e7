#pragma once

// ServeCore: the in-process heart of `symcan serve`, usable without any
// transport (tests and embedders call it directly; serve --stdio is a
// thin JSONL loop over it — the transport layer stays pluggable).
//
// One core owns:
//   - one sharded IncrementalRta shared by every request, so hot
//     K-matrices stay warm across requests,
//   - a bounded parsed-matrix memo keyed by the exact CSV text (and
//     diagnostic policy), so re-submitted matrices skip the parser,
//   - the telemetry plane: a RequestTelemetry record per request
//     (service time, flow id, cache hit/miss, outcome), rolling-window
//     latency/rate aggregates and per-kind SLO burn counters
//     (obs/window.hpp), and a flight recorder holding the last N records
//     for post-incident dumps.
//
// The core starts no thread. handle() answers on the calling thread and
// may be called from any number of threads at once; a transport brings
// its own threads (serve --stdio runs its loop on a ParallelExecutor of
// config().jobs threads).
//
// Determinism: handle() is a pure function of the request given the
// pipeline stages' determinism contracts — caches return bit-identical
// results to fresh computation and per-request seeds drive the
// stochastic stages — so concurrent calls answer bit-identically to
// handling each request alone, and byte-for-byte equal to the one-shot
// CLI on the same inputs (tests/serve/serve_differential_test.cpp).
// Telemetry rides alongside the response and never feeds back into its
// bytes, and nothing about load decides whether a request is answered:
// every request handed to the core gets its answer. The core has no
// admission queue; a transport bounds its own backlog (serve --stdio:
// --batch).
//
// Handlers run their inner fan-out serially (prob and optimize force
// jobs = 1): the transport already spreads requests over its threads.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/obs/json.hpp"
#include "symcan/obs/window.hpp"
#include "symcan/serve/request.hpp"
#include "symcan/serve/telemetry.hpp"

namespace symcan::serve {

/// Per-kind latency SLO targets (milliseconds); 0 disables the kind's
/// tracker. Defaults reflect each kind's intrinsic cost tier.
struct SloTargets {
  std::int64_t analyze_ms = 50;
  std::int64_t explain_ms = 200;
  std::int64_t validate_ms = 2000;
  std::int64_t optimize_ms = 30'000;
  std::int64_t health_ms = 5;
  std::int64_t telemetry_ms = 5;
  std::int64_t prob_ms = 100;

  std::int64_t for_kind(RequestKind kind) const;
};

struct TelemetryConfig {
  /// Flight-recorder depth (last N requests retained).
  std::size_t flight_capacity = 256;
  /// When non-empty, the flight recorder dumps its ring here (JSONL,
  /// truncating) on a telemetry request with dump:true and at shutdown.
  std::string flight_path;
  /// Rolling-window shape shared by the latency window and SLO burn
  /// counters: bucket_count sub-windows of bucket_ms each.
  std::int64_t window_bucket_ms = 5000;
  std::size_t window_buckets = 12;
  double slo_objective = 0.99;
  SloTargets slo;
};

struct ServeConfig {
  /// Shared RTA cache; its default 8 shards keep concurrent handle()
  /// calls from serializing on one lock.
  RtaCacheConfig cache;
  /// Parsed-matrix memo entries (distinct CSV texts held ready).
  std::size_t matrix_cache_capacity = 64;
  /// The stdio loop's thread count (0 = hardware).
  int jobs = 0;
  /// The stdio transport keeps at most this many lines read but not yet
  /// answered (CLI --batch): the service's only admission bound.
  std::size_t batch_max = 32;
  DiagnosticPolicy policy = DiagnosticPolicy::kLenient;
  TelemetryConfig telemetry;
  /// Version/build string surfaced in health_json (the CLI passes its
  /// version_string()); empty omits the key's content, not the key.
  std::string build_info;
  /// When non-empty, the stdio server rewrites the Prometheus exposition
  /// of the global obs registry here at most once per telemetry window
  /// bucket, and once more at shutdown.
  std::string metrics_prom_path;
};

class ServeCore {
 public:
  explicit ServeCore(ServeConfig cfg = {});

  const ServeConfig& config() const { return cfg_; }

  /// Monotonic nanoseconds since core construction — the clock every
  /// telemetry stamp uses.
  std::int64_t now_ns() const;

  /// Answer one request on the calling thread (any thread). Never
  /// throws: malformed or unprocessable requests become kInvalid
  /// responses. Each call draws a fresh flow id, stamps start/finish and
  /// records the telemetry.
  ServeResponse handle(const ServeRequest& req);

  const analysis::IncrementalRta& rta_cache() const { return rta_; }
  const FlightRecorder& flight_recorder() const { return flight_; }

  /// The `health` request payload: cache and request counters, uptime +
  /// build info, windowed rates/latency and SLO burn — one JSON object.
  std::string health_json() const;

  /// The `telemetry` request payload: uptime, windowed stats, per-kind
  /// SLO state and flight-recorder occupancy.
  std::string telemetry_json() const;

  /// Flush the flight recorder to cfg.telemetry.flight_path (JSONL,
  /// truncating). Returns false when no path is configured. `reason`
  /// labels the dump in obs and in the dumps counter.
  bool dump_flight(const char* reason);

  std::int64_t handled() const { return ok_ + failed_ + invalid_; }

 private:
  /// Parse (or recall) the request's matrix. Throws ParseError on a
  /// malformed matrix; the memo stores successful parses only. `hit`
  /// (when non-null) reports whether the memo already held it.
  std::shared_ptr<const KMatrix> matrix_for(const std::string& csv, bool* hit = nullptr);

  /// Window/SLO/flight/registry bookkeeping for one finished record.
  void finish_telemetry(RequestTelemetry& t);

  /// The sections health_json and telemetry_json share, read at `now`:
  /// the window, slo and flight_recorder keys of the open object.
  void write_window_sections(obs::JsonOut& w, std::int64_t now) const;

  std::size_t kind_index(RequestKind kind) const {
    return static_cast<std::size_t>(kind);
  }

  ServeConfig cfg_;
  std::chrono::steady_clock::time_point epoch_;
  analysis::IncrementalRta rta_;

  /// Bounded LRU of parsed matrices, keyed by the exact CSV text —
  /// exact-text keys cannot collide, so a hit is the same matrix by
  /// construction. Guarded by matrix_m_.
  using MatrixEntry = std::pair<std::string, std::shared_ptr<const KMatrix>>;
  mutable std::mutex matrix_m_;
  std::list<MatrixEntry> matrix_lru_;
  std::unordered_map<std::string, std::list<MatrixEntry>::iterator> matrix_map_;
  std::int64_t matrix_hits_ = 0;    ///< Guarded by matrix_m_.
  std::int64_t matrix_misses_ = 0;  ///< Guarded by matrix_m_.

  std::atomic<std::int64_t> ok_{0};
  std::atomic<std::int64_t> failed_{0};
  std::atomic<std::int64_t> invalid_{0};

  // --- telemetry plane (always on; obs::enabled() gates only the
  // global registry/tracer side) ---
  std::atomic<std::uint64_t> flow_seq_{0};
  FlightRecorder flight_;
  obs::WindowedHistogram window_service_us_;  ///< Service time, all kinds.
  obs::WindowedCounter window_requests_;
  obs::WindowedCounter window_errors_;  ///< failed + invalid outcomes.
  /// Indexed by kind_index(); disabled targets hold nullptr.
  std::array<std::unique_ptr<obs::SloTracker>, 7> slo_;
  std::atomic<std::int64_t> dumps_{0};
  std::mutex dump_m_;  ///< Serializes flight-dump file writes.
};

}  // namespace symcan::serve
