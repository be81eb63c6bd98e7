#pragma once

// Online per-message timing health over an unbounded sim::TraceEvent
// stream — the monitoring product that fuses the simulator (what the bus
// did), the analysis (what it may do at worst), and the obs subsystem
// (how the monitor itself is doing). ROADMAP item 3.
//
// Contract:
//  * O(1) state per message ID. No trace buffering, no per-instance
//    allocation: each message owns a fixed block of counters, integer
//    EWMA baselines and a small fixed array of in-flight instance slots.
//    Steady-state ingest performs zero heap allocations (enforced by
//    tests/stream/allocation_test.cpp with a counting operator new).
//  * Chunk-invariant: ingesting the same event sequence in chunks of 1,
//    7 or 4096 yields bit-identical HealthEvent sequences — state
//    advances strictly per event, and all baselines are integer-ns EWMAs
//    (value += (sample - value) >> shift), so there is no accumulation
//    order or float rounding to vary.
//  * The only per-message trace reducer: sim::compute_trace_stats is this
//    analyzer run over a whole trace, so offline and online counters,
//    latency aggregates, arbitration waits, retransmit delays and latency
//    histograms are the same numbers by construction. Bound violations
//    use sim::exceeds_bound, the predicate sim::compare_bound_vs_observed
//    applies after a run.
//
// Detectors (per message, self-calibrating — evaluation methodology of
// "Performance comparison of timing-based anomaly detectors for CAN"):
//  * jitter burst: consecutive inter-arrival outliers against the fast
//    EWMA baseline and EWMA absolute deviation;
//  * period drift: the fast baseline running away from a slow reference
//    baseline (a ramp moves them apart; a step re-converges);
//  * stall: a watchdog on the expected next arrival, checked lazily via
//    a min-heap as the stream clock (any ingested event) advances;
//  * arrhythmia: sustained irregularity — the deviation EWMA staying
//    large relative to the period baseline (no single outlier needed).
// Each emits onset/clear HealthEvents with hysteresis, never per-frame
// alarms. An optional analysis::BusResult arms the online soundness
// oracle: any observed response time above its bound raises
// kBoundViolation.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/obs/metrics.hpp"
#include "symcan/sim/trace.hpp"
#include "symcan/stream/health.hpp"
#include "symcan/util/time.hpp"

namespace symcan::stream {

/// Detector calibration. Every knob is integer (shifts, counts, permille)
/// so tuning can never introduce platform-dependent float behaviour.
struct StreamConfig {
  /// EWMA update is value += (sample - value) >> shift; shift 3 = alpha
  /// 1/8 (fast baseline + deviation), shift 6 = alpha 1/64 (slow drift
  /// reference).
  int fast_shift = 3;
  int slow_shift = 6;

  /// Arrivals of a message before its detectors arm (baseline calibration).
  std::int64_t warmup_arrivals = 8;

  /// Jitter burst: an arrival is an outlier when |delta - baseline| >
  /// multiplier * deviation + baseline / 8 (the proportional floor keeps
  /// a near-zero deviation from flagging 1 ns noise). Onset after
  /// `jitter_onset_count` consecutive outliers, clear after
  /// `jitter_clear_count` consecutive inliers.
  std::int64_t jitter_multiplier = 4;
  int jitter_onset_count = 3;
  int jitter_clear_count = 8;

  /// Drift: |fast - slow| * 1000 > permille * slow, persisting for
  /// `drift_onset_count` arrivals; clears below the (lower) clear
  /// threshold for `drift_clear_count` arrivals.
  std::int64_t drift_onset_permille = 100;
  std::int64_t drift_clear_permille = 50;
  int drift_onset_count = 4;
  int drift_clear_count = 8;

  /// Stall watchdog: expected next arrival is last + multiplier *
  /// max(baseline, floor); expiry (by stream-clock advance) raises onset,
  /// the next arrival of the message clears it.
  std::int64_t stall_multiplier = 4;
  Duration stall_floor = Duration::us(100);

  /// Arrhythmia: deviation * 1000 > permille * baseline sustained for
  /// `arrhythmia_onset_count` arrivals; clears below the clear threshold.
  std::int64_t arrhythmia_onset_permille = 250;
  std::int64_t arrhythmia_clear_permille = 125;
  int arrhythmia_onset_count = 6;
  int arrhythmia_clear_count = 6;

  /// Retained HealthEvent log bound; beyond it events are counted as
  /// dropped, never buffered (a melting bus cannot balloon the monitor).
  std::size_t max_events = 1 << 20;
};

/// Snapshot of one message's online state (StreamAnalyzer::stats()).
struct MessageStreamStats {
  std::string name;
  std::int64_t releases = 0;
  std::int64_t completions = 0;
  std::int64_t errors = 0;
  std::int64_t retransmits = 0;
  std::int64_t losses = 0;

  /// Release-to-completion latency of completed instances whose release
  /// was observed; exact integer ns (min is infinite / max zero when no
  /// sample was seen).
  std::int64_t latency_samples = 0;
  Duration latency_min = Duration::infinite();
  Duration latency_max = Duration::zero();
  Duration latency_total = Duration::zero();
  Duration latency_mean() const {
    return latency_samples > 0 ? latency_total / latency_samples : Duration::zero();
  }

  /// Release to *first* transmission start of each instance: the time it
  /// spent queued while losing (or waiting out) arbitration.
  Duration arbitration_wait_total = Duration::zero();
  Duration arbitration_wait_max = Duration::zero();
  /// First error to final completion, summed over instances corrupted at
  /// least once.
  Duration retransmit_delay_total = Duration::zero();

  /// Self-calibrated baselines (zero until two arrivals were seen).
  Duration period_baseline = Duration::zero();   ///< Fast inter-arrival EWMA.
  Duration period_deviation = Duration::zero();  ///< EWMA absolute deviation.
  Duration response_baseline = Duration::zero(); ///< Latency EWMA.

  /// Analysis bound pairing (set_bounds); mirrors BoundObservation.
  bool bound_known = false;
  bool diverged = false;
  Duration bound = Duration::infinite();
  std::int64_t bound_violations = 0;  ///< Completions above the bound.
  bool violation() const { return bound_violations > 0; }

  /// Conditions currently raised.
  bool jitter_active = false;
  bool drift_active = false;
  bool stall_active = false;
  bool arrhythmia_active = false;

  /// In-flight slots dropped because more instances of this message were
  /// concurrently open than the fixed capacity (never for simulator
  /// traces; a hostile recorded trace degrades gracefully instead of
  /// allocating).
  std::int64_t inflight_evictions = 0;

  /// The latency samples above in microseconds, on
  /// obs::kDefaultLatencyBoundsUs; equal to what an obs::Histogram fed
  /// the same samples in the same order reports.
  obs::HistogramSnapshot latency_us;
};

struct StreamStats {
  std::vector<MessageStreamStats> messages;  ///< Sorted by message name.
  std::int64_t frames = 0;          ///< Trace events ingested.
  std::int64_t health_events = 0;   ///< Emitted, including dropped ones.
  std::int64_t dropped_events = 0;  ///< Beyond StreamConfig::max_events.
  std::int64_t active_conditions = 0;
  std::int64_t violations = 0;  ///< Messages with at least one bound violation.

  const MessageStreamStats* find(const std::string& name) const;
};

/// Per-message table + condition/violation summary for terminals. The
/// arbitration, retransmit and histogram fields are left to
/// sim::trace_stats_to_text/json; these renderers do not print them.
std::string stream_stats_to_text(const StreamStats& stats);

/// Machine-readable form; durations in integer nanoseconds.
std::string stream_stats_to_json(const StreamStats& stats);

class StreamAnalyzer {
 public:
  /// Concurrently open instances tracked per message. The simulator can
  /// hold at most two (one transmitting, one buffered); extra headroom
  /// absorbs recorded traces from other tools before eviction kicks in.
  static constexpr std::size_t kInflightSlots = 4;

  explicit StreamAnalyzer(StreamConfig cfg = {});

  /// Arm the online soundness oracle: any completion of a message named
  /// in `analysis` whose observed response exceeds its (finite) bound
  /// raises kBoundViolation. Diverged bounds cannot be violated, exactly
  /// as in sim::compare_bound_vs_observed.
  void set_bounds(const BusResult& analysis);

  /// Advance the monitor by one event. Events are expected in
  /// chronological order (the simulator guarantees it; the JSONL reader
  /// diagnoses regressions); an out-of-order event is still consumed
  /// without harm, it merely cannot fire watchdogs retroactively.
  void ingest(const TraceEvent& e);

  /// Batch form — identical state evolution for any chunking. Records
  /// obs metrics (frame counter + per-frame cost histogram) per batch,
  /// so the per-event hot path stays untimed.
  void ingest(const TraceEvent* events, std::size_t count);
  void ingest(const Trace& trace) { ingest(trace.events().data(), trace.events().size()); }

  /// Advance the stream clock to `end_time` without consuming an event,
  /// firing any watchdog that expires before it — flags messages that
  /// went silent before the end of a bounded run.
  void advance_to(Duration end_time);

  /// Health events emitted so far, in emission order (bounded by
  /// StreamConfig::max_events).
  const std::vector<HealthEvent>& events() const { return events_; }

  std::int64_t frames_ingested() const { return frames_; }
  std::int64_t events_emitted() const { return emitted_; }

  StreamStats stats() const;

 private:
  struct InflightSlot {
    std::int64_t instance = 0;
    Duration release = Duration::zero();
    Duration first_error = Duration::zero();
    std::int64_t age = 0;  ///< Insertion order, for oldest-first eviction.
    bool used = false;
    bool released = false;
    bool started = false;
    bool errored = false;
  };

  /// Per-message state: the public snapshot's counters, latency
  /// aggregates, bound pairing and condition flags, updated in place (so
  /// stats() copies them out as they are), plus the detectors' internals.
  /// The snapshot's baselines and latency_us are derived in stats().
  struct MessageState : MessageStreamStats {
    // Latency histogram in microseconds: plain counts (the analyzer is
    // single-threaded) and an event-order sum; min and max derive from
    // latency_min/latency_max.
    std::int64_t latency_buckets[obs::kDefaultLatencyBoundsUs.size() + 1] = {};
    double latency_sum_us = 0;

    InflightSlot inflight[kInflightSlots];
    std::int64_t next_age = 0;

    // Rhythm (driven by completions — what a bus monitor observes).
    bool has_arrival = false;
    bool has_baseline = false;
    Duration last_arrival = Duration::zero();
    std::int64_t arrivals = 0;       ///< Completions seen.
    std::int64_t m_fast_ns = 0;      ///< Fast inter-arrival EWMA.
    std::int64_t m_slow_ns = 0;      ///< Slow drift reference.
    std::int64_t dev_ns = 0;         ///< EWMA absolute deviation.
    std::int64_t resp_ewma_ns = 0;
    bool has_resp = false;

    // Detector hysteresis.
    int jitter_streak = 0;
    int jitter_calm = 0;
    int drift_streak = 0;
    int drift_calm = 0;
    int arr_streak = 0;
    int arr_calm = 0;
    std::uint64_t watchdog_gen = 0;  ///< Invalidates superseded heap entries.
  };

  /// Lazily-armed watchdog: fires when the stream clock passes `deadline`
  /// unless a newer arrival re-armed the message (generation mismatch).
  struct Watchdog {
    Duration deadline = Duration::zero();
    std::uint32_t state = 0;
    std::uint64_t gen = 0;
  };

  /// Total order for the min-heap — ties broken by state index then
  /// generation, so expiry order is deterministic.
  struct WatchdogAfter {
    bool operator()(const Watchdog& a, const Watchdog& b) const {
      if (a.deadline != b.deadline) return b.deadline < a.deadline;
      if (a.state != b.state) return a.state > b.state;
      return a.gen > b.gen;
    }
  };

  void ingest_one(const TraceEvent& e);
  MessageState& state_for(const std::string& name);
  InflightSlot& slot_for(MessageState& ms, std::int64_t instance);
  void on_completion(MessageState& ms, std::uint32_t idx, Duration now, Duration latency,
                     bool have_latency);
  void fire_expired_watchdogs(Duration now);
  void arm_watchdog(MessageState& ms, std::uint32_t idx);
  void emit(Duration time, HealthEventType type, const MessageState& ms, std::int64_t observed_ns,
            std::int64_t baseline_ns);
  void heap_push(Watchdog w);
  Watchdog heap_pop();
  void note_obs_batch(std::size_t count, std::int64_t wall_ns, std::int64_t events_raised);

  StreamConfig cfg_;
  std::unordered_map<std::string, std::uint32_t> index_;
  std::vector<MessageState> states_;
  std::vector<Watchdog> heap_;  ///< Min-heap on (deadline, state, gen).
  std::vector<HealthEvent> events_;
  std::int64_t frames_ = 0;
  std::int64_t cur_frame_ = 0;  ///< Frame index stamped onto emitted events.
  std::int64_t emitted_ = 0;
  std::int64_t dropped_ = 0;

  // Cached obs handles (valid for the registry's lifetime); resolved on
  // the first batch that sees observation enabled, so the disabled path
  // costs one relaxed load per batch.
  obs::Counter* obs_frames_ = nullptr;
  obs::Counter* obs_events_ = nullptr;
  obs::Histogram* obs_cost_ = nullptr;
};

}  // namespace symcan::stream
