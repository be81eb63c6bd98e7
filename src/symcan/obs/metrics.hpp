#pragma once

// symcan::obs metrics: a lock-cheap registry of named counters, gauges,
// fixed-bucket histograms, and sample series.
//
// Design contract (see DESIGN.md "Observability"):
//  * All recording operations on an obtained handle are wait-free relaxed
//    atomics — safe from any thread, including ParallelExecutor workers
//    inside an RTA fan-out.
//  * The registry mutex is taken only to register/look up a metric by
//    name and to take snapshots, never per recorded value on a handle.
//  * Handles stay valid for the registry's lifetime; reset() zeroes the
//    recorded values but never invalidates a handle, so call sites may
//    cache `Counter&`/`Histogram&` across runs.
//  * Whether recording happens at all is gated one level up by
//    obs::enabled() (obs.hpp); nothing here checks the flag.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace symcan::obs {

/// Bucket bounds of the default latency histogram, in microseconds
/// (1 us .. 1 s); MetricsRegistry::default_latency_bounds_us() copies them.
inline constexpr std::array<double, 19> kDefaultLatencyBoundsUs = {
    1,     2,     5,      10,     20,     50,     100,      200,   500,   1'000,
    2'000, 5'000, 10'000, 20'000, 50'000, 100'000, 200'000, 500'000, 1'000'000};

/// q-quantile (q clamped to [0, 1]) of `n` observations counted on the
/// strictly increasing `bounds`; `count_at(i)` is bucket i's count. The
/// rank is interpolated linearly inside its bucket and clamped to
/// [lo, hi]; a rank in the overflow bucket reports the last finite edge.
/// 0 when `n` is 0. Histogram, WindowedHistogram and the stream
/// analyzer's plain per-message counts all call this one function.
template <class CountAt>
double bucket_quantile(std::span<const double> bounds, CountAt count_at, std::int64_t n, double q,
                       double lo, double hi) {
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::int64_t rank = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;

  std::int64_t cum = 0;
  double lower = 0.0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const std::int64_t c = count_at(i);
    if (c > 0 && cum + c >= rank) {
      const double pos = static_cast<double>(rank - cum) / static_cast<double>(c);
      return std::clamp(lower + pos * (bounds[i] - lower), lo, hi);
    }
    cum += c;
    lower = bounds[i];
  }
  // Rank falls into the overflow bucket: all we know is v > bounds.back().
  // Report the last finite bucket edge rather than the observed max, which
  // may be +inf and would poison JSON consumers (the Prometheus export
  // maps non-finite to 0; both surfaces must stay consistent).
  return bounds.back();
}

namespace detail {

/// CAS add/min/max for atomic<double>; relaxed ordering is enough because
/// metrics are statistical aggregates, not synchronization.
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

inline void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonic event count.
class Counter {
 public:
  void add(std::int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-value-wins instantaneous reading.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with cumulative-`le` semantics: bucket i counts
/// observations v with bounds[i-1] < v <= bounds[i]; one implicit
/// overflow bucket catches v > bounds.back(). Quantiles interpolate
/// linearly inside the selected bucket and are clamped to the observed
/// [min, max], so a quantile query at a bucket boundary with only
/// boundary-valued observations returns the boundary exactly. A rank
/// that falls into the overflow bucket reports the last finite bucket
/// edge — never the observed max, which may be +inf and would poison
/// JSON consumers (the Prometheus export maps non-finite to 0; both
/// surfaces stay finite and consistent).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest observed value; 0 when empty.
  double observed_min() const;
  double observed_max() const;
  /// q in [0, 1]; 0 when empty.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// i in [0, bounds().size()]; the last index is the overflow bucket.
  std::int64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void reset();

 private:
  std::vector<double> bounds_;                       ///< Strictly increasing.
  std::vector<std::atomic<std::int64_t>> buckets_;   ///< bounds_.size() + 1.
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Ordered per-iteration snapshots (one sample per GA generation, sweep
/// point, engine iteration, ...). Appends take the series mutex — they
/// happen at iteration granularity, never inside a hot loop.
class Series {
 public:
  using Sample = std::vector<std::pair<std::string, double>>;

  void append(Sample s);
  std::vector<Sample> samples() const;
  void reset();

 private:
  mutable std::mutex m_;
  std::vector<Sample> samples_;
};

/// Snapshot structs consumed by the exporters (export.hpp).
struct HistogramSnapshot {
  std::string name;
  std::int64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  std::vector<std::pair<double, std::int64_t>> buckets;  ///< (le, count).
  std::int64_t overflow = 0;
};

struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::vector<std::pair<std::string, std::vector<Series::Sample>>> series;
};

class MetricsRegistry {
 public:
  /// Registered on first use; subsequent calls return the same handle.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Default bounds suit microsecond-scale latencies (1 us .. 1 s).
  Histogram& histogram(const std::string& name);
  /// Bounds are fixed at first registration; later calls with different
  /// bounds return the existing histogram unchanged.
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds);
  Series& series(const std::string& name);

  /// Zero every value and clear every series. Handles remain valid.
  void reset();

  RegistrySnapshot snapshot() const;

  static std::vector<double> default_latency_bounds_us();

 private:
  mutable std::mutex m_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
};

}  // namespace symcan::obs
