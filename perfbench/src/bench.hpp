#pragma once

// Shared plumbing of the symcan benchmark: options, the result line,
// statistics, per-layer timing and the span recorder of traced runs.
//
// End-to-end numbers come from untraced runs. A traced run (--trace 1)
// times the calls into each library layer from this directory's code,
// records one span per call through the library's own tracer, and writes
// the spans once at exit as chrome://tracing JSON (Perfetto opens it).

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Threads a workload keeps busy at once, the driving thread included:
/// serve --jobs, GA/sweep parallelism and the executor widths all use it.
constexpr int kWidth = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Thrown when a run cannot be trusted (the load generator fell behind
/// its schedule); main() reports it instead of a result.
struct InvalidRun : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Type-7 (linear interpolation) quantile, q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Process CPU seconds (user + system) and peak resident set in MiB.
double process_cpu_seconds();
double peak_rss_mib();

/// Set-up repeats per run; setup_s is their median, so one slow repeat
/// does not move it.
constexpr int kSetupRepeats = 5;

/// Runs `fn` `repeats` times and returns the median wall time in seconds.
template <typename F>
double median_seconds(int repeats, F&& fn) {
  std::vector<double> s;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    fn();
    s.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(s));
}

/// The run's correctness tally and metrics, printed as the final line.
class Result {
 public:
  /// One checked operation; a failed check is logged to stderr (the
  /// first few of them) and counted.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  double ok_fraction() const;

  /// The result object. Every metric of the mode's list (end-to-end, or
  /// per-layer when traced) is emitted; a per-layer metric the workload
  /// never exercised reads 0. Throws if a metric outside the list was set.
  std::string json(bool traced) const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::map<std::string, double> values_;
};

/// Metric names and units, in output order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Span recording for traced runs; a no-op otherwise.
void set_tracing(bool on);
bool tracing();
void record_span(const char* name, Clock::time_point start, Clock::time_point end,
                 std::uint64_t flow = 0);
/// Writes the recorded spans to .bench_out/<stem>.trace.json.
void write_spans(const std::string& stem);

/// Times one call into a layer: appends its wall time in microseconds to
/// `samples_us` and records it as a span named `name` when tracing.
class LayerTimer {
 public:
  LayerTimer(const char* name, std::vector<double>& samples_us)
      : name_{name}, samples_{samples_us}, start_{Clock::now()} {}
  ~LayerTimer() {
    const auto end = Clock::now();
    samples_.push_back(std::chrono::duration<double, std::micro>(end - start_).count());
    record_span(name_, start_, end);
  }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  const char* name_;
  std::vector<double>& samples_;
  Clock::time_point start_;
};

template <typename F>
decltype(auto) timed(const char* name, std::vector<double>& samples_us, F&& fn) {
  LayerTimer timer{name, samples_us};
  return fn();
}

/// CPU utilization of a phase: process CPU seconds over wall seconds
/// times kWidth, sampled at construction and read by value().
class CpuMeter {
 public:
  CpuMeter() : cpu0_{process_cpu_seconds()}, wall0_{Clock::now()} {}
  double value() const {
    const double wall = seconds_between(wall0_, Clock::now());
    return wall > 0 ? (process_cpu_seconds() - cpu0_) / (wall * kWidth) : 0.0;
  }

 private:
  double cpu0_;
  Clock::time_point wall0_;
};

// The workloads. Each fills `result` with its metrics for the mode.
void run_serve(const Options& opt, bool hot, Result& result);
void run_design_space(const Options& opt, Result& result);
void run_trace_replay(const Options& opt, Result& result);

}  // namespace perfbench
