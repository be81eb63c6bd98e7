#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "symcan/obs/export.hpp"
#include "symcan/obs/obs.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries the latter over
  // execve, so it would report the launching process's peak when that is
  // larger (a Python parent is).
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("perfbench: no VmHWM in /proc/self/status");
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"setup_s", "s"},   {"p50_ms", "ms"},      {"p90_ms", "ms"},
      {"rps", "1/s"},     {"ok_frac", "ratio"},  {"peak_rss_mb", "MiB"},
  };
  return list;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.service_ms.p50", "ms"},
      {"serve.service_ms.p99", "ms"},
      {"serve.batch_fill_ms.p50", "ms"},
      {"serve.batch_fill_ms.p99", "ms"},
      {"serve.latency_ms.p99", "ms"},
      {"serve.batch_size", "count"},
      {"serve.matrix_memo.hit_ratio", "ratio"},
      {"serve.shed", "count"},
      {"serve.rejected", "count"},
      {"serve.invalid", "count"},
      {"serve.wire_parse_us", "us"},
      {"serve.wire_write_us", "us"},
      {"serve.service_mean_us", "us"},
      {"serve.stages_us", "us"},
      {"serve.unattributed_us", "us"},
      {"serve.rps_at_slo", "1/s"},
      {"can.parse_us", "us"},
      {"can.validate_us", "us"},
      {"analysis.pack_us", "us"},
      {"analysis.solve_us", "us"},
      {"analysis.analyze_us", "us"},
      {"analysis.prob_us", "us"},
      {"analysis.explain_us", "us"},
      {"analysis.rta_cache.hit_ratio", "ratio"},
      {"analysis.prob_ladder.hit_ratio", "ratio"},
      {"pipeline.render_analyze_us", "us"},
      {"pipeline.render_prob_us", "us"},
      {"pipeline.render_explain_us", "us"},
      {"opt.ga_s", "s"},
      {"opt.nsga2_s", "s"},
      {"opt.evals_per_s", "1/s"},
      {"sensitivity.sweep_jitter_s", "s"},
      {"sensitivity.fault_sweep_s", "s"},
      {"sensitivity.robustness_s", "s"},
      {"sensitivity.grid_points_per_s", "1/s"},
      {"core.engine_ms", "ms"},
      {"util.cpu_util", "ratio"},
      {"sim.events_per_s", "1/s"},
      {"sim.trace_stats_ms", "ms"},
      {"sim.validation_ms", "ms"},
      {"sim.burst_bound_violations", "count"},
      {"stream.ingest_events_per_s", "1/s"},
      {"stream.reader_mb_per_s", "MB/s"},
      {"bench.gen_lag_ms", "ms"},
      {"bench.tracing_overhead", "ratio"},
  };
  return list;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 10) std::cerr << "perfbench: check failed: " << what << "\n";
}

void Result::metric(const std::string& name, double value) { values_[name] = value; }

double Result::ok_fraction() const {
  if (attempted_ == 0) return 0.0;
  return static_cast<double>(attempted_ - failed_) / static_cast<double>(attempted_);
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("perfbench: non-finite metric value");
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace

std::string Result::json(bool traced) const {
  const auto& list = traced ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& [name, value] : values_) {
    (void)value;
    const bool known = std::any_of(list.begin(), list.end(),
                                   [&](const auto& m) { return m.first == name; });
    if (!known) throw std::logic_error("perfbench: metric '" + name + "' is not in the list");
  }
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : list) {
    const auto it = values_.find(name);
    if (!traced && it == values_.end())
      throw std::logic_error("perfbench: end-to-end metric '" + name + "' was not measured");
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number(it == values_.end() ? 0.0 : it->second) +
           ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  return out;
}

namespace {

bool g_tracing = false;

std::int64_t tracer_us(Clock::time_point t) {
  // The library tracer counts microseconds from its own epoch; map our
  // steady-clock stamps onto it through one shared reference point.
  static const Clock::time_point ref = Clock::now();
  static const std::int64_t ref_us = symcan::obs::tracer().now_us();
  return ref_us + std::chrono::duration_cast<std::chrono::microseconds>(t - ref).count();
}

}  // namespace

void set_tracing(bool on) {
  g_tracing = on;
  if (on) tracer_us(Clock::now());  // pin the reference before the first span
}

bool tracing() { return g_tracing; }

void record_span(const char* name, Clock::time_point start, Clock::time_point end,
                 std::uint64_t flow) {
  if (!g_tracing) return;
  const std::uint64_t saved = symcan::obs::current_flow();
  symcan::obs::set_current_flow(flow);
  symcan::obs::tracer().record_span(name, tracer_us(start), tracer_us(end));
  symcan::obs::set_current_flow(saved);
}

void write_spans(const std::string& stem) {
  std::filesystem::create_directories(".bench_out");
  symcan::obs::write_file(".bench_out/" + stem + ".trace.json",
                          symcan::obs::trace_to_chrome_json(symcan::obs::tracer()));
}

}  // namespace perfbench
