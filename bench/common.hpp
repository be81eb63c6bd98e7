#pragma once

// Shared helpers for the figure-reproduction benches. Every bench prints
// the paper-style data series first (the reproduction), then runs its
// google-benchmark micro timings.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "symcan/analysis/presets.hpp"
#include "symcan/obs/export.hpp"
#include "symcan/obs/json.hpp"
#include "symcan/obs/obs.hpp"
#include "symcan/util/table.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan::bench {

/// The canonical case-study matrix every figure uses (Section 4: a
/// power-train bus with > 50 messages and a gateway).
inline KMatrix case_study_matrix() { return generate_powertrain(PowertrainConfig::case_study()); }

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

inline std::string pct(double v) { return strprintf("%5.1f%%", 100.0 * v); }

/// Strip a "--jobs N" pair from argv before google-benchmark parses it;
/// returns N (0 = hardware concurrency) or `fallback` when absent. Lets
/// the reproduction section of a bench run at a chosen parallel width:
///   ./abl_optimizers --jobs 4   vs   ./abl_optimizers --jobs 1
/// Rejects non-numeric or negative widths with exit code 2.
inline int jobs_arg(int& argc, char** argv, int fallback = 0) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") != 0) continue;
    char* end = nullptr;
    const long jobs = std::strtol(argv[i + 1], &end, 10);
    if (end == argv[i + 1] || *end != '\0' || jobs < 0) {
      std::fprintf(stderr, "%s: --jobs expects a non-negative integer, got '%s'\n", argv[0],
                   argv[i + 1]);
      std::exit(2);
    }
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    return static_cast<int>(jobs);
  }
  return fallback;
}

/// Machine-readable output requested with "--json PATH": the destination
/// plus the bench name (argv[0] basename), e.g. BENCH_abl_runtime.json.
struct JsonRequest {
  std::string path;
  std::string bench_name;
  bool active() const { return !path.empty(); }
};

inline JsonRequest& json_request() {
  static JsonRequest req;
  return req;
}

/// Strip a "--json PATH" pair from argv before google-benchmark parses
/// it. When present, the obs registry records the whole run (reproduction
/// section included — call this first in main) and run_benchmarks()
/// writes {bench, results, metrics} JSON to PATH on completion.
inline void json_arg(int& argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") != 0) continue;
    JsonRequest& req = json_request();
    req.path = argv[i + 1];
    if (req.path.empty() || req.path.rfind("--", 0) == 0) {
      std::fprintf(stderr, "%s: --json expects a file path, got '%s'\n", argv[0],
                   argv[i + 1]);
      std::exit(2);
    }
    const std::string prog = argv[0];
    const std::size_t slash = prog.find_last_of('/');
    req.bench_name = slash == std::string::npos ? prog : prog.substr(slash + 1);
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    obs::reset();
    obs::set_enabled(true);
    return;
  }
}

/// Console output as usual, plus per-benchmark wall times collected for
/// the JSON export (mean/min over repetitions of the per-iteration time).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Stats {
    std::int64_t runs = 0;
    double sum_wall_ms = 0;
    double min_wall_ms = 0;
    std::map<std::string, double> counters;  ///< Last-run user counters.
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.error_occurred || r.run_type != Run::RT_Iteration) continue;
      const double wall_ms = r.iterations > 0
                                 ? 1e3 * r.real_accumulated_time / static_cast<double>(r.iterations)
                                 : 0.0;
      Stats& s = stats_[r.benchmark_name()];
      s.min_wall_ms = s.runs == 0 ? wall_ms : std::min(s.min_wall_ms, wall_ms);
      s.sum_wall_ms += wall_ms;
      ++s.runs;
      for (const auto& [name, counter] : r.counters) s.counters[name] = counter.value;
      order_.push_back(r.benchmark_name());
    }
    ConsoleReporter::ReportRuns(reports);
  }

  /// Writes the results array as the value of `w`'s pending key.
  void write_results(obs::JsonOut& w) const {
    w.begin_array(true);
    std::vector<std::string> seen;
    for (const std::string& name : order_) {
      if (std::find(seen.begin(), seen.end(), name) != seen.end()) continue;
      seen.push_back(name);
      const Stats& s = stats_.at(name);
      w.begin_object().field("name", name).field("runs", s.runs);
      w.field("mean_wall_ms", s.runs > 0 ? s.sum_wall_ms / static_cast<double>(s.runs) : 0.0);
      w.field("min_wall_ms", s.min_wall_ms);
      if (!s.counters.empty()) {
        w.key("counters").begin_object();
        for (const auto& [counter, value] : s.counters) w.field(counter, value);
        w.end_object();
      }
      w.end_object();
    }
    w.end_array();
  }

 private:
  std::map<std::string, Stats> stats_;
  std::vector<std::string> order_;
};

/// Print data, then hand over to google-benchmark with the provided argv.
/// With a pending --json request (see json_arg), the per-benchmark wall
/// times and the whole obs metrics registry are written to the requested
/// path afterwards.
inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const JsonRequest& req = json_request();
  if (!req.active()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    JsonCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    obs::set_enabled(false);
    std::string metrics = obs::metrics_to_json(obs::metrics());
    metrics.pop_back();  // the trailing line break; the enclosing object adds its own
    std::string out;
    obs::JsonOut w{out, obs::JsonOut::Layout::kSpaced};
    w.begin_object(true).field("bench", req.bench_name).key("results");
    reporter.write_results(w);
    w.key("metrics").raw(metrics).end_object().end_line();
    obs::write_file(req.path, out);
    std::cout << "wrote " << req.path << "\n";
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace symcan::bench
