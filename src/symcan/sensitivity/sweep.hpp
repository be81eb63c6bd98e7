#pragma once

// What-if sweeps over modelling assumptions (paper Section 4: "we
// conducted a set of experiments, each based on different assumptions on
// the missing information", and Section 4.1/4.2: response-time and
// message-loss behaviour over jitter and error distributions).

#include <string>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/analysis/prob_rta.hpp"
#include "symcan/can/kmatrix.hpp"

namespace symcan {

/// Sweep of the assumed jitter of unknown-jitter messages, expressed as a
/// fraction of each message's own period (the x-axis of Figures 4 and 5).
struct JitterSweepConfig {
  double from = 0.0;
  double to = 0.60;
  double step = 0.05;
  /// Also override messages whose jitter the OEM knows (Figure 4/5 sweep
  /// the whole matrix uniformly, so default true).
  bool override_known = true;
  CanRtaConfig rta;
  /// Worker threads for evaluating sweep points (0 = hardware
  /// concurrency, 1 = serial). Results are bit-identical either way.
  int parallelism = 1;
  /// RTA memoization across sweep points: messages the swept jitter does
  /// not reach keep their interference context and are served from cache.
  RtaCacheConfig cache;
};

/// Analysis results at each swept point.
struct JitterSweepResult {
  std::vector<double> fractions;
  std::vector<BusResult> results;  ///< One BusResult per fraction.

  /// Fraction of messages missing their deadline at sweep point i
  /// (Figure 5 y-axis).
  double miss_fraction(std::size_t i) const { return results.at(i).miss_fraction(); }

  /// Worst-case response-time curve of one message across the sweep
  /// (Figure 4: one line per message). infinite() where diverged.
  std::vector<Duration> response_curve(const std::string& message) const;
};

JitterSweepResult sweep_jitter(const KMatrix& km, const JitterSweepConfig& cfg);

/// Sweep of the bus fault rate: min inter-error time from `from` down to
/// `to` in `points` logarithmic steps, with sporadic errors ("similar
/// results have been obtained for error-sensitivity").
struct ErrorSweepConfig {
  Duration from = Duration::s(1);
  Duration to = Duration::ms(1);
  int points = 13;
  CanRtaConfig rta;  ///< Its error model is replaced at every point.
  /// Worker threads for evaluating sweep points (0 = hardware
  /// concurrency, 1 = serial). Results are bit-identical either way.
  int parallelism = 1;
  /// RTA memoization across sweep points (the error model is part of the
  /// cache key, so each point only reuses what it legitimately can).
  RtaCacheConfig cache;
};

struct ErrorSweepResult {
  std::vector<Duration> min_inter_error;
  std::vector<BusResult> results;
};

ErrorSweepResult sweep_errors(const KMatrix& km, const ErrorSweepConfig& cfg);

/// Sweep of the per-busy-period fault probability: miss probability vs
/// error rate. fault_ppm runs from `from_ppm` down to `to_ppm` in
/// `points` logarithmic steps; every point shares the deterministic rung
/// ladders (the per-fault-count conditional bounds), so after the first
/// point only the cheap binomial re-mix runs — the IncrementalRta ladder
/// cache keeps the whole sweep warm.
struct FaultSweepConfig {
  std::int64_t from_ppm = 1'000'000;
  std::int64_t to_ppm = 1;
  int points = 13;
  /// Fixed non-fault knobs shared by every point (see ProbRtaConfig).
  std::int64_t stuff_ppm = 1'000'000;
  std::int64_t jitter_ppm = 1'000'000;
  std::int64_t max_rungs = 96;
  CanRtaConfig rta;
  /// Worker threads for evaluating sweep points (0 = hardware
  /// concurrency, 1 = serial). Results are bit-identical either way.
  int parallelism = 1;
  /// Ladder memoization across sweep points (the fault probability is
  /// mix-time state, so every point reuses every ladder).
  RtaCacheConfig cache;
};

struct FaultSweepResult {
  std::vector<std::int64_t> fault_ppm;
  std::vector<ProbBusResult> results;  ///< One ProbBusResult per point.

  /// Fraction of messages with nonzero miss probability at point i.
  double at_risk_fraction(std::size_t i) const {
    const ProbBusResult& r = results.at(i);
    return r.messages.empty() ? 0.0
                              : static_cast<double>(r.miss_count()) /
                                    static_cast<double>(r.messages.size());
  }
  /// Largest per-message miss probability (ppm) at point i.
  std::int64_t worst_miss_ppm(std::size_t i) const;
};

FaultSweepResult sweep_fault_probability(const KMatrix& km, const FaultSweepConfig& cfg);

/// Two-dimensional what-if grid: assumed jitter fraction (rows, linear
/// steps as in JitterSweepConfig) x bus fault rate (columns, logarithmic
/// min inter-error times as in ErrorSweepConfig). One cell = one full
/// bus analysis; a modest grid therefore reaches millions of per-message
/// solves, which is where the columnar core earns its keep: each row
/// packs its jitter variant once and re-solves every error column from
/// the same columns, so a cell costs solves only — no context rebuilds.
struct GridSweepConfig {
  double from = 0.0;
  double to = 0.60;
  double step = 0.05;
  bool override_known = true;
  Duration error_from = Duration::s(1);
  Duration error_to = Duration::ms(1);
  int error_points = 13;
  CanRtaConfig rta;  ///< Its error model is replaced at every column.
  /// Worker threads over rows (0 = hardware concurrency, 1 = serial).
  int parallelism = 1;
};

/// Per-cell aggregates in row-major order (row = jitter fraction index,
/// column = min inter-error index). Full BusResults are deliberately not
/// kept: a million-point grid would hold a million MessageResults.
struct GridSweepResult {
  std::vector<double> fractions;
  std::vector<Duration> min_inter_error;
  std::vector<double> miss_fraction;  ///< rows x cols, row-major.
  std::vector<Duration> worst_wcrt;   ///< rows x cols; infinite if any diverged.
  std::size_t messages = 0;           ///< Messages analyzed per cell.

  std::size_t rows() const { return fractions.size(); }
  std::size_t cols() const { return min_inter_error.size(); }
  std::size_t cells() const { return rows() * cols(); }
  /// Total per-message solves the grid performed.
  std::size_t points() const { return cells() * messages; }
  double miss_at(std::size_t row, std::size_t col) const {
    return miss_fraction.at(row * cols() + col);
  }
  Duration wcrt_at(std::size_t row, std::size_t col) const {
    return worst_wcrt.at(row * cols() + col);
  }
};

GridSweepResult sweep_grid(const KMatrix& km, const GridSweepConfig& cfg);

}  // namespace symcan
