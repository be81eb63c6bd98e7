// Tile invariance: the tiled fan-outs (jitter/error/grid sweeps,
// GA/NSGA-II fitness evaluation) shard their index space into work tiles
// sized by ParallelExecutor::auto_tile, but every result lands in its
// own index slot — so the output must be byte-identical at EVERY worker
// count. This suite pins that property across jobs {1, 2, 3, 4} against
// the serial baseline (a 13-point sweep runs tiles of 4, 2, 2 and 1
// there, so the tile loop runs at more than one width), and additionally
// pins sweep_grid's cells against independently computed full analyses
// (the grid's one-pack-per-row columnar shortcut must not show).
//
// Labelled `determinism` so CI runs it under ThreadSanitizer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "symcan/analysis/presets.hpp"
#include "symcan/opt/ga.hpp"
#include "symcan/opt/nsga2.hpp"
#include "symcan/sensitivity/sweep.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

const int kJobs[] = {1, 2, 3, 4};

KMatrix case_matrix() { return generate_powertrain(PowertrainConfig::case_study()); }

void expect_same_bus_result(const BusResult& a, const BusResult& b, const std::string& where) {
  ASSERT_EQ(a.messages.size(), b.messages.size()) << where;
  EXPECT_EQ(a.utilization, b.utilization) << where;
  for (std::size_t m = 0; m < a.messages.size(); ++m) {
    const MessageResult& x = a.messages[m];
    const MessageResult& y = b.messages[m];
    EXPECT_EQ(x.name, y.name) << where;
    EXPECT_EQ(x.wcrt.count_ns(), y.wcrt.count_ns()) << where << " " << x.name;
    EXPECT_EQ(x.busy_period.count_ns(), y.busy_period.count_ns()) << where << " " << x.name;
    EXPECT_EQ(x.blocking.count_ns(), y.blocking.count_ns()) << where << " " << x.name;
    EXPECT_EQ(x.instances, y.instances) << where << " " << x.name;
    EXPECT_EQ(x.fixedpoint_iterations, y.fixedpoint_iterations) << where << " " << x.name;
    EXPECT_EQ(x.schedulable, y.schedulable) << where << " " << x.name;
    EXPECT_EQ(x.diverged, y.diverged) << where << " " << x.name;
  }
}

TEST(TileInvariance, JitterSweepByteIdenticalAcrossTilesAndJobs) {
  const KMatrix km = case_matrix();
  JitterSweepConfig base;
  base.rta = worst_case_assumptions();
  base.parallelism = 1;
  const JitterSweepResult ref = sweep_jitter(km, base);
  ASSERT_EQ(ref.fractions.size(), 13u);  // tiles of 4, 2, 2 and 1 at jobs 1..4

  for (const int jobs : kJobs) {
    JitterSweepConfig cfg = base;
    cfg.parallelism = jobs;
    const JitterSweepResult got = sweep_jitter(km, cfg);
    const std::string where = "jobs=" + std::to_string(jobs);
    ASSERT_EQ(ref.fractions, got.fractions) << where;
    ASSERT_EQ(ref.results.size(), got.results.size()) << where;
    for (std::size_t i = 0; i < ref.results.size(); ++i)
      expect_same_bus_result(ref.results[i], got.results[i], where + " point " + std::to_string(i));
  }
}

TEST(TileInvariance, ErrorSweepByteIdenticalAcrossTilesAndJobs) {
  const KMatrix km = case_matrix();
  ErrorSweepConfig base;
  base.rta = worst_case_assumptions();
  base.parallelism = 1;
  const ErrorSweepResult ref = sweep_errors(km, base);

  for (const int jobs : kJobs) {
    ErrorSweepConfig cfg = base;
    cfg.parallelism = jobs;
    const ErrorSweepResult got = sweep_errors(km, cfg);
    const std::string where = "jobs=" + std::to_string(jobs);
    ASSERT_EQ(ref.min_inter_error.size(), got.min_inter_error.size()) << where;
    for (std::size_t i = 0; i < ref.results.size(); ++i) {
      EXPECT_EQ(ref.min_inter_error[i].count_ns(), got.min_inter_error[i].count_ns()) << where;
      expect_same_bus_result(ref.results[i], got.results[i], where + " point " + std::to_string(i));
    }
  }
}

TEST(TileInvariance, GridSweepByteIdenticalAcrossTilesAndJobs) {
  const KMatrix km = case_matrix();
  GridSweepConfig base;
  base.rta = worst_case_assumptions();
  base.step = 0.10;  // 7 rows x 7 columns keeps the TSan runtime sane
  base.error_points = 7;
  base.parallelism = 1;
  const GridSweepResult ref = sweep_grid(km, base);
  ASSERT_GT(ref.points(), 0u);

  for (const int jobs : kJobs) {
    GridSweepConfig cfg = base;
    cfg.parallelism = jobs;
    const GridSweepResult got = sweep_grid(km, cfg);
    const std::string where = "jobs=" + std::to_string(jobs);
    ASSERT_EQ(ref.fractions, got.fractions) << where;
    ASSERT_EQ(ref.miss_fraction, got.miss_fraction) << where;
    ASSERT_EQ(ref.worst_wcrt.size(), got.worst_wcrt.size()) << where;
    for (std::size_t i = 0; i < ref.worst_wcrt.size(); ++i)
      EXPECT_EQ(ref.worst_wcrt[i].count_ns(), got.worst_wcrt[i].count_ns())
          << where << " cell " << i;
  }
}

// The grid packs each jitter row once and swaps the error model per
// column without repacking; every cell must still equal a from-scratch
// full analysis of that exact (jitter, error) configuration.
TEST(TileInvariance, GridCellsMatchFullAnalyses) {
  const KMatrix km = case_matrix();
  GridSweepConfig cfg;
  cfg.rta = worst_case_assumptions();
  cfg.step = 0.15;  // 5 rows x 5 columns of reference analyses
  cfg.error_points = 5;
  cfg.parallelism = 1;
  const GridSweepResult grid = sweep_grid(km, cfg);

  for (std::size_t r = 0; r < grid.rows(); ++r) {
    KMatrix variant = km;
    assume_jitter_fraction(variant, grid.fractions[r], cfg.override_known);
    for (std::size_t c = 0; c < grid.cols(); ++c) {
      CanRtaConfig point = cfg.rta;
      point.errors = std::make_shared<SporadicErrors>(grid.min_inter_error[c]);
      const BusResult full = CanRta{variant, point}.analyze();
      Duration worst = Duration::zero();
      for (const auto& m : full.messages) worst = max(worst, m.wcrt);
      EXPECT_EQ(grid.miss_at(r, c), full.miss_fraction()) << "cell " << r << "," << c;
      EXPECT_EQ(grid.wcrt_at(r, c).count_ns(), worst.count_ns()) << "cell " << r << "," << c;
    }
  }
}

TEST(TileInvariance, GaPopulationsByteIdenticalAcrossTilesAndJobs) {
  const KMatrix km = case_matrix();
  GaConfig base;
  base.rta = worst_case_assumptions();
  base.eval_fractions = {0.25};
  base.population = 8;
  base.archive = 4;
  base.generations = 3;
  base.parallelism = 1;
  const GaResult ref = optimize_priorities(km, base);
  const GaResult ref2 = optimize_priorities_nsga2(km, base);

  for (const int jobs : kJobs) {
    GaConfig cfg = base;
    cfg.parallelism = jobs;
    const std::string where = "jobs=" + std::to_string(jobs);

    const GaResult got = optimize_priorities(km, cfg);
    EXPECT_EQ(ref.best.order, got.best.order) << where;
    EXPECT_EQ(ref.best.misses, got.best.misses) << where;
    EXPECT_EQ(ref.best.robustness_cost, got.best.robustness_cost) << where;
    EXPECT_EQ(ref.best_misses_history, got.best_misses_history) << where;
    ASSERT_EQ(ref.pareto.size(), got.pareto.size()) << where;

    const GaResult got2 = optimize_priorities_nsga2(km, cfg);
    EXPECT_EQ(ref2.best.order, got2.best.order) << where;
    EXPECT_EQ(ref2.best.misses, got2.best.misses) << where;
    EXPECT_EQ(ref2.best_misses_history, got2.best_misses_history) << where;
  }
}

}  // namespace
}  // namespace symcan
