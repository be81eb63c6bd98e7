// Ablation — two-dimensional what-if grid (assumed jitter x bus fault
// rate) on the case-study matrix. The reproduction section runs a
// million-point grid (rows x columns x messages >= 1e6 per-message
// solves): each row packs its jitter variant into the columnar solve
// core once and every error column re-solves from the same columns, so
// a grid cell costs solves only — the regime the columnar refactor
// targets. The micro benchmark times a small grid at one and four jobs.

#include "common.hpp"
#include "symcan/sensitivity/sweep.hpp"
#include "symcan/util/parallel.hpp"

namespace symcan::bench {
namespace {

/// Grid sized to cross one million per-message solves on the ~56-message
/// case study: 150 jitter rows x 120 error columns x 56 messages.
GridSweepConfig million_point_config(int jobs) {
  GridSweepConfig cfg;
  cfg.rta = worst_case_assumptions();
  cfg.from = 0.0;
  cfg.to = 0.745;
  cfg.step = 0.005;  // 150 rows
  cfg.error_points = 120;
  cfg.parallelism = jobs;
  return cfg;
}

void reproduce(int jobs) {
  const KMatrix km = case_study_matrix();
  std::cout << "parallelism: " << ParallelExecutor::resolve(jobs) << " worker thread(s)\n";

  const GridSweepConfig cfg = million_point_config(jobs);
  const auto t0 = std::chrono::steady_clock::now();
  const GridSweepResult grid = sweep_grid(km, cfg);
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();

  std::cout << strprintf("grid: %zu x %zu cells, %zu messages/cell = %zu point solves in %.0f ms\n",
                         grid.rows(), grid.cols(), grid.messages, grid.points(), ms);
  if (obs::enabled()) obs::metrics().gauge("grid.wall_ms").set(ms);

  // Corner summary: miss fraction at the four extremes of the grid (the
  // paper's qualitative claim — pessimism grows toward high jitter and
  // high fault rates — in one table).
  TextTable t;
  t.header({"corner", "jitter", "min inter-error", "miss fraction"});
  const auto corner = [&](const char* label, std::size_t r, std::size_t c) {
    t.row({label, pct(grid.fractions[r]),
           strprintf("%.3f ms", grid.min_inter_error[c].as_ms()),
           pct(grid.miss_at(r, c))});
  };
  corner("benign", 0, 0);
  corner("high jitter", grid.rows() - 1, 0);
  corner("high faults", 0, grid.cols() - 1);
  corner("both", grid.rows() - 1, grid.cols() - 1);
  t.print(std::cout);
}

void BM_GridSweep(benchmark::State& state) {
  const KMatrix km = case_study_matrix();
  GridSweepConfig cfg;
  cfg.rta = worst_case_assumptions();
  cfg.step = 0.05;       // 13 rows
  cfg.error_points = 13;  // x 13 columns
  cfg.parallelism = static_cast<int>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(sweep_grid(km, cfg));
}
BENCHMARK(BM_GridSweep)->Arg(1)->Arg(4)->ArgName("jobs")->Unit(benchmark::kMillisecond);

/// The full million-point grid as a single timed iteration: what the CI
/// smoke gate runs to prove the demo completes (and how long it takes).
void BM_MillionPointGrid(benchmark::State& state) {
  const KMatrix km = case_study_matrix();
  const GridSweepConfig cfg = million_point_config(static_cast<int>(state.range(0)));
  std::size_t points = 0;
  for (auto _ : state) {
    const GridSweepResult grid = sweep_grid(km, cfg);
    points = grid.points();
    benchmark::DoNotOptimize(points);
  }
  state.counters["points"] = static_cast<double>(points);
}
BENCHMARK(BM_MillionPointGrid)->Arg(0)->ArgName("jobs")->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace symcan::bench

int main(int argc, char** argv) {
  symcan::bench::json_arg(argc, argv);
  symcan::bench::reproduce(symcan::bench::jobs_arg(argc, argv));
  return symcan::bench::run_benchmarks(argc, argv);
}
