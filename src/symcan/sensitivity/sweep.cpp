#include "symcan/sensitivity/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "symcan/analysis/columnar.hpp"
#include "symcan/obs/obs.hpp"
#include "symcan/util/parallel.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {

std::vector<Duration> JitterSweepResult::response_curve(const std::string& message) const {
  std::vector<Duration> curve;
  curve.reserve(results.size());
  for (const auto& r : results) {
    bool found = false;
    for (const auto& m : r.messages) {
      if (m.name == message) {
        curve.push_back(m.wcrt);
        found = true;
        break;
      }
    }
    if (!found) throw std::invalid_argument("response_curve: unknown message " + message);
  }
  return curve;
}

JitterSweepResult sweep_jitter(const KMatrix& km, const JitterSweepConfig& cfg) {
  if (cfg.step <= 0 || cfg.to < cfg.from)
    throw std::invalid_argument("sweep_jitter: bad sweep bounds");
  JitterSweepResult out;
  // Half-step epsilon keeps the endpoint inclusive despite FP accumulation.
  for (double f = cfg.from; f <= cfg.to + cfg.step / 2; f += cfg.step) out.fractions.push_back(f);
  ParallelExecutor exec{cfg.parallelism};
  IncrementalRta rta{cfg.cache};
  {
    SYMCAN_OBS_SPAN("sweep.jitter");
    out.results = exec.parallel_map_tiled(out.fractions, [&](double f) {
      KMatrix variant = km;
      assume_jitter_fraction(variant, f, cfg.override_known);
      return rta.analyze(variant, cfg.rta);
    });
  }
  if (obs::enabled()) {
    obs::count("sweep.jitter.points", static_cast<std::int64_t>(out.fractions.size()));
    auto& series = obs::metrics().series("sweep.jitter");
    for (std::size_t i = 0; i < out.results.size(); ++i)
      series.append({{"fraction", out.fractions[i]},
                     {"miss_fraction", out.results[i].miss_fraction()},
                     {"utilization", out.results[i].utilization}});
  }
  return out;
}

ErrorSweepResult sweep_errors(const KMatrix& km, const ErrorSweepConfig& cfg) {
  if (cfg.points < 2) throw std::invalid_argument("sweep_errors: need >= 2 points");
  if (cfg.from <= cfg.to) throw std::invalid_argument("sweep_errors: from must exceed to");
  ErrorSweepResult out;
  const double lo = std::log(static_cast<double>(cfg.to.count_ns()));
  const double hi = std::log(static_cast<double>(cfg.from.count_ns()));
  for (int i = 0; i < cfg.points; ++i) {
    const double t = hi - (hi - lo) * static_cast<double>(i) / (cfg.points - 1);
    out.min_inter_error.push_back(Duration::ns(static_cast<std::int64_t>(std::exp(t))));
  }
  ParallelExecutor exec{cfg.parallelism};
  IncrementalRta rta{cfg.cache};
  {
    SYMCAN_OBS_SPAN("sweep.errors");
    out.results = exec.parallel_map_tiled(out.min_inter_error, [&](Duration gap) {
      CanRtaConfig point = cfg.rta;
      point.errors = std::make_shared<SporadicErrors>(gap);
      return rta.analyze(km, point);
    });
  }
  if (obs::enabled()) {
    obs::count("sweep.errors.points", static_cast<std::int64_t>(out.min_inter_error.size()));
    auto& series = obs::metrics().series("sweep.errors");
    for (std::size_t i = 0; i < out.results.size(); ++i)
      series.append({{"min_inter_error_ms", out.min_inter_error[i].as_ms()},
                     {"miss_fraction", out.results[i].miss_fraction()},
                     {"utilization", out.results[i].utilization}});
  }
  return out;
}

std::int64_t FaultSweepResult::worst_miss_ppm(std::size_t i) const {
  std::int64_t worst = 0;
  for (const auto& m : results.at(i).messages) worst = std::max(worst, m.miss_ppm());
  return worst;
}

FaultSweepResult sweep_fault_probability(const KMatrix& km, const FaultSweepConfig& cfg) {
  if (cfg.points < 2) throw std::invalid_argument("sweep_fault_probability: need >= 2 points");
  if (cfg.from_ppm <= cfg.to_ppm)
    throw std::invalid_argument("sweep_fault_probability: from_ppm must exceed to_ppm");
  if (cfg.to_ppm < 1 || cfg.from_ppm > 1'000'000)
    throw std::invalid_argument("sweep_fault_probability: ppm bounds must lie in [1, 1000000]");
  FaultSweepResult out;
  const double lo = std::log(static_cast<double>(cfg.to_ppm));
  const double hi = std::log(static_cast<double>(cfg.from_ppm));
  for (int i = 0; i < cfg.points; ++i) {
    const double t = hi - (hi - lo) * static_cast<double>(i) / (cfg.points - 1);
    out.fault_ppm.push_back(static_cast<std::int64_t>(std::exp(t)));
  }
  ParallelExecutor exec{cfg.parallelism};
  IncrementalRta rta{cfg.cache};
  {
    SYMCAN_OBS_SPAN("sweep.prob");
    out.results = exec.parallel_map_tiled(out.fault_ppm, [&](std::int64_t ppm) {
      analysis::ProbRtaConfig point;
      point.rta = cfg.rta;
      point.fault_ppm = ppm;
      point.stuff_ppm = cfg.stuff_ppm;
      point.jitter_ppm = cfg.jitter_ppm;
      point.max_rungs = cfg.max_rungs;
      // The sweep fans out over points; each point stays serial.
      point.parallelism = 1;
      return rta.analyze_prob(km, point);
    });
  }
  if (obs::enabled()) {
    obs::count("sweep.prob.points", static_cast<std::int64_t>(out.fault_ppm.size()));
    auto& series = obs::metrics().series("sweep.prob");
    for (std::size_t i = 0; i < out.results.size(); ++i)
      series.append({{"fault_ppm", static_cast<double>(out.fault_ppm[i])},
                     {"at_risk_fraction", out.at_risk_fraction(i)},
                     {"worst_miss_ppm", static_cast<double>(out.worst_miss_ppm(i))}});
  }
  return out;
}

GridSweepResult sweep_grid(const KMatrix& km, const GridSweepConfig& cfg) {
  if (cfg.step <= 0 || cfg.to < cfg.from)
    throw std::invalid_argument("sweep_grid: bad jitter bounds");
  if (cfg.error_points < 2) throw std::invalid_argument("sweep_grid: need >= 2 error points");
  if (cfg.error_from <= cfg.error_to)
    throw std::invalid_argument("sweep_grid: error_from must exceed error_to");
  if (!cfg.rta.errors) throw std::invalid_argument("sweep_grid: error model must not be null");
  km.validate();

  GridSweepResult out;
  for (double f = cfg.from; f <= cfg.to + cfg.step / 2; f += cfg.step) out.fractions.push_back(f);
  const double lo = std::log(static_cast<double>(cfg.error_to.count_ns()));
  const double hi = std::log(static_cast<double>(cfg.error_from.count_ns()));
  for (int i = 0; i < cfg.error_points; ++i) {
    const double t = hi - (hi - lo) * static_cast<double>(i) / (cfg.error_points - 1);
    out.min_inter_error.push_back(Duration::ns(static_cast<std::int64_t>(std::exp(t))));
  }
  out.messages = km.size();
  const std::size_t cols = out.min_inter_error.size();
  const std::size_t n = km.size();

  struct Cell {
    double miss_fraction;
    Duration worst_wcrt;
  };
  ParallelExecutor exec{cfg.parallelism};
  std::vector<std::vector<Cell>> rows;
  {
    SYMCAN_OBS_SPAN("sweep.grid");
    rows = exec.parallel_map_tiled(out.fractions, [&](double f) {
      // One pack per row: the jitter edit changes the columns, the
      // error model does not (it is per-solve state), so every
      // column of this row solves from the same arena.
      static thread_local analysis::ColumnarBus bus;
      KMatrix variant = km;
      assume_jitter_fraction(variant, f, cfg.override_known);
      analysis::pack_bus(variant, cfg.rta, bus);
      std::vector<Cell> row;
      row.reserve(cols);
      for (const Duration gap : out.min_inter_error) {
        const SporadicErrors errors{gap};
        std::size_t misses = 0;
        Duration worst = Duration::zero();
        for (std::size_t i = 0; i < n; ++i) {
          const MessageResult r = analysis::solve_columnar(bus, i, errors);
          if (!r.schedulable) ++misses;
          worst = max(worst, r.wcrt);
        }
        row.push_back(
            Cell{n > 0 ? static_cast<double>(misses) / static_cast<double>(n) : 0.0, worst});
      }
      return row;
    });
  }
  out.miss_fraction.reserve(out.cells());
  out.worst_wcrt.reserve(out.cells());
  for (const auto& row : rows) {
    for (const Cell& c : row) {
      out.miss_fraction.push_back(c.miss_fraction);
      out.worst_wcrt.push_back(c.worst_wcrt);
    }
  }
  if (obs::enabled()) {
    obs::count("sweep.grid.cells", static_cast<std::int64_t>(out.cells()));
    obs::count("sweep.grid.points", static_cast<std::int64_t>(out.points()));
  }
  return out;
}

}  // namespace symcan
