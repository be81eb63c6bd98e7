// design_space: the what-if study an integration engineer runs on a bus
// (paper Figs. 4-6, Sec. 4.3), by direct calls with no CSV parse and no
// render. One pass asks, on the case-study bus and on one 120-message
// bus, for a CLI-default GA priority optimization, an
// NSGA-II run, a jitter sweep, a fault-probability sweep, a jitter x
// error-rate grid plane and the robustness classification, plus one
// compositional analysis of a generated two-bus vehicle. The engineer
// waits for the whole study, so one pass is one answer; its latency is
// the time spent in the library calls, the output checks excluded.

#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "symcan/analysis/columnar.hpp"
#include "symcan/analysis/error_model.hpp"
#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/core/engine.hpp"
#include "symcan/opt/ga.hpp"
#include "symcan/opt/nsga2.hpp"
#include "symcan/pipeline/stages.hpp"
#include "symcan/sensitivity/robustness.hpp"
#include "symcan/sensitivity/sweep.hpp"
#include "symcan/util/rng.hpp"
#include "symcan/workload/powertrain.hpp"
#include "symcan/workload/vehicle.hpp"

namespace perfbench {
namespace {

using namespace symcan;

struct Study {
  std::vector<KMatrix> buses;  ///< The case study, then the 120-message bus.
  System vehicle;
};

/// Both buses are fixed: the GA's cost swings by a third between seeded
/// 120-message buses, which would bury any change under input noise. The
/// workload seed draws the vehicle, the spot-checked points and each
/// pass's optimizer seed (what `symcan optimize --seed` sets), so a run's
/// median pass averages over many GA trajectories.
Study make_study(std::uint64_t seed) {
  Study s;
  s.buses.push_back(generate_powertrain(PowertrainConfig::case_study()));
  PowertrainConfig big;
  big.seed = 120;
  big.message_count = 120;
  big.ecu_count = 10;
  big.target_utilization = 0.60;
  s.buses.push_back(generate_powertrain(big));
  VehicleConfig vc;
  vc.seed = stream_seed(seed, 11);
  s.vehicle = generate_vehicle(vc);
  return s;
}

bool same_verdicts(const MessageResult& a, const MessageResult& b) {
  return a.wcrt == b.wcrt && a.schedulable == b.schedulable && a.diverged == b.diverged;
}

/// Fresh one-shot analysis of `km` with every message's jitter assumed
/// at `fraction` of its period (the sweeps' edit).
BusResult fresh_at_jitter(const KMatrix& km, double fraction, const CanRtaConfig& rta) {
  KMatrix v = km;
  assume_jitter_fraction(v, fraction, true);
  return CanRta{v, rta}.analyze();
}

struct Samples {
  std::vector<double> ga_s, nsga2_s, sweep_s, fault_s, grid_s, robust_s, engine_s;
  std::vector<double> pack_us, solve_us, analyze_us;
  double evaluations = 0, grid_points = 0;
};

class DesignBench {
 public:
  DesignBench(const Options& opt, Result& result)
      : opt_{opt}, result_{result}, rng_{stream_seed(opt.seed, 12)} {}

  void run() {
    // Set-up: the inputs plus one warm-up pass (first-touch allocations,
    // executor start-up), so work moved out of a pass shows here.
    const double setup = median_seconds(kSetupRepeats, [&] {
      study_ = make_study(opt_.seed);
      pass();
    });
    if (!opt_.trace) {
      result_.metric("setup_s", setup);
      const auto t0 = Clock::now();
      std::vector<double> latency_ms;
      do {
        latency_ms.push_back(pass());
      } while (seconds_between(t0, Clock::now()) < opt_.seconds);
      result_.metric("p50_ms", quantile(latency_ms, 0.50));
      result_.metric("p90_ms", quantile(latency_ms, 0.90));
      result_.metric("rps", 1e3 / mean(latency_ms));
      return;
    }

    // Traced: two untraced/traced pairs of passes for the overhead, then
    // traced passes for the rest of the run.
    const auto t0 = Clock::now();
    double plain = 0, traced = 0;
    for (int i = 0; i < 2; ++i) {
      set_tracing(false);
      plain += pass();
      set_tracing(true);
      --passes_;  // the same pass again
      traced += pass();
    }
    result_.metric("bench.tracing_overhead", traced / plain - 1);
    samples_ = Samples{};
    const CpuMeter cpu;
    do {
      pass();
      layer_probes();
    } while (seconds_between(t0, Clock::now()) < opt_.seconds);
    result_.metric("util.cpu_util", cpu.value());

    const Samples& s = samples_;
    result_.metric("opt.ga_s", mean(s.ga_s));
    result_.metric("opt.nsga2_s", mean(s.nsga2_s));
    double opt_secs = 0;
    for (const double x : s.ga_s) opt_secs += x;
    for (const double x : s.nsga2_s) opt_secs += x;
    result_.metric("opt.evals_per_s", opt_secs > 0 ? s.evaluations / opt_secs : 0);
    result_.metric("sensitivity.sweep_jitter_s", mean(s.sweep_s));
    result_.metric("sensitivity.fault_sweep_s", mean(s.fault_s));
    result_.metric("sensitivity.robustness_s", mean(s.robust_s));
    double grid_secs = 0;
    for (const double x : s.grid_s) grid_secs += x;
    result_.metric("sensitivity.grid_points_per_s", grid_secs > 0 ? s.grid_points / grid_secs : 0);
    result_.metric("core.engine_ms", 1e3 * mean(s.engine_s));
    result_.metric("analysis.pack_us", mean(s.pack_us));
    result_.metric("analysis.solve_us", mean(s.solve_us));
    result_.metric("analysis.analyze_us", mean(s.analyze_us));
  }

 private:
  /// Times one query into `seconds` and the pass's latency, and records
  /// it as a span.
  template <typename F>
  decltype(auto) query(const char* name, std::vector<double>& seconds, F&& fn) {
    struct Done {
      const char* name;
      std::vector<double>& seconds;
      double& pass_ms;
      Clock::time_point t0 = Clock::now();
      ~Done() {
        const auto t1 = Clock::now();
        seconds.push_back(seconds_between(t0, t1));
        pass_ms += 1e3 * seconds.back();
        record_span(name, t0, t1);
      }
    } done{name, seconds, pass_ms_};
    return fn();
  }

  /// One pass of the study; returns its latency in ms.
  double pass() {
    ga_seed_ = stream_seed(opt_.seed, 13, passes_++);
    pass_ms_ = 0;
    const auto t0 = Clock::now();
    for (const KMatrix& km : study_.buses) bus_queries(km);
    const SystemResult sys = query("core.engine", samples_.engine_s, [&] {
      return Engine{study_.vehicle, EngineConfig{}}.analyze();
    });
    bool paths_ok = sys.converged && !sys.paths.empty();
    for (const PathResult& p : sys.paths) paths_ok = paths_ok && p.latency_min <= p.latency_max;
    result_.check(paths_ok, "engine converged with ordered path latencies");
    record_span("design_space.pass", t0, Clock::now());
    return pass_ms_;
  }

  void bus_queries(const KMatrix& km) {
    const CanRtaConfig rta = worst_case_assumptions();
    const BusResult base = CanRta{km, rta}.analyze();

    // GA and NSGA-II with the configuration `symcan optimize` builds.
    pipeline::OptimizeSpec spec;
    spec.seed = ga_seed_;
    spec.jobs = kWidth;
    const GaConfig ga = pipeline::ga_config_for(km, spec);
    double seed_misses = static_cast<double>(km.size());
    for (const PriorityOrder& order : ga.seeds)
      seed_misses = std::min(seed_misses, evaluate_order(km, order, ga).misses);
    const GaResult g = query("opt.ga", samples_.ga_s, [&] { return optimize_priorities(km, ga); });
    result_.check(g.best.misses <= seed_misses, "GA best misses <= best seed order's");
    const GaResult ns =
        query("opt.nsga2", samples_.nsga2_s, [&] { return optimize_priorities_nsga2(km, ga); });
    result_.check(ns.best.misses <= seed_misses && !ns.pareto.empty(),
                  "NSGA-II best misses <= best seed order's");
    samples_.evaluations += g.evaluations + ns.evaluations;

    JitterSweepConfig jc;
    jc.rta = rta;
    jc.parallelism = kWidth;
    const JitterSweepResult sw =
        query("sensitivity.sweep_jitter", samples_.sweep_s, [&] { return sweep_jitter(km, jc); });
    {
      const std::size_t i = rng_.index(sw.fractions.size());
      const BusResult fresh = fresh_at_jitter(km, sw.fractions[i], rta);
      const std::size_t m = rng_.index(km.size());
      result_.check(same_verdicts(sw.results[i].messages[m], fresh.messages[m]),
                    "jitter sweep point matches a fresh CanRta");
    }

    FaultSweepConfig fc;
    fc.rta = rta;
    fc.parallelism = kWidth;
    const FaultSweepResult fs = query("sensitivity.fault_sweep", samples_.fault_s,
                                      [&] { return sweep_fault_probability(km, fc); });
    {
      const std::size_t i = rng_.index(fs.fault_ppm.size());
      const std::size_t m = rng_.index(km.size());
      result_.check(same_verdicts(fs.results[i].messages[m].det, base.messages[m]),
                    "fault sweep point's deterministic verdict matches a fresh CanRta");
    }

    GridSweepConfig gc;
    gc.rta = rta;
    gc.parallelism = kWidth;
    const GridSweepResult grid =
        query("sensitivity.grid", samples_.grid_s, [&] { return sweep_grid(km, gc); });
    samples_.grid_points += static_cast<double>(grid.points());
    {
      const std::size_t row = rng_.index(grid.rows()), col = rng_.index(grid.cols());
      CanRtaConfig cell = rta;
      cell.errors = std::make_shared<SporadicErrors>(grid.min_inter_error[col]);
      const BusResult fresh = fresh_at_jitter(km, grid.fractions[row], cell);
      Duration worst = Duration::zero();
      for (const MessageResult& r : fresh.messages) worst = max(worst, r.wcrt);
      result_.check(
          grid.miss_at(row, col) == fresh.miss_fraction() && grid.wcrt_at(row, col) == worst,
          "grid cell matches a fresh CanRta");
    }

    const SensitivityReport rep = query("sensitivity.robustness", samples_.robust_s,
                                        [&] { return analyze_sensitivity(km, jc); });
    {
      const BusResult fresh = fresh_at_jitter(km, jc.from, rta);
      const std::size_t m = rng_.index(km.size());
      result_.check(rep.messages.size() == km.size() &&
                        rep.messages[m].wcrt_at_zero == fresh.messages[m].wcrt,
                    "robustness report's zero-jitter bound matches a fresh CanRta");
    }
  }

  /// Traced runs only: the solver layers on the study's buses.
  void layer_probes() {
    const CanRtaConfig rta = worst_case_assumptions();
    for (const KMatrix& km : study_.buses) {
      analysis::ColumnarBus bus;
      timed("analysis.pack", samples_.pack_us, [&] { analysis::pack_bus(km, rta, bus); });
      timed("analysis.solve", samples_.solve_us, [&] {
        for (std::size_t m = 0; m < bus.size(); ++m) analysis::solve_columnar(bus, m);
      });
      IncrementalRta cold;
      timed("analysis.analyze", samples_.analyze_us, [&] { return cold.analyze(km, rta); });
    }
  }

  const Options& opt_;
  Result& result_;
  Rng rng_;
  Study study_;
  Samples samples_;
  double pass_ms_ = 0;
  std::size_t passes_ = 0;
  std::uint64_t ga_seed_ = 0;
};

}  // namespace

void run_design_space(const Options& opt, Result& result) { DesignBench{opt, result}.run(); }

}  // namespace perfbench
