#include "symcan/pipeline/stages.hpp"

#include <ostream>
#include <stdexcept>

#include "symcan/analysis/load.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/analysis/provenance.hpp"
#include "symcan/can/kmatrix_io.hpp"
#include "symcan/opt/assignment.hpp"
#include "symcan/sim/validation.hpp"
#include "symcan/obs/obs.hpp"
#include "symcan/util/table.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan::pipeline {

const char* to_string(AssumptionPreset preset) {
  switch (preset) {
    case AssumptionPreset::kWorstCase: return "worst-case";
    case AssumptionPreset::kBestCase: return "best-case";
    case AssumptionPreset::kDefault: break;
  }
  return "default";
}

bool preset_from_string(const std::string& text, AssumptionPreset& out) {
  if (text == "default") out = AssumptionPreset::kDefault;
  else if (text == "worst-case") out = AssumptionPreset::kWorstCase;
  else if (text == "best-case") out = AssumptionPreset::kBestCase;
  else return false;
  return true;
}

CanRtaConfig assumptions_for(AssumptionPreset preset) {
  if (preset == AssumptionPreset::kWorstCase) return worst_case_assumptions();
  if (preset == AssumptionPreset::kBestCase) return best_case_assumptions();
  // Default: stuffing + no errors + period deadlines.
  CanRtaConfig cfg;
  cfg.worst_case_stuffing = true;
  cfg.deadline_override = DeadlinePolicy::kPeriod;
  return cfg;
}

void apply_matrix_spec(KMatrix& km, const MatrixSpec& spec) {
  if (spec.jitter >= 0) assume_jitter_fraction(km, spec.jitter, spec.override_known);
}

SimErrorProcess sim_errors_for(const ErrorSpec& spec) {
  const auto gap = [&](std::int64_t fallback) {
    const std::int64_t ms = spec.gap_ms < 0 ? fallback : spec.gap_ms;
    if (ms <= 0) throw std::invalid_argument("error gap must be positive");
    return Duration::ms(ms);
  };
  if (spec.kind == "sporadic") return SimErrorProcess::sporadic(gap(40));
  if (spec.kind == "burst") return SimErrorProcess::burst(gap(25), 4);
  if (spec.kind != "none") throw std::invalid_argument("--errors must be none|sporadic|burst");
  return SimErrorProcess::none();
}

std::shared_ptr<const ErrorModel> matching_error_model(const SimErrorProcess& p) {
  switch (p.kind) {
    case SimErrorProcess::Kind::kSporadic: return std::make_shared<SporadicErrors>(p.min_gap);
    case SimErrorProcess::Kind::kBurst:
      return std::make_shared<BurstErrors>(p.min_gap, p.burst_len);
    case SimErrorProcess::Kind::kNone: break;
  }
  return std::make_shared<NoErrors>();
}

namespace {

/// Cache-off analysis under CanRta's checks, without its matrix copy.
BusResult analyze_uncached(const KMatrix& km, const CanRtaConfig& cfg) {
  if (!cfg.errors) throw std::invalid_argument("CanRta: error model must not be null");
  km.validate();
  return analysis::analyze_bus(km, cfg);
}

}  // namespace

int render_analyze(const KMatrix& km, const CanRtaConfig& cfg, std::ostream& out,
                   analysis::IncrementalRta* cache) {
  SYMCAN_OBS_SPAN("pipeline.analyze");
  const LoadReport load = analyze_load(km, cfg.worst_case_stuffing);
  std::string text;
  appendf(text, "bus %s: %zu messages, load %.1f%% of %.0f kbit/s\n", km.bus_name().c_str(),
          km.size(), 100 * load.utilization, load.bandwidth_bps / 1000);

  const BusResult res = cache ? cache->analyze(km, cfg) : analyze_uncached(km, cfg);
  TextTable t;
  t.header({"message", "id", "wcrt", "deadline", "slack", "verdict"});
  for (const std::size_t i : km.priority_order()) {
    const MessageResult& m = res.messages[i];
    t.cell(m.name).cell_id(m.id).cell(m.wcrt).cell(m.deadline).cell(m.slack());
    t.cell(m.schedulable ? "ok" : "MISS").end_row();
  }
  t.render(text);
  appendf(text, "misses: %zu/%zu\n", res.miss_count(), res.messages.size());
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return res.all_schedulable() ? 0 : 1;
}

int render_prob(const KMatrix& km, const CanRtaConfig& cfg, const ProbSpec& spec,
                std::ostream& out, analysis::IncrementalRta* cache) {
  SYMCAN_OBS_SPAN("pipeline.prob");
  ProbRtaConfig pcfg;
  pcfg.rta = cfg;
  pcfg.fault_ppm = spec.fault_ppm;
  pcfg.stuff_ppm = spec.stuff_ppm;
  pcfg.jitter_ppm = spec.jitter_ppm;
  pcfg.max_rungs = spec.max_rungs;
  pcfg.parallelism = spec.jobs;
  analysis::validate_prob_config(pcfg);

  const LoadReport load = analyze_load(km, cfg.worst_case_stuffing);
  std::string text;
  appendf(text, "bus %s: %zu messages, load %.1f%% of %.0f kbit/s\n", km.bus_name().c_str(),
          km.size(), 100 * load.utilization, load.bandwidth_bps / 1000);
  appendf(text, "probabilities (ppm): fault %lld, worst-case stuffing %lld, jitter %lld\n",
          static_cast<long long>(spec.fault_ppm), static_cast<long long>(spec.stuff_ppm),
          static_cast<long long>(spec.jitter_ppm));

  const ProbBusResult res =
      cache ? cache->analyze_prob(km, pcfg) : analysis::analyze_prob(km, pcfg);
  TextTable t;
  t.header({"message", "id", "det wcrt", "deadline", "miss ppm", "atoms", "verdict"});
  for (const std::size_t i : km.priority_order()) {
    const ProbMessageResult& m = res.messages[i];
    t.cell(m.det.name).cell_id(m.det.id).cell(m.det.wcrt).cell(m.det.deadline);
    t.cell_int(m.miss_ppm()).cell_int(static_cast<std::int64_t>(m.response.atoms().size()));
    t.cell(m.miss_weight == 0 ? "ok" : "AT-RISK").end_row();
  }
  t.render(text);
  appendf(text, "at-risk: %zu/%zu\n", res.miss_count(), res.messages.size());
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return res.miss_count() == 0 ? 0 : 1;
}

int render_explain(const KMatrix& km, const CanRtaConfig& cfg, const std::string& message,
                   bool json, std::ostream& out) {
  SYMCAN_OBS_SPAN("pipeline.explain");
  const std::optional<std::size_t> index = analysis::find_message(km, message);
  if (!index)
    throw std::invalid_argument("no message named '" + message + "' in " + km.bus_name());
  const analysis::Provenance p = analysis::explain_message(km, cfg, *index);
  if (json)
    out << analysis::provenance_to_json(p) << "\n";
  else
    out << analysis::provenance_to_text(p);
  return p.result.schedulable ? 0 : 1;
}

int render_validate(const KMatrix& km, const ValidateSpec& spec, std::ostream& out,
                    analysis::IncrementalRta* cache) {
  SYMCAN_OBS_SPAN("pipeline.validate");
  if (spec.millis <= 0) throw std::invalid_argument("millis must be positive");
  SimConfig sim;
  sim.duration = Duration::ms(spec.millis);
  sim.seed = spec.seed;
  sim.errors = sim_errors_for(spec.errors);
  sim.stuffing = StuffingMode::kRandom;
  sim.randomize_jitter = true;
  sim.record_percentiles = true;

  // The analysis must dominate the simulation for its bounds to be valid
  // oracles: worst-case stuffing over sampled stuffing, and an error
  // model admitting every injected fault. Assumption presets are
  // deliberately not offered here — --best-case would make a reported
  // "violation" meaningless.
  CanRtaConfig rta;
  rta.worst_case_stuffing = true;
  rta.deadline_override = DeadlinePolicy::kPeriod;
  rta.errors = matching_error_model(sim.errors);

  const BusResult bounds = cache ? cache->analyze(km, rta) : analyze_uncached(km, rta);
  const BoundValidation v = compare_bound_vs_observed(bounds, simulate(km, sim));
  if (spec.json)
    out << validation_to_json(v) << "\n";
  else
    out << validation_to_text(v);
  return v.ok() ? 0 : 1;
}

GaConfig ga_config_for(const KMatrix& km, const OptimizeSpec& spec) {
  if (spec.generations <= 0) throw std::invalid_argument("generations must be positive");
  if (spec.population <= 0) throw std::invalid_argument("population must be positive");
  GaConfig cfg;
  cfg.rta = spec.best_case ? best_case_assumptions() : worst_case_assumptions();
  cfg.seed = spec.seed;
  cfg.generations = spec.generations;
  cfg.population = spec.population;
  cfg.archive = std::max(2, cfg.population / 2);
  cfg.eval_fractions = {spec.target_jitter};
  cfg.seeds = {current_order(km), deadline_monotonic_order(km)};
  cfg.parallelism = spec.jobs;
  cfg.cache = spec.cache;
  return cfg;
}

OptimizeOutcome run_optimize(const KMatrix& km, const OptimizeSpec& spec) {
  const GaConfig cfg = ga_config_for(km, spec);
  GaResult res = optimize_priorities(km, cfg);
  KMatrix optimized = apply_priority_order(km, res.best.order);
  return {std::move(res), std::move(optimized)};
}

int render_optimize(const KMatrix& km, const OptimizeSpec& spec, std::ostream& out) {
  SYMCAN_OBS_SPAN("pipeline.optimize");
  const OptimizeOutcome o = run_optimize(km, spec);
  out << strprintf("GA: %d evaluations, best misses %.0f, robustness cost %.3f\n",
                   o.result.evaluations, o.result.best.misses, o.result.best.robustness_cost);
  out << kmatrix_to_csv(o.optimized);
  return o.result.best.misses == 0 ? 0 : 1;
}

}  // namespace symcan::pipeline
