#include "symcan/supplychain/risk.hpp"

#include <cmath>
#include <stdexcept>

#include "symcan/util/rng.hpp"

namespace symcan {

namespace {

void check_inputs(const KMatrix& km, const std::vector<SupplierRisk>& risks) {
  km.validate();
  if (risks.empty()) throw std::invalid_argument("assess_supplier_risk: no suppliers");
  for (const auto& r : risks) {
    if (km.find_node(r.ecu) == nullptr)
      throw std::invalid_argument("assess_supplier_risk: unknown ECU " + r.ecu);
    if (r.overrun_probability < 0 || r.overrun_probability > 1)
      throw std::invalid_argument("assess_supplier_risk: probability out of [0,1] for " + r.ecu);
    if (r.overrun_jitter_factor < 1)
      throw std::invalid_argument("assess_supplier_risk: overrun factor below 1 for " + r.ecu);
  }
}

KMatrix apply_scenario(const KMatrix& km, const std::vector<SupplierRisk>& risks,
                       const std::vector<bool>& overruns) {
  KMatrix out = km;
  for (std::size_t i = 0; i < risks.size(); ++i) {
    if (!overruns[i]) continue;
    for (auto& m : out.messages()) {
      if (m.sender != risks[i].ecu) continue;
      const double scaled =
          risks[i].overrun_jitter_factor * static_cast<double>(m.jitter.count_ns());
      m.jitter = min(Duration::ns(static_cast<std::int64_t>(scaled)), m.period);
    }
  }
  return out;
}

double scenario_probability(const std::vector<SupplierRisk>& risks,
                            const std::vector<bool>& overruns) {
  double p = 1;
  for (std::size_t i = 0; i < risks.size(); ++i)
    p *= overruns[i] ? risks[i].overrun_probability : 1 - risks[i].overrun_probability;
  return p;
}

RiskScenario evaluate(const KMatrix& km, const std::vector<SupplierRisk>& risks,
                      const RiskConfig& cfg, std::vector<bool> overruns) {
  RiskScenario s;
  s.overruns = std::move(overruns);
  s.probability = scenario_probability(risks, s.overruns);
  const BusResult res = analysis::analyze_uncached(apply_scenario(km, risks, s.overruns), cfg.rta);
  s.misses = res.miss_count();
  s.penalty = cfg.penalty_per_miss * static_cast<double>(s.misses);
  return s;
}

}  // namespace

RiskReport assess_supplier_risk(const KMatrix& km, const std::vector<SupplierRisk>& risks,
                                const RiskConfig& cfg) {
  check_inputs(km, risks);
  RiskReport report;
  for (const auto& r : risks) report.suppliers.push_back(r.ecu);
  const std::size_t n = risks.size();

  // Accumulators for conditional expectations.
  std::vector<double> penalty_given_overrun(n, 0), weight_given_overrun(n, 0);
  std::vector<double> penalty_given_ontime(n, 0), weight_given_ontime(n, 0);

  auto absorb = [&](const RiskScenario& s, double weight) {
    report.expected_penalty += weight * s.penalty;
    for (std::size_t i = 0; i < n; ++i) {
      if (s.overruns[i]) {
        penalty_given_overrun[i] += weight * s.penalty;
        weight_given_overrun[i] += weight;
      } else {
        penalty_given_ontime[i] += weight * s.penalty;
        weight_given_ontime[i] += weight;
      }
    }
    if (s.penalty > report.worst.penalty ||
        (s.penalty == report.worst.penalty && s.probability > report.worst.probability))
      report.worst = s;
  };

  const bool exhaustive = n < 63 && (std::size_t{1} << n) <= cfg.max_enumeration;
  report.exhaustive = exhaustive;
  if (exhaustive) {
    const std::size_t combos = std::size_t{1} << n;
    for (std::size_t mask = 0; mask < combos; ++mask) {
      std::vector<bool> overruns(n);
      for (std::size_t i = 0; i < n; ++i) overruns[i] = (mask >> i) & 1;
      const RiskScenario s = evaluate(km, risks, cfg, std::move(overruns));
      absorb(s, s.probability);
      ++report.scenarios_evaluated;
    }
  } else {
    Rng rng{cfg.seed};
    const double w = 1.0 / static_cast<double>(cfg.samples);
    for (std::size_t k = 0; k < cfg.samples; ++k) {
      std::vector<bool> overruns(n);
      for (std::size_t i = 0; i < n; ++i) overruns[i] = rng.chance(risks[i].overrun_probability);
      const RiskScenario s = evaluate(km, risks, cfg, std::move(overruns));
      absorb(s, w);
      ++report.scenarios_evaluated;
    }
  }

  report.criticality.resize(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const double over =
        weight_given_overrun[i] > 0 ? penalty_given_overrun[i] / weight_given_overrun[i] : 0;
    const double ontime =
        weight_given_ontime[i] > 0 ? penalty_given_ontime[i] / weight_given_ontime[i] : 0;
    report.criticality[i] = over - ontime;
  }
  return report;
}

}  // namespace symcan
