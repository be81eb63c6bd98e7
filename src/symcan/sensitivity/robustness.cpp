#include "symcan/sensitivity/robustness.hpp"

#include <limits>
#include <optional>
#include <stdexcept>

#include "symcan/analysis/provenance.hpp"
#include "symcan/util/parallel.hpp"
#include "symcan/util/search.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {

const char* to_string(Robustness r) {
  switch (r) {
    case Robustness::kRobust:
      return "robust";
    case Robustness::kMedium:
      return "medium";
    case Robustness::kSensitive:
      return "sensitive";
    case Robustness::kVerySensitive:
      return "very-sensitive";
  }
  return "?";
}

std::size_t SensitivityReport::count(Robustness r) const {
  std::size_t n = 0;
  for (const auto& m : messages)
    if (m.cls == r) ++n;
  return n;
}

SensitivityReport analyze_sensitivity(const KMatrix& km, const JitterSweepConfig& cfg,
                                      RobustnessThresholds th) {
  const JitterSweepResult sweep = sweep_jitter(km, cfg);
  if (sweep.results.empty()) throw std::invalid_argument("analyze_sensitivity: empty sweep");
  const BusResult& first = sweep.results.front();
  const BusResult& last = sweep.results.back();

  SensitivityReport report;
  // Each message's classification and tolerable-jitter search is
  // independent of every other message's, so fan them out. The searches
  // probe overlapping jitter fractions, so they share one RTA memo.
  ParallelExecutor exec{cfg.parallelism};
  IncrementalRta cache{cfg.cache};
  report.messages = exec.parallel_map_indexed(km.size(), [&](std::size_t i) {
    MessageSensitivity s;
    s.name = km.messages()[i].name;
    s.id = km.messages()[i].id;
    s.wcrt_at_zero = first.messages[i].wcrt;
    s.wcrt_at_max = last.messages[i].wcrt;
    if (s.wcrt_at_max.is_infinite() || s.wcrt_at_zero <= Duration::zero()) {
      s.relative_growth = std::numeric_limits<double>::infinity();
      s.cls = Robustness::kVerySensitive;
    } else {
      s.relative_growth = static_cast<double>(s.wcrt_at_max.count_ns()) /
                              static_cast<double>(s.wcrt_at_zero.count_ns()) -
                          1.0;
      if (s.relative_growth < th.robust_below)
        s.cls = Robustness::kRobust;
      else if (s.relative_growth < th.medium_below)
        s.cls = Robustness::kMedium;
      else if (s.relative_growth < th.sensitive_below)
        s.cls = Robustness::kSensitive;
      else
        s.cls = Robustness::kVerySensitive;
    }
    s.max_tolerable_fraction =
        max_tolerable_jitter_fraction(km, cfg.rta, s.name, 1.0, 0.005, cfg.override_known, &cache);
    return s;
  });
  return report;
}

double max_tolerable_jitter_fraction(const KMatrix& km, const CanRtaConfig& rta,
                                     const std::string& message, double cap, double tolerance,
                                     bool override_known, IncrementalRta* cache) {
  const std::optional<std::size_t> index = analysis::find_message(km, message);
  if (!index)
    throw std::invalid_argument("max_tolerable_jitter_fraction: unknown message " + message);

  KMatrix variant = km;
  const auto ok = [&](double fraction) {
    assume_jitter_fraction(variant, fraction, override_known);
    if (cache) return cache->analyze_message(variant, rta, *index).schedulable;
    return CanRta{variant, rta}.analyze_message(*index).schedulable;
  };
  if (!ok(0.0)) return 0.0;
  return largest_feasible(0.0, cap, tolerance, ok);
}

}  // namespace symcan
