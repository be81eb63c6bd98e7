#pragma once

// Bound-vs-observed divergence report: the joint of the two
// domain-observability halves. The RTA side claims "no instance of m
// ever responds later than its bound"; the simulator produces concrete
// response times under assumptions the analysis dominates. Observed
// latency above the bound is therefore a *bug* (in the analysis, the
// simulator, or the assumption pairing) and is flagged as a violation;
// the distance below the bound is the pessimism gap — the price of
// analyzing worst-case phasings, stuffing, and error timing that the
// random simulation did not happen to produce.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/sim/simulator.hpp"
#include "symcan/util/time.hpp"

namespace symcan {

/// One message's analytic bound against its simulated behaviour.
struct BoundObservation {
  std::string name;
  Duration bound = Duration::infinite();     ///< Analytic WCRT.
  Duration observed_max = Duration::zero();  ///< Largest simulated response.
  Duration observed_p99 = Duration::zero();  ///< Zero without record_percentiles.
  std::int64_t completions = 0;
  bool diverged = false;   ///< Analysis hit the horizon — no finite bound.
  bool violation = false;  ///< observed_max > bound: soundness bug.

  /// Pessimism gap; infinite when the analysis diverged.
  Duration gap() const { return bound.is_infinite() ? Duration::infinite() : bound - observed_max; }
  /// observed_max / bound in [0, 1] for sound pairs; 0 when unbounded.
  double tightness() const {
    if (bound.is_infinite() || bound <= Duration::zero()) return 0;
    return static_cast<double>(observed_max.count_ns()) / static_cast<double>(bound.count_ns());
  }
};

struct BoundValidation {
  std::vector<BoundObservation> messages;  ///< Analysis order.
  std::size_t violations = 0;
  /// Largest observed/bound ratio across sound, completed messages —
  /// how close the simulation came to the analytic worst case.
  double worst_tightness = 0;

  bool ok() const { return violations == 0; }
};

/// The soundness verdict, written once: the analysis converged, at least
/// one response was observed, and `observed` exceeds the bound.
/// compare_bound_vs_observed applies it to each message's maximum after a
/// run; stream::StreamAnalyzer applies it at every completion.
inline bool exceeds_bound(bool diverged, std::int64_t samples, Duration observed, Duration bound) {
  return !diverged && samples > 0 && observed > bound;
}

/// Join `analysis` and `sim` by message name. Messages missing from the
/// simulation (never completed, or absent) report zero observations and
/// cannot violate.
BoundValidation compare_bound_vs_observed(const BusResult& analysis, const SimResult& sim);

/// Per-message table with gap and tightness columns, violations marked.
std::string validation_to_text(const BoundValidation& v);

/// Machine-readable form; durations in integer nanoseconds.
std::string validation_to_json(const BoundValidation& v);

}  // namespace symcan
