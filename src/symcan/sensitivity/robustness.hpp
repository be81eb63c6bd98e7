#pragma once

// Robustness classification and tolerable-jitter search (paper Section
// 4.1, following Racu, Jersak & Ernst, "Applying sensitivity analysis in
// real-time distributed systems", RTAS 2005).
//
// "A message whose response time increases fast with increasing jitter is
// considered sensitive, messages with relatively constant response times
// are considered robust against jitters."

#include <string>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/can/kmatrix.hpp"
#include "symcan/sensitivity/sweep.hpp"

namespace symcan {

/// The four visual classes of Figure 4.
enum class Robustness : std::uint8_t {
  kRobust,         ///< Response essentially flat over the swept jitter range.
  kMedium,         ///< Noticeable but bounded growth.
  kSensitive,      ///< Fast growth; candidate for supplier jitter constraints.
  kVerySensitive,  ///< Steep growth or divergence within the sweep.
};

const char* to_string(Robustness r);

/// Classification thresholds on relative response-time growth
/// (wcrt_at_max / wcrt_at_zero - 1) across the sweep.
struct RobustnessThresholds {
  double robust_below = 0.15;
  double medium_below = 0.75;
  double sensitive_below = 2.50;
};

/// Per-message sensitivity summary.
struct MessageSensitivity {
  std::string name;
  CanId id = 0;
  Duration wcrt_at_zero = Duration::zero();
  Duration wcrt_at_max = Duration::zero();
  double relative_growth = 0;  ///< wcrt_at_max / wcrt_at_zero - 1 (inf on divergence).
  Robustness cls = Robustness::kRobust;
  /// Largest uniform jitter fraction at which this message still meets
  /// its deadline (binary search; > sweep max reported as the cap used).
  double max_tolerable_fraction = 0;
};

struct SensitivityReport {
  std::vector<MessageSensitivity> messages;  ///< KMatrix order.
  std::size_t count(Robustness r) const;
};

/// Classify every message from a jitter sweep and search each message's
/// tolerable-jitter boundary under the same analysis configuration.
SensitivityReport analyze_sensitivity(const KMatrix& km, const JitterSweepConfig& cfg,
                                      RobustnessThresholds th = {});

/// Binary-search the largest uniform jitter fraction (applied to all
/// messages, unknown-jitter only unless override_known) at which
/// `message` still meets its deadline. Searches [0, cap]; returns cap if
/// schedulable everywhere, 0 if unschedulable at zero jitter. Throws
/// std::invalid_argument for an unknown message, and for a tolerance that
/// is not > 0 unless the zero-jitter probe already returned 0.
///
/// When `cache` is non-null, single-message probes are memoized through
/// it — the searches for different messages revisit the same jitter
/// fractions, so a shared cache collapses most probes to lookups.
double max_tolerable_jitter_fraction(const KMatrix& km, const CanRtaConfig& rta,
                                     const std::string& message, double cap = 1.0,
                                     double tolerance = 0.005, bool override_known = true,
                                     IncrementalRta* cache = nullptr);

}  // namespace symcan
