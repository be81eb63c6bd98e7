#pragma once

// Timing-budget allocation and trading (paper Section 5.2: "freezing
// certain design parameters can result in new flexibility for other
// decisions and allows trading the timing reserves and budgets for
// different components against each other. This ensures that, at any
// given point in time during the entire development process, the
// remaining flexibility and optimization potential can be controlled and
// exploited.")
//
// Two budget notions, both derived from the schedulability analysis:
//
//  * the *joint* budget: the largest uniform jitter fraction every
//    message may consume simultaneously with the whole matrix provably
//    schedulable — what the OEM writes into every requirement spec;
//  * the *individual* bonus: how far one message may exceed the joint
//    base while all others stay at theirs — the tradeable reserve. Any
//    single supplier may use its bonus; two suppliers exceeding their
//    base at once need an explicit trade (trade_budget).

#include <string>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/can/kmatrix.hpp"

namespace symcan {

struct BudgetReport {
  /// Largest jointly-safe uniform jitter fraction (of each period).
  double joint_fraction = 0;
  /// Per message (KMatrix order): the joint budget in absolute time.
  std::vector<Duration> joint_budget;
  /// Per message: the individually-safe budget (>= joint), valid while
  /// every other message stays at its joint budget.
  std::vector<Duration> individual_budget;

  /// Tradeable reserve of one message.
  Duration bonus(std::size_t i) const { return individual_budget[i] - joint_budget[i]; }
};

/// The single-message search behind the individual budgets, trades and
/// max_own_jitter: the largest jitter of message `index` in [base, its
/// period], to within `resolution`, at which every message of `km` stays
/// schedulable while all other jitters keep their values in `km`. The
/// caller guarantees schedulability at `base`. Throws
/// std::invalid_argument unless `resolution` > 0, std::out_of_range for a
/// bad `index`.
Duration max_single_jitter(KMatrix km, const CanRtaConfig& rta, std::size_t index,
                           Duration base, Duration resolution);

/// Compute joint and individual jitter budgets. The matrix must be
/// schedulable at zero jitter under `rta` (throws std::invalid_argument
/// otherwise — budgets make no sense for a broken design — and for a
/// `search_tolerance` that is not > 0).
BudgetReport allocate_jitter_budgets(const KMatrix& km, const CanRtaConfig& rta,
                                     double search_tolerance = 0.01);

/// Section 5.2's trade: `from` freezes its jitter at `committed` (a real
/// supplier guarantee below its joint budget); everyone else stays at the
/// joint budget. Returns the new maximum jitter budget of `to` — the
/// flexibility released by the commitment. Throws when the messages are
/// unknown or the commitment exceeds `from`'s joint budget.
Duration trade_budget(const KMatrix& km, const CanRtaConfig& rta, const BudgetReport& budgets,
                      const std::string& from, Duration committed, const std::string& to);

}  // namespace symcan
