#pragma once

// CAN-ID (priority) assignment: shared representation plus the classic
// deterministic baselines the genetic optimizer is compared against.
//
// An assignment is a priority order: order[rank] = index into
// KMatrix::messages() of the message holding that rank (rank 0 = highest
// priority = numerically lowest CAN ID).

#include <cstddef>
#include <optional>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/can/kmatrix.hpp"

namespace symcan {

using PriorityOrder = std::vector<std::size_t>;

/// Rewrite message IDs per `order`: rank r gets ID base + r*spacing
/// (spacing leaves room for later insertions, like real matrices do).
/// All other fields are preserved. `order` must be a permutation of
/// [0, km.size()).
KMatrix apply_priority_order(const KMatrix& km, const PriorityOrder& order, CanId base = 0x100,
                             CanId spacing = 8);

/// Hot-loop variant: write the reordered matrix into `out` (copy-assign
/// reuses its string/vector capacity, so a reused buffer makes this
/// allocation-light) and skip the output re-validation — the rewrite
/// only permutes IDs over a collision-free range, so `out` is valid iff
/// `km` is. `order` is still checked to be a permutation.
void apply_priority_order_into(const KMatrix& km, const PriorityOrder& order, KMatrix& out,
                               CanId base = 0x100, CanId spacing = 8);

/// The order implied by the matrix's current IDs.
PriorityOrder current_order(const KMatrix& km);

/// Deadline-monotonic assignment: shorter effective deadline = higher
/// priority (ties broken by period, then by current ID for determinism).
/// Optimal for CAN without jitter/errors in the D <= T class only; the
/// paper's setting breaks those preconditions, which is the point of the
/// comparison.
PriorityOrder deadline_monotonic_order(const KMatrix& km);

/// Audsley's optimal priority assignment: builds the order bottom-up,
/// placing at each (lowest remaining) rank any message that is
/// schedulable there under `rta` with every still-unplaced message above
/// it. Returns nullopt if some rank admits no message — then no
/// fixed-priority assignment is feasible under this analysis (the
/// analysis satisfies the OPA independence conditions: a message's
/// response depends only on the *sets* of higher/lower-priority messages,
/// not on their relative order).
///
/// `assumed_jitter_fraction`, when set, first applies that uniform jitter
/// assumption (as in the what-if experiments) before testing.
std::optional<PriorityOrder> audsley_order(const KMatrix& km, const CanRtaConfig& rta,
                                           std::optional<double> assumed_jitter_fraction = {},
                                           bool override_known = true);

/// Robust priority assignment (after Davis & Burns, "Robust priority
/// assignment for fixed priority real-time systems"): Audsley's bottom-up
/// scheme, but at every priority level it places the candidate that
/// *maximizes robustness* — here, the largest uniform jitter fraction the
/// message tolerates at that level (binary search, `tolerance` wide) —
/// instead of the first feasible one. Matches the paper's Section 4.3
/// configuration of the optimizer "to favor robust configurations over
/// sensitive ones", with a deterministic algorithm instead of a GA.
/// Returns nullopt when no feasible assignment exists at the base
/// assumption (`assumed_jitter_fraction`). Throws std::invalid_argument
/// for a `tolerance` that is not > 0 once a candidate's search runs.
std::optional<PriorityOrder> robust_priority_order(const KMatrix& km, const CanRtaConfig& rta,
                                                   double assumed_jitter_fraction = 0.0,
                                                   double tolerance = 0.02);

}  // namespace symcan
