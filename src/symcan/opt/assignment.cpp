#include "symcan/opt/assignment.hpp"

#include <algorithm>
#include <stdexcept>

#include "symcan/util/search.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {

namespace {

void check_permutation(const PriorityOrder& order, std::size_t n) {
  if (order.size() != n)
    throw std::invalid_argument("apply_priority_order: order size mismatch");
  std::vector<bool> seen(order.size(), false);
  for (const std::size_t i : order) {
    if (i >= order.size() || seen[i])
      throw std::invalid_argument("apply_priority_order: order is not a permutation");
    seen[i] = true;
  }
}

void reassign_ids(KMatrix& out, const PriorityOrder& order, CanId base, CanId spacing) {
  const CanId top = base + spacing * static_cast<CanId>(order.size() - 1);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    CanMessage& m = out.messages()[order[rank]];
    CanId id = base + spacing * static_cast<CanId>(rank);
    const CanId max_id = m.format == FrameFormat::kStandard ? max_standard_id : max_extended_id;
    if (top > max_id) {
      // Fall back to dense assignment when the spaced range overflows the
      // ID space (large matrices of standard frames).
      id = static_cast<CanId>(rank);
    }
    m.id = id;
  }
}

}  // namespace

KMatrix apply_priority_order(const KMatrix& km, const PriorityOrder& order, CanId base,
                             CanId spacing) {
  check_permutation(order, km.size());
  KMatrix out = km;
  reassign_ids(out, order, base, spacing);
  out.validate();
  return out;
}

void apply_priority_order_into(const KMatrix& km, const PriorityOrder& order, KMatrix& out,
                               CanId base, CanId spacing) {
  check_permutation(order, km.size());
  out = km;  // copy-assign: a reused `out` keeps its heap buffers
  reassign_ids(out, order, base, spacing);
}

PriorityOrder current_order(const KMatrix& km) { return km.priority_order(); }

PriorityOrder deadline_monotonic_order(const KMatrix& km) {
  PriorityOrder order(km.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto& msgs = km.messages();
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (msgs[a].deadline() != msgs[b].deadline()) return msgs[a].deadline() < msgs[b].deadline();
    if (msgs[a].period != msgs[b].period) return msgs[a].period < msgs[b].period;
    return msgs[a].id < msgs[b].id;
  });
  return order;
}

namespace {

/// Schedulability of `cand` when it sits at the current lowest open rank:
/// every still-unplaced message above it (in any relative order), the
/// already-placed suffix below it in its established order. `trial`
/// carries the jitters under test; only its IDs are rewritten here.
bool schedulable_at_rank(KMatrix trial, const CanRtaConfig& rta, const std::vector<bool>& placed,
                         const PriorityOrder& order, std::size_t back, std::size_t cand) {
  const std::size_t n = trial.size();
  CanId next_high = 0x100;
  for (std::size_t i = 0; i < n; ++i) {
    if (placed[i] || i == cand) continue;
    trial.messages()[i].id = next_high++;
  }
  trial.messages()[cand].id = next_high;
  CanId below = next_high + 1;
  for (std::size_t r = back + 1; r < n; ++r) trial.messages()[order[r]].id = below++;
  return CanRta{std::move(trial), rta}.analyze_message(cand).schedulable;
}

}  // namespace

std::optional<PriorityOrder> robust_priority_order(const KMatrix& km, const CanRtaConfig& rta,
                                                   double assumed_jitter_fraction,
                                                   double tolerance) {
  const std::size_t n = km.size();
  PriorityOrder order(n);
  std::vector<bool> placed(n, false);
  KMatrix jittered = km;

  for (std::size_t back = n; back-- > 0;) {
    std::optional<std::size_t> best;
    double best_tolerance = -1;
    for (std::size_t cand = 0; cand < n; ++cand) {
      if (placed[cand]) continue;
      const auto ok = [&](double fraction) {
        assume_jitter_fraction(jittered, fraction, true);
        return schedulable_at_rank(jittered, rta, placed, order, back, cand);
      };
      if (!ok(assumed_jitter_fraction)) continue;
      // Largest uniform jitter fraction this candidate tolerates here.
      const double tolerable = largest_feasible(assumed_jitter_fraction, 1.0, tolerance, ok);
      if (tolerable > best_tolerance) {
        best_tolerance = tolerable;
        best = cand;
      }
    }
    if (!best) return std::nullopt;
    order[back] = *best;
    placed[*best] = true;
  }
  return order;
}

std::optional<PriorityOrder> audsley_order(const KMatrix& km, const CanRtaConfig& rta,
                                           std::optional<double> assumed_jitter_fraction,
                                           bool override_known) {
  KMatrix work = km;
  if (assumed_jitter_fraction)
    assume_jitter_fraction(work, *assumed_jitter_fraction, override_known);

  const std::size_t n = work.size();
  PriorityOrder order(n);  // filled from the back (lowest rank first)
  std::vector<bool> placed(n, false);
  for (std::size_t back = n; back-- > 0;) {
    std::size_t cand = 0;
    while (cand < n && (placed[cand] || !schedulable_at_rank(work, rta, placed, order, back, cand)))
      ++cand;
    if (cand == n) return std::nullopt;
    order[back] = cand;
    placed[cand] = true;
  }
  return order;
}

}  // namespace symcan
