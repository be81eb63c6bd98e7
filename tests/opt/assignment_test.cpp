#include "symcan/opt/assignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "symcan/analysis/presets.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

KMatrix case_matrix() { return generate_powertrain(PowertrainConfig::case_study()); }

TEST(ApplyPriorityOrder, RewritesIdsInRankOrder) {
  const KMatrix km = case_matrix();
  PriorityOrder order(km.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const KMatrix out = apply_priority_order(km, order);
  for (std::size_t rank = 1; rank < order.size(); ++rank)
    EXPECT_GT(out.messages()[order[rank]].id, out.messages()[order[rank - 1]].id);
  // Everything else preserved.
  for (std::size_t i = 0; i < km.size(); ++i) {
    EXPECT_EQ(out.messages()[i].name, km.messages()[i].name);
    EXPECT_EQ(out.messages()[i].period, km.messages()[i].period);
    EXPECT_EQ(out.messages()[i].sender, km.messages()[i].sender);
  }
}

TEST(ApplyPriorityOrder, RejectsNonPermutation) {
  const KMatrix km = case_matrix();
  PriorityOrder bad(km.size(), 0);  // all zeros
  EXPECT_THROW(apply_priority_order(km, bad), std::invalid_argument);
  PriorityOrder short_order(km.size() - 1);
  EXPECT_THROW(apply_priority_order(km, short_order), std::invalid_argument);
}

TEST(CurrentOrder, MatchesPriorityOrder) {
  const KMatrix km = case_matrix();
  EXPECT_EQ(current_order(km), km.priority_order());
}

TEST(DeadlineMonotonic, SortsByEffectiveDeadline) {
  const KMatrix km = case_matrix();
  const PriorityOrder order = deadline_monotonic_order(km);
  ASSERT_EQ(order.size(), km.size());
  for (std::size_t r = 1; r < order.size(); ++r)
    EXPECT_LE(km.messages()[order[r - 1]].deadline(), km.messages()[order[r]].deadline());
}

TEST(DeadlineMonotonic, IsAPermutation) {
  const KMatrix km = case_matrix();
  PriorityOrder order = deadline_monotonic_order(km);
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Audsley, FindsFeasibleAssignmentOnCaseStudyAt25) {
  // The paper's optimizer finds a zero-loss configuration at 25 % jitter
  // under worst-case assumptions; Audsley (optimal for this analysis
  // class) must therefore find one too.
  const KMatrix km = case_matrix();
  const auto order = audsley_order(km, worst_case_assumptions(), 0.25);
  ASSERT_TRUE(order.has_value());

  KMatrix opt = apply_priority_order(km, *order);
  assume_jitter_fraction(opt, 0.25, true);
  const BusResult res = CanRta{opt, worst_case_assumptions()}.analyze();
  EXPECT_TRUE(res.all_schedulable());
}

TEST(Audsley, ResultIsPermutation) {
  const auto order = audsley_order(case_matrix(), worst_case_assumptions(), 0.25);
  ASSERT_TRUE(order.has_value());
  PriorityOrder sorted = *order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Audsley, ReturnsNulloptWhenOverloaded) {
  KMatrix km = case_matrix();
  scale_periods(km, 0.25);  // utilization far above 1
  CanRtaConfig rta = worst_case_assumptions();
  rta.horizon = Duration::ms(500);
  EXPECT_FALSE(audsley_order(km, rta, 0.25).has_value());
}

TEST(Audsley, DominatesDeadlineMonotonicFeasibility) {
  // Whenever DM yields a fully schedulable system, Audsley must too
  // (OPA optimality). Checked at several jitter levels.
  const KMatrix km = case_matrix();
  const CanRtaConfig rta = worst_case_assumptions();
  for (const double f : {0.0, 0.10, 0.25}) {
    KMatrix dm = apply_priority_order(km, deadline_monotonic_order(km));
    assume_jitter_fraction(dm, f, true);
    const bool dm_ok = CanRta{dm, rta}.analyze().all_schedulable();
    const bool aud_ok = audsley_order(km, rta, f).has_value();
    if (dm_ok) EXPECT_TRUE(aud_ok) << "jitter " << f;
  }
}

TEST(RobustAssignment, FeasibleAndPermutation) {
  const KMatrix km = case_matrix();
  const auto order = robust_priority_order(km, worst_case_assumptions(), 0.0);
  ASSERT_TRUE(order.has_value());
  PriorityOrder sorted = *order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // Feasible at the base assumption.
  KMatrix opt = apply_priority_order(km, *order);
  assume_jitter_fraction(opt, 0.0, true);
  EXPECT_TRUE((CanRta{opt, worst_case_assumptions()}.analyze().all_schedulable()));
}

TEST(RobustAssignment, ToleratesAtLeastAsMuchJitterAsAudsley) {
  // RPA maximizes the tolerated jitter at every level; measured as the
  // largest uniform jitter fraction under which the whole matrix stays
  // schedulable, it must not be worse than plain Audsley's assignment.
  const KMatrix km = case_matrix();
  const CanRtaConfig rta = worst_case_assumptions();
  const auto rpa = robust_priority_order(km, rta, 0.0);
  const auto aud = audsley_order(km, rta, 0.0);
  ASSERT_TRUE(rpa.has_value());
  ASSERT_TRUE(aud.has_value());

  auto system_tolerance = [&](const PriorityOrder& order) {
    const KMatrix assigned = apply_priority_order(km, order);
    double lo = 0.0, hi = 1.0;
    auto ok = [&](double f) {
      KMatrix v = assigned;
      assume_jitter_fraction(v, f, true);
      return CanRta{v, rta}.analyze().all_schedulable();
    };
    if (!ok(lo)) return -1.0;
    if (ok(hi)) return hi;
    while (hi - lo > 0.01) {
      const double mid = (lo + hi) / 2;
      (ok(mid) ? lo : hi) = mid;
    }
    return lo;
  };
  EXPECT_GE(system_tolerance(*rpa) + 0.02, system_tolerance(*aud));
}

TEST(RobustAssignment, NonPositiveToleranceThrows) {
  // Under worst-case assumptions some candidate misses at full jitter, so
  // its robustness search bisects.
  EXPECT_THROW(robust_priority_order(case_matrix(), worst_case_assumptions(), 0.0, 0.0),
               std::invalid_argument);
}

TEST(RobustAssignment, InfeasibleBaseReturnsNullopt) {
  KMatrix km = case_matrix();
  scale_periods(km, 0.25);
  CanRtaConfig rta = worst_case_assumptions();
  rta.horizon = Duration::ms(500);
  EXPECT_FALSE(robust_priority_order(km, rta, 0.0).has_value());
}

}  // namespace
}  // namespace symcan
