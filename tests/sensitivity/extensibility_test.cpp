#include "symcan/sensitivity/extensibility.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "symcan/analysis/presets.hpp"
#include "symcan/opt/assignment.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

KMatrix half_loaded() {
  PowertrainConfig cfg = PowertrainConfig::case_study();
  cfg.message_count = 24;
  cfg.ecu_count = 4;
  cfg.target_utilization = 0.35;
  return generate_powertrain(cfg);
}

ExtensionProfile default_profile() {
  ExtensionProfile p;
  p.first_id = 0x500;
  p.period = Duration::ms(20);
  return p;
}

TEST(Extensibility, FindsPositiveHeadroomOnHalfLoadedBus) {
  const KMatrix km = half_loaded();
  const ExtensibilityReport r =
      max_additional_messages(km, best_case_assumptions(), default_profile(), 64);
  EXPECT_GT(r.max_additional_messages, 0u);
  EXPECT_GT(r.utilization_at_max, km.utilization(true));
}

TEST(Extensibility, BoundaryIsExact) {
  const KMatrix km = half_loaded();
  const CanRtaConfig rta = best_case_assumptions();
  const ExtensionProfile p = default_profile();
  const ExtensibilityReport r = max_additional_messages(km, rta, p, 200);
  // The boundary lies inside the 200-message range, so the search ends on
  // a failing step rather than at the cap.
  ASSERT_FALSE(r.capped) << "cap reached; boundary outside range";
  // The trace ends with the first failing step, one past the maximum.
  ASSERT_EQ(r.steps.size(), r.max_additional_messages + 1);
  EXPECT_TRUE(r.steps[r.max_additional_messages - 1].schedulable);
  EXPECT_FALSE(r.steps.back().schedulable);
  EXPECT_FALSE(r.steps.back().first_miss.empty());
}

TEST(Extensibility, HarsherAssumptionsShrinkHeadroom) {
  const KMatrix km = half_loaded();
  const ExtensionProfile p = default_profile();
  const auto easy = max_additional_messages(km, best_case_assumptions(), p, 200);
  const auto hard = max_additional_messages(km, worst_case_assumptions(), p, 200);
  EXPECT_LE(hard.max_additional_messages, easy.max_additional_messages);
}

TEST(Extensibility, InsertionPositionDeterminesWhoBreaksFirst) {
  // Appending at the top of the ID space never disturbs existing traffic
  // (the first failure is an extension message starving); inserting at
  // the bottom steals priority, so the first failure is an existing
  // message. Which position admits more extensions depends on the slack
  // distribution — the structural claim is about the failure mode.
  const KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  ExtensionProfile append = default_profile();
  append.first_id = 0x600;
  ExtensionProfile steal = default_profile();
  steal.first_id = 0x01;
  const CanRtaConfig rta = best_case_assumptions();
  const auto r_append = max_additional_messages(km, rta, append, 64);
  const auto r_steal = max_additional_messages(km, rta, steal, 64);
  if (!r_append.capped && !r_append.steps.empty()) {
    EXPECT_EQ(r_append.steps.back().first_miss.rfind("ext_", 0), 0u)
        << r_append.steps.back().first_miss;
  }
  if (!r_steal.capped && !r_steal.steps.empty()) {
    EXPECT_NE(r_steal.steps.back().first_miss.rfind("ext_", 0), 0u)
        << r_steal.steps.back().first_miss;
  }
}

TEST(Extensibility, EcuVariantCountsEcus) {
  const KMatrix km = half_loaded();
  ExtensionProfile p = default_profile();
  const auto r = max_additional_ecus(km, best_case_assumptions(), p, 3, 16);
  // With 3 messages per ECU the ECU count is at most a third of the
  // message headroom (plus one for rounding).
  const auto msgs = max_additional_messages(km, best_case_assumptions(), p, 64);
  if (!msgs.capped) {
    EXPECT_LE(r.max_additional_messages, msgs.max_additional_messages / 3 + 1);
  }
  EXPECT_GT(r.max_additional_messages, 0u);
}

TEST(Extensibility, UtilizationGrowsAlongTheTrace) {
  const auto r = max_additional_messages(half_loaded(), best_case_assumptions(),
                                         default_profile(), 32);
  for (std::size_t i = 1; i < r.steps.size(); ++i)
    EXPECT_GT(r.steps[i].utilization, r.steps[i - 1].utilization);
}

TEST(Extensibility, RejectsBadProfiles) {
  const KMatrix km = half_loaded();
  ExtensionProfile p = default_profile();
  p.period = Duration::zero();
  EXPECT_THROW(max_additional_messages(km, best_case_assumptions(), p), std::invalid_argument);
  p = default_profile();
  p.jitter_fraction = -1;
  EXPECT_THROW(max_additional_messages(km, best_case_assumptions(), p), std::invalid_argument);
  p = default_profile();
  p.payload_bytes = 12;
  EXPECT_THROW(max_additional_messages(km, best_case_assumptions(), p), std::invalid_argument);
  p = default_profile();
  EXPECT_THROW(max_additional_ecus(km, best_case_assumptions(), p, 0), std::invalid_argument);
}

TEST(Extensibility, OptimizedMatrixHasAtLeastAsMuchHeadroom) {
  // Section 6: optimization buys extensibility — a deadline-monotonic
  // reassignment admits at least as many extension messages as the
  // historically grown original under the same assumptions.
  KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  assume_jitter_fraction(km, 0.10, true);
  ExtensionProfile p = default_profile();
  p.first_id = 0x600;
  const CanRtaConfig rta = worst_case_assumptions();

  const KMatrix dm = apply_priority_order(km, deadline_monotonic_order(km));
  const auto original = max_additional_messages(km, rta, p, 48);
  const auto optimized = max_additional_messages(dm, rta, p, 48);
  EXPECT_GE(optimized.max_additional_messages, original.max_additional_messages);
}

}  // namespace
}  // namespace symcan
