#include "symcan/sensitivity/robustness.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "symcan/analysis/presets.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

KMatrix case_matrix() { return generate_powertrain(PowertrainConfig::case_study()); }

JitterSweepConfig sweep_config() {
  JitterSweepConfig cfg;
  cfg.rta = best_case_assumptions();
  return cfg;
}

TEST(Robustness, ReportCoversEveryMessage) {
  const KMatrix km = case_matrix();
  const SensitivityReport rep = analyze_sensitivity(km, sweep_config());
  ASSERT_EQ(rep.messages.size(), km.size());
  for (std::size_t i = 0; i < km.size(); ++i) {
    EXPECT_EQ(rep.messages[i].name, km.messages()[i].name);
    EXPECT_EQ(rep.messages[i].id, km.messages()[i].id);
  }
}

TEST(Robustness, ClassesSpanTheSpectrum) {
  // Figure 4 shows robust, medium and (very) sensitive messages on the
  // same bus: the case-study matrix must exhibit at least robust plus a
  // sensitive-or-worse class.
  const SensitivityReport rep = analyze_sensitivity(case_matrix(), sweep_config());
  EXPECT_GT(rep.count(Robustness::kRobust), 0u);
  EXPECT_GT(rep.count(Robustness::kMedium) + rep.count(Robustness::kSensitive) +
                rep.count(Robustness::kVerySensitive),
            0u);
}

TEST(Robustness, HighPriorityMessagesAreRobust) {
  const KMatrix km = case_matrix();
  const SensitivityReport rep = analyze_sensitivity(km, sweep_config());
  // The highest-priority message's response is dominated by blocking and
  // its own frame; jitter of others barely moves it.
  const auto order = km.priority_order();
  const MessageSensitivity& top = rep.messages[order.front()];
  EXPECT_EQ(top.cls, Robustness::kRobust) << top.name << " growth " << top.relative_growth;
}

TEST(Robustness, GrowthMatchesCurveEndpoints) {
  const KMatrix km = case_matrix();
  const JitterSweepConfig cfg = sweep_config();
  const SensitivityReport rep = analyze_sensitivity(km, cfg);
  const JitterSweepResult sweep = sweep_jitter(km, cfg);
  for (const auto& m : rep.messages) {
    const auto curve = sweep.response_curve(m.name);
    EXPECT_EQ(m.wcrt_at_zero, curve.front());
    EXPECT_EQ(m.wcrt_at_max, curve.back());
  }
}

TEST(Robustness, ThresholdsChangeClassification) {
  const KMatrix km = case_matrix();
  RobustnessThresholds strict;
  strict.robust_below = -1.0;  // growth >= 0 always: nothing is robust
  const SensitivityReport rep = analyze_sensitivity(km, sweep_config(), strict);
  EXPECT_EQ(rep.count(Robustness::kRobust), 0u);
}

TEST(MaxTolerableJitter, BracketsTheBoundary) {
  const KMatrix km = case_matrix();
  const CanRtaConfig rta = worst_case_assumptions();
  // Pick the lowest-priority message: typically the most sensitive.
  const auto order = km.priority_order();
  const std::string victim = km.messages()[order.back()].name;
  const double frac = max_tolerable_jitter_fraction(km, rta, victim, 1.0, 0.005);
  ASSERT_GT(frac, 0.0);
  ASSERT_LT(frac, 1.0);
  // Schedulable at the reported fraction, not schedulable slightly above.
  auto sched_at = [&](double f) {
    KMatrix v = km;
    assume_jitter_fraction(v, f, true);
    std::size_t idx = 0;
    for (std::size_t i = 0; i < v.size(); ++i)
      if (v.messages()[i].name == victim) idx = i;
    return CanRta{v, rta}.analyze_message(idx).schedulable;
  };
  EXPECT_TRUE(sched_at(frac));
  EXPECT_FALSE(sched_at(frac + 0.02));
}

TEST(MaxTolerableJitter, NonPositiveToleranceThrows) {
  // The same victim as above, whose boundary lies inside (0, 1).
  const KMatrix km = case_matrix();
  const std::string victim = km.messages()[km.priority_order().back()].name;
  const CanRtaConfig rta = worst_case_assumptions();
  EXPECT_THROW(max_tolerable_jitter_fraction(km, rta, victim, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(max_tolerable_jitter_fraction(km, rta, victim, 1.0, -0.01),
               std::invalid_argument);
}

TEST(MaxTolerableJitter, ZeroWhenAlreadyInfeasible) {
  // Shrink all periods until the lowest-priority message misses even at
  // zero jitter under worst-case assumptions.
  KMatrix km = case_matrix();
  scale_periods(km, 0.4);
  const auto order = km.priority_order();
  const std::string victim = km.messages()[order.back()].name;
  const CanRtaConfig rta = worst_case_assumptions();
  KMatrix v = km;
  assume_jitter_fraction(v, 0.0, true);
  std::size_t idx = 0;
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v.messages()[i].name == victim) idx = i;
  ASSERT_FALSE((CanRta{v, rta}.analyze_message(idx).schedulable))
      << "the victim must miss at zero jitter, or the early return goes untested";
  EXPECT_EQ(max_tolerable_jitter_fraction(km, rta, victim), 0.0);
}

TEST(MaxTolerableJitter, CapReturnedWhenAlwaysFeasible) {
  // A nearly empty bus tolerates the full cap.
  KMatrix km{"idle", BitTiming{500'000}};
  EcuNode n;
  n.name = "A";
  km.add_node(n);
  CanMessage m;
  m.name = "solo";
  m.id = 1;
  m.payload_bytes = 1;
  m.period = Duration::ms(100);
  m.sender = "A";
  m.receivers = {"A"};
  km.add_message(m);
  CanRtaConfig rta;
  rta.deadline_override = DeadlinePolicy::kPeriod;
  EXPECT_DOUBLE_EQ(max_tolerable_jitter_fraction(km, rta, "solo", 0.9), 0.9);
}

TEST(MaxTolerableJitter, UnknownMessageThrows) {
  EXPECT_THROW(max_tolerable_jitter_fraction(case_matrix(), best_case_assumptions(), "nope"),
               std::invalid_argument);
}

TEST(RobustnessNames, ToString) {
  EXPECT_STREQ(to_string(Robustness::kRobust), "robust");
  EXPECT_STREQ(to_string(Robustness::kMedium), "medium");
  EXPECT_STREQ(to_string(Robustness::kSensitive), "sensitive");
  EXPECT_STREQ(to_string(Robustness::kVerySensitive), "very-sensitive");
}

}  // namespace
}  // namespace symcan
