#include "symcan/supplychain/budget.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "symcan/analysis/presets.hpp"
#include "symcan/can/kmatrix_io.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

/// The committed case study: its joint fraction is 9 % under rta(), so
/// the joint search ends inside (0, 1) rather than saturating.
KMatrix case_study() { return load_kmatrix(SYMCAN_CASE_STUDY_CSV); }

/// The `symcan budget` default assumptions.
CanRtaConfig rta() {
  CanRtaConfig cfg;
  cfg.worst_case_stuffing = true;
  cfg.deadline_override = DeadlinePolicy::kPeriod;
  return cfg;
}

class BudgetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    km_ = new KMatrix(case_study());
    report_ = new BudgetReport(allocate_jitter_budgets(*km_, rta()));
  }
  static void TearDownTestSuite() {
    delete km_;
    delete report_;
    km_ = nullptr;
    report_ = nullptr;
  }
  static KMatrix* km_;
  static BudgetReport* report_;
};
KMatrix* BudgetTest::km_ = nullptr;
BudgetReport* BudgetTest::report_ = nullptr;

TEST_F(BudgetTest, JointBudgetIsJointlySafe) {
  ASSERT_GT(report_->joint_fraction, 0.0);
  KMatrix v = *km_;
  for (std::size_t i = 0; i < v.size(); ++i) v.messages()[i].jitter = report_->joint_budget[i];
  EXPECT_TRUE((CanRta{v, rta()}.analyze().all_schedulable()));
}

TEST_F(BudgetTest, JointBudgetIsMaximalWithinTolerance) {
  // 5 percentage points above the joint fraction must break something
  // (otherwise the binary search under-delivered).
  ASSERT_LT(report_->joint_fraction, 0.99);
  KMatrix v = *km_;
  assume_jitter_fraction(v, report_->joint_fraction + 0.05, true);
  EXPECT_FALSE((CanRta{v, rta()}.analyze().all_schedulable()));
}

TEST_F(BudgetTest, IndividualBudgetsAreIndividuallySafe) {
  for (std::size_t i = 0; i < km_->size(); ++i) {
    KMatrix v = *km_;
    for (std::size_t j = 0; j < v.size(); ++j) v.messages()[j].jitter = report_->joint_budget[j];
    v.messages()[i].jitter = report_->individual_budget[i];
    EXPECT_TRUE((CanRta{v, rta()}.analyze().all_schedulable()))
        << km_->messages()[i].name << " at " << to_string(report_->individual_budget[i]);
  }
}

TEST_F(BudgetTest, IndividualAtLeastJoint) {
  for (std::size_t i = 0; i < km_->size(); ++i) {
    EXPECT_GE(report_->individual_budget[i], report_->joint_budget[i]);
    EXPECT_LE(report_->individual_budget[i], km_->messages()[i].period);
    EXPECT_GE(report_->bonus(i), Duration::zero());
  }
}

TEST_F(BudgetTest, TradeReleasesFlexibility) {
  // Find a message with meaningful joint budget to commit below.
  std::size_t from = km_->size();
  for (std::size_t i = 0; i < km_->size(); ++i)
    if (report_->joint_budget[i] > Duration::ms(1)) from = i;
  ASSERT_LT(from, km_->size());
  const std::size_t to = from == 0 ? 1 : 0;

  const std::string from_name = km_->messages()[from].name;
  const std::string to_name = km_->messages()[to].name;
  // Committing to zero releases at least as much as committing to the
  // full joint budget.
  const Duration tight =
      trade_budget(*km_, rta(), *report_, from_name, Duration::zero(), to_name);
  const Duration loose = trade_budget(*km_, rta(), *report_, from_name,
                                      report_->joint_budget[from], to_name);
  EXPECT_GE(tight, loose);
  EXPECT_GE(tight, report_->joint_budget[to]);
  // And the released budget stays jointly safe with the commitment.
  KMatrix v = *km_;
  for (std::size_t j = 0; j < v.size(); ++j) v.messages()[j].jitter = report_->joint_budget[j];
  v.messages()[from].jitter = Duration::zero();
  v.messages()[to].jitter = tight;
  EXPECT_TRUE((CanRta{v, rta()}.analyze().all_schedulable()));
}

TEST_F(BudgetTest, TradeRejectsBadArguments) {
  const std::string a = km_->messages()[0].name;
  const std::string b = km_->messages()[1].name;
  EXPECT_THROW(trade_budget(*km_, rta(), *report_, "nope", Duration::zero(), b),
               std::invalid_argument);
  EXPECT_THROW(trade_budget(*km_, rta(), *report_, a, Duration::zero(), "nope"),
               std::invalid_argument);
  EXPECT_THROW(trade_budget(*km_, rta(), *report_, a, Duration::zero(), a),
               std::invalid_argument);
  EXPECT_THROW(trade_budget(*km_, rta(), *report_, a,
                            report_->joint_budget[0] + Duration::ms(10), b),
               std::invalid_argument);
}

TEST(BudgetErrors, NonPositiveToleranceRejected) {
  // The joint search runs (9 %), so a zero tolerance would bisect forever.
  EXPECT_THROW(allocate_jitter_budgets(case_study(), rta(), 0.0), std::invalid_argument);
}

TEST(BudgetErrors, SingleJitterSearchRejectsNonPositiveResolution) {
  const KMatrix km = case_study();
  EXPECT_THROW(max_single_jitter(km, rta(), 0, Duration::zero(), Duration::zero()),
               std::invalid_argument);
  EXPECT_THROW(max_single_jitter(km, rta(), km.size(), Duration::zero(), Duration::us(50)),
               std::out_of_range);
}

TEST(BudgetErrors, UnschedulableBaselineRejected) {
  KMatrix km = case_study();
  scale_periods(km, 0.2);
  CanRtaConfig cfg = rta();
  cfg.horizon = Duration::ms(500);
  EXPECT_THROW(allocate_jitter_budgets(km, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace symcan
