#include "symcan/supplychain/datasheet.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "symcan/analysis/presets.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

KMatrix small_matrix() {
  PowertrainConfig cfg = PowertrainConfig::case_study();
  cfg.message_count = 16;
  cfg.ecu_count = 4;
  cfg.target_utilization = 0.5;
  return generate_powertrain(cfg);
}

TEST(MaxOwnJitter, IsBoundaryOfSystemSchedulability) {
  const KMatrix km = small_matrix();
  const CanRtaConfig rta = best_case_assumptions();
  const std::string msg = km.messages()[0].name;
  const Duration j = max_own_jitter(km, rta, msg, Duration::us(20));
  // Feasible at j, infeasible just above (unless capped at the period).
  auto feasible_at = [&](Duration jit) {
    KMatrix v = km;
    for (auto& m : v.messages())
      if (m.name == msg) m.jitter = jit;
    return CanRta{v, rta}.analyze().all_schedulable();
  };
  EXPECT_TRUE(feasible_at(j));
  if (j < km.messages()[0].period) EXPECT_FALSE(feasible_at(j + Duration::us(100)));
}

TEST(MaxOwnJitter, ZeroToleranceThrowsInsteadOfSpinning) {
  // M6's search bisects, so a zero tolerance once stalled at a 1 ns gap.
  EXPECT_THROW(max_own_jitter(small_matrix(), worst_case_assumptions(), "M6", Duration::zero()),
               std::invalid_argument);
}

TEST(MaxOwnJitter, UnknownMessageThrows) {
  EXPECT_THROW(max_own_jitter(small_matrix(), best_case_assumptions(), "nope"),
               std::invalid_argument);
}

TEST(DeriveSendJitterRequirements, CoversRequestedEcuOnly) {
  const KMatrix km = small_matrix();
  const std::string ecu = km.messages()[0].sender;
  const auto reqs = derive_send_jitter_requirements(km, best_case_assumptions(), ecu);
  ASSERT_FALSE(reqs.empty());
  std::size_t expected = 0;
  for (const auto& m : km.messages())
    if (m.sender == ecu) ++expected;
  EXPECT_EQ(reqs.size(), expected);
}

TEST(DeriveSendJitterRequirements, MarginShrinksBounds) {
  const KMatrix km = small_matrix();
  const auto strict = derive_send_jitter_requirements(km, best_case_assumptions(), "", 0.5);
  const auto loose = derive_send_jitter_requirements(km, best_case_assumptions(), "", 1.0);
  ASSERT_EQ(strict.size(), loose.size());
  for (std::size_t i = 0; i < strict.size(); ++i)
    EXPECT_LE(strict[i].max_jitter, loose[i].max_jitter);
}

TEST(DeriveSendJitterRequirements, RejectsBadMargin) {
  EXPECT_THROW(derive_send_jitter_requirements(small_matrix(), best_case_assumptions(), "", 0.0),
               std::invalid_argument);
  EXPECT_THROW(derive_send_jitter_requirements(small_matrix(), best_case_assumptions(), "", 1.5),
               std::invalid_argument);
}

TEST(DeriveArrivalGuarantees, OneEntryPerMessageReceiverPair) {
  const KMatrix km = small_matrix();
  const auto gs = derive_arrival_guarantees(km, best_case_assumptions());
  std::size_t expected = 0;
  for (const auto& m : km.messages()) expected += m.receivers.size();
  EXPECT_EQ(gs.size(), expected);
  for (const auto& g : gs) {
    EXPECT_FALSE(g.max_latency.is_infinite());
    EXPECT_GE(g.max_latency, Duration::zero());
  }
}

TEST(CheckDuality, PassesWhenGuaranteesMeetRequirements) {
  const KMatrix km = small_matrix();
  const CanRtaConfig rta = best_case_assumptions();
  const auto reqs = derive_send_jitter_requirements(km, rta, "", 0.8);
  // Suppliers guarantee exactly what the OEM asked for.
  std::vector<EcuDatasheet> sheets;
  for (const auto& node : km.nodes()) {
    EcuDatasheet ds;
    ds.ecu = node.name;
    for (const auto& req : reqs) {
      const CanMessage* m = km.find_message(req.message);
      if (m->sender == node.name) ds.send_guarantees.push_back({req.message, req.max_jitter});
    }
    sheets.push_back(std::move(ds));
  }
  const DualityReport rep = check_duality(km, rta, reqs, sheets);
  EXPECT_TRUE(rep.ok()) << rep.violations.size() << " violations";
}

TEST(CheckDuality, FlagsExceededGuarantee) {
  const KMatrix km = small_matrix();
  const CanRtaConfig rta = best_case_assumptions();
  const CanMessage& m = km.messages()[0];
  std::vector<SendJitterRequirement> reqs = {{m.name, Duration::us(100)}};
  std::vector<EcuDatasheet> sheets(1);
  sheets[0].ecu = m.sender;
  sheets[0].send_guarantees.push_back({m.name, Duration::us(500)});
  const DualityReport rep = check_duality(km, rta, reqs, sheets);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_EQ(rep.violations[0].kind, DualityViolation::Kind::kSendJitterExceeded);
  EXPECT_EQ(rep.violations[0].message, m.name);
}

TEST(CheckDuality, FlagsMissingGuarantee) {
  const KMatrix km = small_matrix();
  std::vector<SendJitterRequirement> reqs = {{km.messages()[0].name, Duration::us(100)}};
  const DualityReport rep = check_duality(km, best_case_assumptions(), reqs, {});
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_EQ(rep.violations[0].kind, DualityViolation::Kind::kMissingGuarantee);
}

TEST(CheckDuality, FlagsUnmeetableArrivalRequirement) {
  const KMatrix km = small_matrix();
  const CanMessage& m = km.messages()[0];
  ASSERT_FALSE(m.receivers.empty());
  std::vector<EcuDatasheet> sheets(1);
  sheets[0].ecu = m.receivers[0];
  // Demand an absurd latency: one bit time.
  sheets[0].arrival_requirements.push_back(
      {m.name, m.receivers[0], Duration::us(2), Duration::infinite()});
  const DualityReport rep = check_duality(km, best_case_assumptions(), {}, sheets);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.violations[0].kind, DualityViolation::Kind::kLatencyNotMet);
}

TEST(CheckDuality, ArrivalJitterViolationDetected) {
  const KMatrix km = small_matrix();
  const CanMessage& m = km.messages()[0];
  ASSERT_FALSE(m.receivers.empty());
  std::vector<EcuDatasheet> sheets(1);
  sheets[0].ecu = m.receivers[0];
  sheets[0].arrival_requirements.push_back(
      {m.name, m.receivers[0], Duration::infinite(), Duration::ns(1)});
  const DualityReport rep = check_duality(km, best_case_assumptions(), {}, sheets);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.violations[0].kind, DualityViolation::Kind::kArrivalJitterNotMet);
}

TEST(CheckDuality, GuaranteesSubstitutedBeforeArrivalCheck) {
  // A committed (small) send jitter must be used for the arrival
  // analysis: a large matrix assumption would otherwise fail the check.
  KMatrix km = small_matrix();
  const std::string victim = km.messages()[0].name;
  for (auto& m : km.messages())
    if (m.name == victim) m.jitter = m.period;  // huge assumption

  const CanRtaConfig rta = best_case_assumptions();
  // The receiver needs the latency achievable with *zero* send jitter.
  KMatrix refined = km;
  for (auto& m : refined.messages())
    if (m.name == victim) m.jitter = Duration::zero();
  const auto achievable = derive_arrival_guarantees(refined, rta);
  Duration lat = Duration::infinite();
  std::string receiver;
  for (const auto& g : achievable)
    if (g.message == victim) {
      lat = g.max_latency;
      receiver = g.receiver;
    }

  std::vector<EcuDatasheet> sheets(2);
  sheets[0].ecu = km.find_message(victim)->sender;
  sheets[0].send_guarantees.push_back({victim, Duration::zero()});
  sheets[1].ecu = receiver;
  sheets[1].arrival_requirements.push_back({victim, receiver, lat, Duration::infinite()});
  const DualityReport rep = check_duality(km, rta, {}, sheets);
  EXPECT_TRUE(rep.ok());
}

EcuDatasheet sample_sheet() {
  EcuDatasheet ds;
  ds.ecu = "ENG";
  ds.send_guarantees.push_back({"rpm", Duration::us(150)});
  ds.send_guarantees.push_back({"torque", Duration::zero()});
  ds.arrival_requirements.push_back({"brake", "ENG", Duration::ms(5), Duration::ms(1)});
  ds.arrival_requirements.push_back(
      {"diag", "ENG", Duration::infinite(), Duration::infinite()});
  return ds;
}

TEST(DatasheetCsv, RoundTripsBitIdentically) {
  const EcuDatasheet ds = sample_sheet();
  const std::string csv = datasheet_to_csv(ds);
  Diagnostics diags;
  const auto back = datasheet_from_csv(csv, diags);
  ASSERT_TRUE(back.has_value()) << diags.format();
  EXPECT_EQ(back->ecu, ds.ecu);
  ASSERT_EQ(back->send_guarantees.size(), 2u);
  EXPECT_EQ(back->send_guarantees[0].message, "rpm");
  EXPECT_EQ(back->send_guarantees[0].jitter, Duration::us(150));
  ASSERT_EQ(back->arrival_requirements.size(), 2u);
  EXPECT_EQ(back->arrival_requirements[0].max_latency, Duration::ms(5));
  EXPECT_TRUE(back->arrival_requirements[1].max_latency.is_infinite());
  EXPECT_EQ(datasheet_to_csv(*back), csv);
}

TEST(DatasheetCsv, MissingEcuRecordIsAnError) {
  Diagnostics diags;
  EXPECT_FALSE(datasheet_from_csv("send,rpm,1000\n", diags).has_value());
  EXPECT_FALSE(diags.ok());
}

TEST(DatasheetCsv, MalformedRecordsAreLineNumbered) {
  const std::string csv =
      "ecu,ENG\n"
      "send,rpm,-5\n"
      "need,brake,ENG,zz,inf\n"
      "wat,x\n";
  Diagnostics diags;
  EXPECT_FALSE(datasheet_from_csv(csv, diags).has_value());
  EXPECT_GE(diags.error_count(), 3u) << diags.format();
  EXPECT_EQ(diags.entries()[0].line, 2u);
  EXPECT_EQ(diags.entries()[1].line, 3u);
  EXPECT_EQ(diags.entries()[2].line, 4u);
}

TEST(DatasheetCsv, ZeroLatencyWarnsLenientFailsStrict) {
  const std::string csv = "ecu,ENG\nneed,brake,ENG,0,inf\n";
  Diagnostics lenient{DiagnosticPolicy::kLenient};
  EXPECT_TRUE(datasheet_from_csv(csv, lenient).has_value());
  EXPECT_EQ(lenient.warning_count(), 1u) << lenient.format();
  Diagnostics strict{DiagnosticPolicy::kStrict};
  EXPECT_FALSE(datasheet_from_csv(csv, strict).has_value());
}

TEST(DatasheetCsv, ThrowingWrapperRaisesParseError) {
  EXPECT_THROW(datasheet_from_csv("send,rpm,1000\n"), ParseError);
  EXPECT_NO_THROW(datasheet_from_csv(datasheet_to_csv(sample_sheet())));
}

TEST(DatasheetCsv, OverflowJitterIsDiagnosedNotWrapped) {
  Diagnostics diags;
  EXPECT_FALSE(
      datasheet_from_csv("ecu,ENG\nsend,rpm,99999999999999999999\n", diags).has_value());
  ASSERT_FALSE(diags.entries().empty());
  EXPECT_EQ(diags.entries()[0].line, 2u);
}

}  // namespace
}  // namespace symcan
