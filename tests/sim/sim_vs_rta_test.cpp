// Soundness oracle: simulated response times must never exceed the
// analysis bound when the simulated jitter, stuffing and error processes
// respect the analysis assumptions. This is the central cross-validation
// between the two halves of the toolkit — a failure here means either the
// analysis is optimistic (unsound) or the simulator violates its declared
// event/error models.

#include <gtest/gtest.h>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/sim/simulator.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

struct OracleParam {
  std::uint64_t seed;
  double jitter_fraction;
  bool errors;
  const char* label;
};

void PrintTo(const OracleParam& p, std::ostream* os) { *os << p.label; }

class SimVsRta : public ::testing::TestWithParam<OracleParam> {};

TEST_P(SimVsRta, ObservedResponseNeverExceedsBound) {
  const OracleParam p = GetParam();
  PowertrainConfig wl;
  wl.seed = p.seed;
  wl.message_count = 24;
  wl.ecu_count = 4;
  wl.target_utilization = 0.55;
  KMatrix km = generate_powertrain(wl);
  assume_jitter_fraction(km, p.jitter_fraction, /*override_known=*/true);

  CanRtaConfig rta;
  rta.worst_case_stuffing = true;  // dominates the sampled stuffing
  rta.deadline_override = DeadlinePolicy::kPeriod;
  if (p.errors) rta.errors = std::make_shared<SporadicErrors>(Duration::ms(40));
  const BusResult bound = CanRta{km, rta}.analyze();

  SimConfig sim;
  sim.duration = Duration::s(10);
  sim.seed = p.seed * 1000 + 17;
  sim.stuffing = StuffingMode::kRandom;  // <= worst case assumed above
  sim.randomize_jitter = true;
  if (p.errors) sim.errors = SimErrorProcess::sporadic(Duration::ms(40));
  const SimResult observed = simulate(km, sim);

  for (std::size_t i = 0; i < km.size(); ++i) {
    const auto& b = bound.messages[i];
    const auto& o = observed.messages[i];
    if (b.diverged) continue;  // no bound claimed
    EXPECT_LE(o.wcrt_observed, b.wcrt)
        << km.messages()[i].name << ": observed " << to_string(o.wcrt_observed)
        << " vs bound " << to_string(b.wcrt);
    // Best-case bound is also a bound from below.
    if (o.completions > 0)
      EXPECT_GE(o.bcrt_observed, b.bcrt) << km.messages()[i].name;
  }
}

TEST_P(SimVsRta, ScheduleVerdictImpliesNoSimLoss) {
  // Every message the analysis declares schedulable under D = period must
  // see no buffer-overwrite loss in the simulator: none of its instances
  // can still be pending when the next arrives.
  const OracleParam p = GetParam();
  PowertrainConfig wl;
  wl.seed = p.seed;
  wl.message_count = 24;
  wl.ecu_count = 4;
  wl.target_utilization = 0.55;
  KMatrix km = generate_powertrain(wl);
  assume_jitter_fraction(km, p.jitter_fraction, true);

  CanRtaConfig rta;
  rta.worst_case_stuffing = true;
  rta.deadline_override = DeadlinePolicy::kPeriod;
  if (p.errors) rta.errors = std::make_shared<SporadicErrors>(Duration::ms(40));
  const BusResult bound = CanRta{km, rta}.analyze();

  SimConfig sim;
  sim.duration = Duration::s(10);
  sim.seed = p.seed + 4242;
  sim.stuffing = StuffingMode::kRandom;
  sim.randomize_jitter = true;
  if (p.errors) sim.errors = SimErrorProcess::sporadic(Duration::ms(40));
  const SimResult observed = simulate(km, sim);
  std::size_t claimed = 0;
  for (std::size_t i = 0; i < km.size(); ++i) {
    if (!bound.messages[i].schedulable) continue;
    ++claimed;
    EXPECT_EQ(observed.messages[i].losses, 0) << km.messages()[i].name;
  }
  // Every grid point's analysis claims most of its bus, so the check is
  // never vacuous.
  EXPECT_GE(claimed, km.size() - 1);
}

TEST_P(SimVsRta, CachedAnalysisBoundsSimulationUnderSporadicErrors) {
  // The incremental cache sits between the simulator and its oracle in
  // every optimizer loop, so the soundness chain must close through it:
  // cached bounds (cold, warm, and with the cache disabled) are
  // bit-identical to the fresh analysis under a nonzero error model, and
  // the simulated worst case respects all of them.
  const OracleParam p = GetParam();
  PowertrainConfig wl;
  wl.seed = p.seed;
  wl.message_count = 24;
  wl.ecu_count = 4;
  wl.target_utilization = 0.55;
  KMatrix km = generate_powertrain(wl);
  assume_jitter_fraction(km, p.jitter_fraction, true);

  // Sporadic MTBF-style faults regardless of the param's error flag: this
  // test exists to exercise the cache under error interference.
  const Duration gap = Duration::ms(30 + static_cast<std::int64_t>(p.seed) * 5);
  CanRtaConfig rta;
  rta.worst_case_stuffing = true;
  rta.deadline_override = DeadlinePolicy::kPeriod;
  rta.errors = std::make_shared<SporadicErrors>(gap);
  const BusResult fresh = CanRta{km, rta}.analyze();

  IncrementalRta cached;
  const BusResult cold = cached.analyze(km, rta);
  const BusResult warm = cached.analyze(km, rta);
  EXPECT_GT(cached.stats().hits, 0);
  RtaCacheConfig off_cfg;
  off_cfg.enabled = false;
  IncrementalRta off{off_cfg};
  const BusResult disabled = off.analyze(km, rta);
  for (const BusResult* r : {&cold, &warm, &disabled}) {
    ASSERT_EQ(r->messages.size(), fresh.messages.size());
    for (std::size_t i = 0; i < fresh.messages.size(); ++i) {
      ASSERT_EQ(r->messages[i].wcrt, fresh.messages[i].wcrt) << fresh.messages[i].name;
      ASSERT_EQ(r->messages[i].bcrt, fresh.messages[i].bcrt) << fresh.messages[i].name;
      ASSERT_EQ(r->messages[i].schedulable, fresh.messages[i].schedulable)
          << fresh.messages[i].name;
    }
  }

  SimConfig sim;
  sim.duration = Duration::s(10);
  sim.seed = p.seed * 77 + 5;
  sim.stuffing = StuffingMode::kRandom;
  sim.randomize_jitter = true;
  sim.errors = SimErrorProcess::sporadic(gap);
  const SimResult observed = simulate(km, sim);
  for (std::size_t i = 0; i < km.size(); ++i) {
    if (warm.messages[i].diverged) continue;
    EXPECT_LE(observed.messages[i].wcrt_observed, warm.messages[i].wcrt)
        << km.messages()[i].name << ": observed " << to_string(observed.messages[i].wcrt_observed)
        << " vs cached bound " << to_string(warm.messages[i].wcrt);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimVsRta,
    ::testing::Values(OracleParam{1, 0.0, false, "s1_j0_clean"},
                      OracleParam{2, 0.0, true, "s2_j0_errors"},
                      OracleParam{3, 0.2, false, "s3_j20_clean"},
                      OracleParam{4, 0.2, true, "s4_j20_errors"},
                      OracleParam{5, 0.4, false, "s5_j40_clean"},
                      OracleParam{6, 0.4, true, "s6_j40_errors"},
                      OracleParam{7, 0.1, true, "s7_j10_errors"},
                      OracleParam{8, 0.3, false, "s8_j30_clean"}),
    [](const ::testing::TestParamInfo<OracleParam>& info) { return info.param.label; });

}  // namespace
}  // namespace symcan
