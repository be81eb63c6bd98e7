// Bound-vs-observed report: over seeded workloads whose simulation
// respects the analysis assumptions, compare_bound_vs_observed must find
// zero violations (observed <= bound for every message — the soundness
// oracle in report form), and the report's derived quantities (pessimism
// gap, tightness) must be consistent. The stream analyzer's fold of the
// recorded trace must reach the same verdicts and the same per-message
// numbers as the simulator's own MessageStats, which it shares no code
// with.

#include "symcan/sim/validation.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "symcan/analysis/error_model.hpp"
#include "symcan/stream/analyzer.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

struct Param {
  std::uint64_t seed;
  double jitter_fraction;
  bool errors;
};

class BoundVsObserved : public ::testing::TestWithParam<Param> {};

TEST_P(BoundVsObserved, NoMessageObservedAboveItsBound) {
  const Param p = GetParam();
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

  SimConfig sim;
  sim.duration = Duration::s(5);
  sim.seed = p.seed * 977 + 13;
  sim.stuffing = StuffingMode::kRandom;
  sim.randomize_jitter = true;
  sim.record_percentiles = true;
  if (p.errors) sim.errors = SimErrorProcess::sporadic(Duration::ms(40));

  const BusResult bounds = CanRta{km, rta}.analyze();
  const SimResult observed = simulate(km, sim);
  const BoundValidation v = compare_bound_vs_observed(bounds, observed);

  EXPECT_EQ(v.violations, 0u);
  EXPECT_TRUE(v.ok());
  ASSERT_EQ(v.messages.size(), km.size());
  for (const BoundObservation& o : v.messages) {
    if (o.diverged || o.completions == 0) continue;
    EXPECT_LE(o.observed_max, o.bound) << o.name;
    EXPECT_LE(o.observed_p99, o.observed_max) << o.name;
    EXPECT_GE(o.gap(), Duration::zero()) << o.name;
    EXPECT_GE(o.tightness(), 0.0) << o.name;
    EXPECT_LE(o.tightness(), 1.0) << o.name;
  }
  EXPECT_GT(v.worst_tightness, 0.0);
  EXPECT_LE(v.worst_tightness, 1.0);

  const std::string text = validation_to_text(v);
  EXPECT_NE(text.find("0 violations"), std::string::npos);
  EXPECT_EQ(text.find("VIOLATION"), std::string::npos);
  const std::string json = validation_to_json(v);
  EXPECT_NE(json.find("\"violations\":0"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Grid, BoundVsObserved,
                         ::testing::Values(Param{1, 0.0, false}, Param{2, 0.25, false},
                                           Param{3, 0.25, true}, Param{4, 0.40, true},
                                           Param{5, 0.10, false}, Param{6, 0.40, false}),
                         [](const ::testing::TestParamInfo<Param>& pi) {
                           return "s" + std::to_string(pi.param.seed) + "_j" +
                                  std::to_string(static_cast<int>(pi.param.jitter_fraction * 100)) +
                                  (pi.param.errors ? "_errors" : "_clean");
                         });

TEST(BoundVsObservedEdge, ViolationIsFlaggedWhenObservedExceedsBound) {
  // Synthesize a deliberately broken pairing by shrinking the analytic
  // bound below what a real simulation observed — the report must flag it.
  BusResult analysis;
  MessageResult m;
  m.name = "m";
  m.wcrt = Duration::us(10);
  m.diverged = false;
  analysis.messages.push_back(m);

  SimResult sim;
  MessageStats s;
  s.name = "m";
  s.completions = 1;
  s.wcrt_observed = Duration::us(20);
  sim.messages.push_back(s);

  const BoundValidation v = compare_bound_vs_observed(analysis, sim);
  ASSERT_EQ(v.messages.size(), 1u);
  EXPECT_TRUE(v.messages[0].violation);
  EXPECT_EQ(v.violations, 1u);
  EXPECT_FALSE(v.ok());
  EXPECT_NE(validation_to_text(v).find("VIOLATION"), std::string::npos);
  EXPECT_NE(validation_to_json(v).find("\"violation\":true"), std::string::npos);
}

TEST(BoundVsObservedEdge, MissingAndDivergedMessagesCannotViolate) {
  BusResult analysis;
  MessageResult diverged;
  diverged.name = "d";
  diverged.wcrt = Duration::infinite();
  diverged.diverged = true;
  analysis.messages.push_back(diverged);
  MessageResult unseen;
  unseen.name = "u";
  unseen.wcrt = Duration::us(100);
  analysis.messages.push_back(unseen);

  const BoundValidation v = compare_bound_vs_observed(analysis, SimResult{});
  EXPECT_EQ(v.violations, 0u);
  EXPECT_TRUE(v.messages[0].gap().is_infinite());
  EXPECT_EQ(v.messages[1].completions, 0);
}

TEST(BoundVsObservedEdge, ObservedEqualToBoundIsNoViolation) {
  // The bound is a worst case that may be reached: only a response
  // strictly above it violates, offline and online alike.
  BusResult analysis;
  MessageResult m;
  m.name = "m";
  m.wcrt = Duration::us(10);
  analysis.messages.push_back(m);

  SimResult sim;
  MessageStats s;
  s.name = "m";
  s.completions = 1;
  s.wcrt_observed = Duration::us(10);
  sim.messages.push_back(s);
  EXPECT_EQ(compare_bound_vs_observed(analysis, sim).violations, 0u);

  stream::StreamAnalyzer an;
  an.set_bounds(analysis);
  Trace t;
  t.record(Duration::zero(), TraceEventType::kRelease, "m", 0);
  t.record(Duration::us(10), TraceEventType::kTxEnd, "m", 0);
  t.record(Duration::us(20), TraceEventType::kRelease, "m", 1);
  t.record(Duration::us(31), TraceEventType::kTxEnd, "m", 1);
  an.ingest(t);
  // Only the second instance (11 us) crosses the bound.
  ASSERT_EQ(an.stats().messages.size(), 1u);
  EXPECT_EQ(an.stats().messages[0].bound_violations, 1);
}

struct Workload {
  KMatrix km;
  BusResult bounds;
  SimResult sim;
};

/// Seeded workload, analyzed and simulated with a recorded trace. When
/// `sound` is false the analysis deliberately omits the error model the
/// simulator injects and assumes nominal stuffing — an unsound pairing
/// that produces real violations.
Workload run_workload(std::uint64_t seed, bool sound) {
  PowertrainConfig wl;
  wl.seed = seed;
  wl.message_count = 12 + static_cast<int>(seed % 9);
  wl.ecu_count = 3 + static_cast<int>(seed % 3);
  wl.target_utilization = 0.35 + 0.03 * static_cast<double>(seed % 8);
  KMatrix km = generate_powertrain(wl);
  assume_jitter_fraction(km, 0.05 * static_cast<double>(seed % 5), /*override_known=*/true);

  const bool errors = seed % 2 == 0;

  CanRtaConfig rta;
  rta.worst_case_stuffing = sound;
  rta.deadline_override = DeadlinePolicy::kPeriod;
  if (errors && sound) rta.errors = std::make_shared<SporadicErrors>(Duration::ms(10));

  SimConfig sim;
  sim.duration = Duration::ms(400);
  sim.seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  sim.stuffing = StuffingMode::kRandom;
  sim.randomize_jitter = true;
  sim.record_trace = true;
  if (errors) sim.errors = SimErrorProcess::sporadic(Duration::ms(10));

  BusResult bounds = CanRta{km, rta}.analyze();
  SimResult res = simulate(km, sim);
  return Workload{std::move(km), std::move(bounds), std::move(res)};
}

TEST(BoundVsObservedFold, AnalyzerFoldMatchesSimulatorStatsAndViolations) {
  int seeds_with_violations = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Unsound pairing on a third of the seeds so both the empty and the
    // non-empty violation set are exercised.
    const bool sound = seed % 3 != 0;
    const Workload w = run_workload(seed, sound);
    SCOPED_TRACE("seed " + std::to_string(seed) + (sound ? " sound" : " unsound"));
    ASSERT_FALSE(w.sim.trace.events().empty());

    stream::StreamAnalyzer an;
    an.set_bounds(w.bounds);
    an.ingest(w.sim.trace);
    const stream::StreamStats online = an.stats();

    // The simulator counts in its own MessageStats; the analyzer folds
    // the trace. Both must agree exactly, message by message.
    for (const MessageStats& s : w.sim.messages) {
      const stream::MessageStreamStats* m = online.find(s.name);
      ASSERT_NE(m, nullptr) << s.name;
      // The fold is exact only if no in-flight slot was ever recycled.
      EXPECT_EQ(m->inflight_evictions, 0) << s.name;
      EXPECT_EQ(m->releases, s.activations) << s.name;
      EXPECT_EQ(m->completions, s.completions) << s.name;
      EXPECT_EQ(m->losses, s.losses) << s.name;
      EXPECT_EQ(m->errors, s.retransmissions) << s.name;
      EXPECT_EQ(m->latency_samples, s.completions) << s.name;
      EXPECT_EQ(m->latency_max, s.wcrt_observed) << s.name;
      if (s.completions > 0) {
        EXPECT_EQ(m->latency_min, s.bcrt_observed) << s.name;
        // Both sum as_us() in completion order, so the mean is bit-equal.
        EXPECT_EQ(m->latency_us.sum / static_cast<double>(m->completions), s.avg_response_us)
            << s.name;
      }
    }

    // Identical violation sets, online and offline.
    const BoundValidation v = compare_bound_vs_observed(w.bounds, w.sim);
    std::set<std::string> offline_violators, online_violators;
    for (const BoundObservation& o : v.messages)
      if (o.violation) offline_violators.insert(o.name);
    for (const stream::MessageStreamStats& m : online.messages)
      if (m.violation()) online_violators.insert(m.name);
    EXPECT_EQ(online_violators, offline_violators);
    EXPECT_EQ(online.violations, static_cast<std::int64_t>(v.violations));
    if (v.violations > 0) ++seeds_with_violations;
    if (sound) {
      EXPECT_EQ(online.violations, 0) << validation_to_text(v);
    }
  }
  // The property is vacuous if no unsound seed ever violates; the seeds
  // above are chosen so several do.
  EXPECT_GT(seeds_with_violations, 0);
}

}  // namespace
}  // namespace symcan
