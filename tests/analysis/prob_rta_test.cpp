// Probabilistic RTA: PMF machinery invariants, the degenerate
// differential gate (all-1e6 ppm reproduces CanRta::analyze_message bit
// for bit across the assumption presets), the upper-support-point
// property, and the warm rung-ladder cache in IncrementalRta.

#include "symcan/analysis/prob_rta.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

using analysis::analyze_message_prob;
using analysis::mix_ladder;
using analysis::RungLadder;
using analysis::solve_rung_ladder;

// ---------------------------------------------------------------- Pmf --

TEST(Pmf, PointIsDegenerateUnitMass) {
  const Pmf p = Pmf::point(Duration::us(100));
  ASSERT_EQ(p.atoms().size(), 1u);
  EXPECT_TRUE(p.degenerate());
  EXPECT_EQ(p.atoms()[0].value, Duration::us(100));
  EXPECT_EQ(p.atoms()[0].weight, Pmf::kOne);
  EXPECT_EQ(p.min_value(), Duration::us(100));
  EXPECT_EQ(p.max_value(), Duration::us(100));
}

TEST(Pmf, TwoPointSplitsMassExactly) {
  const std::uint64_t high = Pmf::kOne / 3;
  const Pmf p = Pmf::two_point(Duration::us(10), Duration::us(50), high);
  ASSERT_EQ(p.atoms().size(), 2u);
  EXPECT_EQ(p.atoms()[0].value, Duration::us(10));
  EXPECT_EQ(p.atoms()[1].value, Duration::us(50));
  EXPECT_EQ(p.atoms()[0].weight + p.atoms()[1].weight, Pmf::kOne);
  EXPECT_EQ(p.atoms()[1].weight, high);
}

TEST(Pmf, TwoPointCollapsesDegenerateWeights) {
  EXPECT_TRUE(Pmf::two_point(Duration::us(10), Duration::us(50), 0).degenerate());
  EXPECT_EQ(Pmf::two_point(Duration::us(10), Duration::us(50), 0).max_value(), Duration::us(10));
  EXPECT_TRUE(Pmf::two_point(Duration::us(10), Duration::us(50), Pmf::kOne).degenerate());
  EXPECT_EQ(Pmf::two_point(Duration::us(10), Duration::us(50), Pmf::kOne).min_value(),
            Duration::us(50));
}

TEST(Pmf, FromAtomsMergesDuplicatesAndValidates) {
  const Pmf p = Pmf::from_atoms({{Duration::us(5), Pmf::kOne / 4},
                                 {Duration::us(1), Pmf::kOne / 2},
                                 {Duration::us(5), Pmf::kOne / 4}});
  ASSERT_EQ(p.atoms().size(), 2u);
  EXPECT_EQ(p.atoms()[0].value, Duration::us(1));
  EXPECT_EQ(p.atoms()[1].weight, Pmf::kOne / 2);
  // A sum that is not exactly kOne violates the representation invariant.
  EXPECT_THROW(Pmf::from_atoms({{Duration::us(1), Pmf::kOne - 1}}), std::logic_error);
}

TEST(Pmf, ConvolveOfPointsIsExactShift) {
  const Pmf p = convolve(Pmf::point(Duration::us(30)), Pmf::point(Duration::us(12)));
  EXPECT_TRUE(p.degenerate());
  EXPECT_EQ(p.max_value(), Duration::us(42));
  EXPECT_EQ(p.atoms()[0].weight, Pmf::kOne);
}

TEST(Pmf, ConvolvePreservesExactUnitMass) {
  // Odd weights force floor-division residue; the invariant demands the
  // residue land back in the distribution (on the max-value atom).
  const Pmf a = Pmf::two_point(Duration::us(1), Duration::us(7), Pmf::kOne / 3);
  const Pmf b = Pmf::two_point(Duration::us(2), Duration::us(5), Pmf::kOne / 7 + 1);
  const Pmf c = convolve(a, b);
  std::uint64_t total = 0;
  for (const auto& atom : c.atoms()) total += atom.weight;
  EXPECT_EQ(total, Pmf::kOne);
  EXPECT_EQ(c.min_value(), Duration::us(3));
  EXPECT_EQ(c.max_value(), Duration::us(12));
  c.validate();
}

TEST(Pmf, ConvolveResidueIsConservative) {
  // The residue-to-top rounding must never *shrink* any tail: the
  // convolved CCDF dominates the exact rational CCDF at every point.
  const Pmf a = Pmf::two_point(Duration::us(0), Duration::us(10), Pmf::kOne / 3);
  const Pmf b = Pmf::two_point(Duration::us(0), Duration::us(10), Pmf::kOne / 3);
  const Pmf c = convolve(a, b);
  // Exact P(sum >= 20) = (1/3)^2 = kOne/9 (up to fixed-point input
  // rounding); the computed tail must not be below the product of the
  // stored weights divided by kOne, rounded down.
  // (kOne/3)^2 fits in 64 bits, so the exact floor is computable directly.
  const std::uint64_t exact_floor = ((Pmf::kOne / 3) * (Pmf::kOne / 3)) >> 32;
  EXPECT_GE(c.mass_above(Duration::us(10)), exact_floor);
}

TEST(Pmf, MassAboveIsTheTail) {
  const Pmf p = Pmf::two_point(Duration::us(10), Duration::us(50), Pmf::kOne / 4);
  EXPECT_EQ(p.mass_above(Duration::us(50)), 0u);
  EXPECT_EQ(p.mass_above(Duration::us(49)), Pmf::kOne / 4);
  EXPECT_EQ(p.mass_above(Duration::us(10)), Pmf::kOne / 4);
  EXPECT_EQ(p.mass_above(Duration::us(9)), Pmf::kOne);
}

TEST(Pmf, QuantileWalksTheCdf) {
  const Pmf p = Pmf::two_point(Duration::us(10), Duration::us(50), Pmf::kOne / 4);
  EXPECT_EQ(p.quantile(0), Duration::us(10));
  EXPECT_EQ(p.quantile(Pmf::kOne / 2), Duration::us(10));
  EXPECT_EQ(p.quantile(Pmf::kOne), Duration::us(50));
}

TEST(Pmf, ClampedMinFoldsLowMass) {
  const Pmf p = Pmf::two_point(Duration::us(10), Duration::us(50), Pmf::kOne / 4);
  const Pmf c = p.clamped_min(Duration::us(20));
  ASSERT_EQ(c.atoms().size(), 2u);
  EXPECT_EQ(c.min_value(), Duration::us(20));
  EXPECT_EQ(c.atoms()[0].weight, Pmf::kOne - Pmf::kOne / 4);
  // Clamping below the support is the identity.
  EXPECT_EQ(p.clamped_min(Duration::us(1)).atoms(), p.atoms());
}

TEST(Pmf, PpmConversionIsExactAtRailsAndRoundsUp) {
  EXPECT_EQ(Pmf::weight_from_ppm(0), 0u);
  EXPECT_EQ(Pmf::weight_from_ppm(1'000'000), Pmf::kOne);
  EXPECT_EQ(Pmf::ppm_from_weight(0), 0);
  EXPECT_EQ(Pmf::ppm_from_weight(Pmf::kOne), 1'000'000);
  for (const std::int64_t ppm : {1, 13, 500'000, 999'999}) {
    // Round-trip never understates: displayed ppm >= requested ppm.
    EXPECT_GE(Pmf::ppm_from_weight(Pmf::weight_from_ppm(ppm)), ppm) << ppm;
    EXPECT_LE(Pmf::ppm_from_weight(Pmf::weight_from_ppm(ppm)), ppm + 1) << ppm;
  }
}

TEST(ProbConfig, ValidatesItsRanges) {
  ProbRtaConfig cfg;
  analysis::validate_prob_config(cfg);  // Defaults are valid.
  cfg.fault_ppm = 1'000'001;
  EXPECT_THROW(analysis::validate_prob_config(cfg), std::invalid_argument);
  cfg.fault_ppm = -1;
  EXPECT_THROW(analysis::validate_prob_config(cfg), std::invalid_argument);
  cfg.fault_ppm = 0;
  cfg.max_rungs = 0;
  EXPECT_THROW(analysis::validate_prob_config(cfg), std::invalid_argument);
  cfg.max_rungs = 4097;
  EXPECT_THROW(analysis::validate_prob_config(cfg), std::invalid_argument);
}

// ------------------------------------------------ differential battery --

/// The five canonical assumption presets the acceptance gate names.
std::vector<std::pair<std::string, CanRtaConfig>> presets() {
  std::vector<std::pair<std::string, CanRtaConfig>> out;
  CanRtaConfig def;
  def.worst_case_stuffing = true;
  def.deadline_override = DeadlinePolicy::kPeriod;
  out.emplace_back("default", def);
  CanRtaConfig no_off = def;
  no_off.use_offsets = false;
  out.emplace_back("no_offsets", no_off);
  out.emplace_back("best_case", best_case_assumptions());
  out.emplace_back("worst_case", worst_case_assumptions());
  CanRtaConfig wc_nq = worst_case_assumptions();
  wc_nq.model_controller_queues = false;
  out.emplace_back("worst_case_no_queues", wc_nq);
  return out;
}

KMatrix seeded_matrix(std::uint64_t seed, int messages, double util) {
  PowertrainConfig wl;
  wl.seed = seed;
  wl.message_count = messages;
  wl.ecu_count = 3 + static_cast<int>(seed % 4);
  wl.target_utilization = util;
  return generate_powertrain(wl);
}

void expect_same_result(const MessageResult& p, const MessageResult& d, const std::string& tag) {
  EXPECT_EQ(p.name, d.name) << tag;
  EXPECT_EQ(p.id, d.id) << tag;
  EXPECT_EQ(p.wcrt, d.wcrt) << tag;
  EXPECT_EQ(p.bcrt, d.bcrt) << tag;
  EXPECT_EQ(p.deadline, d.deadline) << tag;
  EXPECT_EQ(p.blocking, d.blocking) << tag;
  EXPECT_EQ(p.busy_period, d.busy_period) << tag;
  EXPECT_EQ(p.instances, d.instances) << tag;
  EXPECT_EQ(p.fixedpoint_iterations, d.fixedpoint_iterations) << tag;
  EXPECT_EQ(p.schedulable, d.schedulable) << tag;
  EXPECT_EQ(p.diverged, d.diverged) << tag;
}

TEST(ProbDifferential, DegenerateInputsReproduceDeterministicRtaAcrossPresets) {
  for (const std::uint64_t seed : {11u, 37u, 64u}) {
    const KMatrix km = seeded_matrix(seed, 20, 0.55);
    for (const auto& [name, rta] : presets()) {
      ProbRtaConfig cfg;
      cfg.rta = rta;  // All ppm at the degenerate 1'000'000 defaults.
      const ProbBusResult prob = analyze_prob(km, cfg);
      const BusResult det = CanRta{km, rta}.analyze();
      ASSERT_EQ(prob.messages.size(), det.messages.size());
      EXPECT_EQ(prob.utilization, det.utilization) << name;
      for (std::size_t i = 0; i < det.messages.size(); ++i) {
        const std::string tag =
            name + "/" + det.messages[i].name + " seed=" + std::to_string(seed);
        expect_same_result(prob.messages[i].det, det.messages[i], tag);
        // The distribution collapses to an exact point mass at the WCRT.
        if (!det.messages[i].diverged) {
          EXPECT_TRUE(prob.messages[i].response.degenerate()) << tag;
          EXPECT_EQ(prob.messages[i].response.max_value(), det.messages[i].wcrt) << tag;
        }
        // Miss probability agrees with the binary verdict: certain miss
        // when unschedulable, zero otherwise.
        EXPECT_EQ(prob.messages[i].miss_weight,
                  det.messages[i].schedulable ? 0u : Pmf::kOne)
            << tag;
      }
    }
  }
}

TEST(ProbDifferential, WcrtIsTheUpperSupportPoint) {
  // Non-degenerate probabilities: the distribution's top atom must still
  // be exactly the deterministic WCRT, and its bottom must not undercut
  // the best-case response.
  const KMatrix km = seeded_matrix(23, 24, 0.55);
  for (const auto& [name, rta] : presets()) {
    ProbRtaConfig cfg;
    cfg.rta = rta;
    cfg.fault_ppm = 400'000;
    cfg.stuff_ppm = 800'000;
    cfg.jitter_ppm = 600'000;
    const ProbBusResult prob = analyze_prob(km, cfg);
    const BusResult det = CanRta{km, rta}.analyze();
    for (std::size_t i = 0; i < det.messages.size(); ++i) {
      if (det.messages[i].diverged) continue;
      const std::string tag = name + "/" + det.messages[i].name;
      EXPECT_EQ(prob.messages[i].response.max_value(), det.messages[i].wcrt) << tag;
      EXPECT_GE(prob.messages[i].response.min_value(), det.messages[i].bcrt) << tag;
    }
  }
}

TEST(ProbDifferential, MissProbabilityMonotoneInFaultProbability) {
  // More probable faults can only shift mass upward. Fixed-point residue
  // allows a tiny non-monotonicity; the documented tolerance is
  // ~8*(k+1)^2 ulps of 2^-32 per rung count k.
  const KMatrix km = seeded_matrix(77, 20, 0.60);
  ProbRtaConfig cfg;
  cfg.rta = worst_case_assumptions();
  std::vector<std::uint64_t> prev(km.size(), 0);
  for (const std::int64_t ppm : {0, 1'000, 50'000, 250'000, 600'000, 1'000'000}) {
    cfg.fault_ppm = ppm;
    const ProbBusResult res = analyze_prob(km, cfg);
    for (std::size_t i = 0; i < res.messages.size(); ++i) {
      const std::size_t k = res.messages[i].rungs.size();
      const std::uint64_t tol = 8 * static_cast<std::uint64_t>((k + 1) * (k + 1));
      EXPECT_GE(res.messages[i].miss_weight + tol, prev[i])
          << res.messages[i].det.name << " at " << ppm << " ppm";
      prev[i] = res.messages[i].miss_weight;
    }
  }
}

TEST(ProbDifferential, MixLadderIsPureFunctionOfLadder) {
  // The sweep contract: re-mixing a cached ladder must equal the full
  // per-message analysis, atom for atom.
  const KMatrix km = seeded_matrix(51, 16, 0.45);
  ProbRtaConfig cfg;
  cfg.rta = worst_case_assumptions();
  cfg.fault_ppm = 123'456;
  cfg.stuff_ppm = 777'777;
  for (std::size_t i = 0; i < km.size(); ++i) {
    const std::size_t row[] = {i};
    analysis::ColumnarBus bus;
    analysis::pack_bus(km, cfg.rta, bus, row);
    const RungLadder ladder = solve_rung_ladder(bus, 0, cfg.max_rungs);
    const ProbMessageResult mixed = mix_ladder(ladder, cfg);
    const ProbMessageResult direct = analyze_message_prob(km, cfg, i);
    EXPECT_EQ(mixed.response.atoms(), direct.response.atoms());
    EXPECT_EQ(mixed.miss_weight, direct.miss_weight);
    EXPECT_EQ(mixed.rungs, direct.rungs);
  }
}

// ------------------------------------------------ warm rung-ladder cache --

TEST(ProbCache, RepeatAnalysisHitsAndStaysBitIdentical) {
  const KMatrix km = seeded_matrix(101, 24, 0.60);
  ProbRtaConfig cfg;
  cfg.rta = worst_case_assumptions();
  cfg.fault_ppm = 200'000;
  analysis::IncrementalRta rta;
  const ProbBusResult cold = rta.analyze_prob(km, cfg);
  EXPECT_EQ(rta.prob_stats().hits, 0);
  EXPECT_GT(rta.prob_stats().misses, 0);
  const ProbBusResult warm = rta.analyze_prob(km, cfg);
  EXPECT_GT(rta.prob_stats().hits, 0);
  const ProbBusResult fresh = analyze_prob(km, cfg);
  ASSERT_EQ(cold.messages.size(), fresh.messages.size());
  for (std::size_t i = 0; i < fresh.messages.size(); ++i) {
    expect_same_result(warm.messages[i].det, fresh.messages[i].det, "warm");
    expect_same_result(cold.messages[i].det, fresh.messages[i].det, "cold");
    EXPECT_EQ(warm.messages[i].response.atoms(), fresh.messages[i].response.atoms());
    EXPECT_EQ(cold.messages[i].response.atoms(), fresh.messages[i].response.atoms());
    EXPECT_EQ(warm.messages[i].miss_weight, fresh.messages[i].miss_weight);
  }
}

TEST(ProbCache, FaultProbabilitySweepReusesEveryLadder) {
  // The sweep pattern: same rows, changing fault_ppm. Ladders depend
  // only on the packed row and max_rungs, so after the first point the
  // solver never runs again.
  const KMatrix km = seeded_matrix(37, 20, 0.55);
  ProbRtaConfig cfg;
  cfg.rta = worst_case_assumptions();
  analysis::IncrementalRta rta;
  cfg.fault_ppm = 1'000'000;
  rta.analyze_prob(km, cfg);
  const auto misses_after_first = rta.prob_stats().misses;
  for (const std::int64_t ppm : {500'000, 100'000, 10'000, 1'000}) {
    cfg.fault_ppm = ppm;
    const ProbBusResult cached = rta.analyze_prob(km, cfg);
    const ProbBusResult fresh = analyze_prob(km, cfg);
    for (std::size_t i = 0; i < fresh.messages.size(); ++i) {
      EXPECT_EQ(cached.messages[i].response.atoms(), fresh.messages[i].response.atoms());
      EXPECT_EQ(cached.messages[i].miss_weight, fresh.messages[i].miss_weight);
    }
  }
  EXPECT_EQ(rta.prob_stats().misses, misses_after_first)
      << "a fault-probability sweep must not re-solve any ladder";
}

TEST(ProbCache, PerMessagePathMatchesBusPath) {
  const KMatrix km = seeded_matrix(64, 16, 0.50);
  ProbRtaConfig cfg;
  cfg.rta = best_case_assumptions();
  cfg.jitter_ppm = 500'000;
  analysis::IncrementalRta rta;
  const ProbBusResult bus = rta.analyze_prob(km, cfg);
  for (std::size_t i = 0; i < km.size(); ++i) {
    const ProbMessageResult one = analyze_message_prob(km, cfg, i);
    EXPECT_EQ(one.response.atoms(), bus.messages[i].response.atoms());
    EXPECT_EQ(one.miss_weight, bus.messages[i].miss_weight);
    expect_same_result(one.det, bus.messages[i].det, "per-message");
  }
}

}  // namespace
}  // namespace symcan
