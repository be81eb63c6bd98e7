// Independent oracle for the probabilistic rung ladder. The ladder is
// restated here from scratch: the deterministic solve, then one fresh
// cold solve_columnar(bus, r, FixedFaults{k}) per fault count k below
// the cap, each clamped into [previous rung, deterministic WCRT], and the
// deterministic WCRT on top. solve_rung_ladder() climbs each rung from
// the fixed points of the one below and leaves the rungs above a rung at
// the deterministic WCRT unsolved (every rung a diverged solve clamps to
// is one); on fuzzed buses (sporadic and burst faults, loads past
// saturation, short horizons, offsets, jitter and every ladder cap) it
// must return exactly the oracle's ladder. A second
// check climbs every fault count warm, with no rung skipped, and asserts
// each warm verdict equals the cold one in everything but its iteration
// count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/columnar.hpp"
#include "symcan/analysis/error_model.hpp"
#include "symcan/analysis/prob_rta.hpp"
#include "symcan/can/kmatrix.hpp"

namespace symcan {
namespace {

using analysis::ColumnarBus;
using analysis::solve_columnar;

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  bool chance(unsigned percent) { return next() % 100 < percent; }
};

/// A small random bus at 500 or 125 kbit/s whose load ranges from light
/// to well past saturation.
KMatrix fuzz_matrix(SplitMix& rng) {
  KMatrix km{"fuzz", BitTiming{rng.chance(30) ? 125'000 : 500'000}};
  const std::size_t n_nodes = 1 + rng.below(4);
  for (std::size_t e = 0; e < n_nodes; ++e) {
    EcuNode node;
    node.name = "ecu" + std::to_string(e);
    node.controller = rng.chance(30) ? ControllerType::kBasicCan : ControllerType::kFullCan;
    node.tx_buffers = 1 + static_cast<int>(rng.below(3));
    km.add_node(node);
  }
  const std::size_t n = 2 + rng.below(14);
  const Duration periods[] = {Duration::ms(2), Duration::ms(5), Duration::ms(10),
                              Duration::ms(20), Duration::ns(9'999'991)};
  for (std::size_t i = 0; i < n; ++i) {
    CanMessage m;
    m.name = "m" + std::to_string(i);
    m.id = static_cast<CanId>(0x100 + 7 * i);
    m.payload_bytes = static_cast<int>(rng.below(9));
    m.period = periods[rng.below(std::size(periods))];
    const Duration jitters[] = {Duration::zero(), Duration::us(300), Duration::ms(1)};
    m.jitter = jitters[rng.below(3)];
    if (rng.chance(20)) m.tt_offset = Duration::ms(static_cast<std::int64_t>(rng.below(2)));
    m.deadline_policy = rng.chance(50) ? DeadlinePolicy::kPeriod : DeadlinePolicy::kMinReArrival;
    m.sender = "ecu" + std::to_string(rng.below(n_nodes));
    m.receivers = {"ecu0"};
    km.add_message(std::move(m));
  }
  // Deal the IDs out again so priority is not message order.
  auto& msgs = km.messages();
  for (std::size_t i = msgs.size(); i > 1; --i) std::swap(msgs[i - 1].id, msgs[rng.below(i)].id);
  km.validate();
  return km;
}

/// A fault model that admits anything from a handful of faults to a few
/// dozen per busy period, and a horizon that is sometimes short enough
/// to make the loaded rows diverge early.
CanRtaConfig fuzz_config(SplitMix& rng) {
  CanRtaConfig cfg;
  cfg.worst_case_stuffing = rng.chance(70);
  cfg.model_controller_queues = rng.chance(70);
  cfg.use_offsets = rng.chance(70);
  switch (rng.below(3)) {
    case 0:
      cfg.errors = std::make_shared<SporadicErrors>(
          Duration::us(300 + 200 * static_cast<std::int64_t>(rng.below(10))),
          static_cast<std::int64_t>(rng.below(3)));
      break;
    case 1:
      cfg.errors = std::make_shared<BurstErrors>(
          Duration::ms(2 + static_cast<std::int64_t>(rng.below(10))),
          1 + static_cast<std::int64_t>(rng.below(4)),
          Duration::us(50 * static_cast<std::int64_t>(rng.below(3))));
      break;
    default:
      cfg.errors = std::make_shared<SporadicErrors>(Duration::ms(5));
  }
  if (rng.chance(50)) cfg.horizon = Duration::ms(4 + 4 * static_cast<std::int64_t>(rng.below(12)));
  return cfg;
}

/// The ladder from scratch: every rung solved cold and clamped.
std::vector<Duration> oracle_rungs(const ColumnarBus& bus, std::size_t r, std::int64_t max_rungs) {
  const MessageResult det = solve_columnar(bus, r);
  if (det.diverged || det.wcrt.is_infinite()) return {det.wcrt};
  const std::int64_t k_stop =
      std::min(bus.errors->max_faults(det.busy_period + bus.cost[r]), max_rungs);
  std::vector<Duration> rungs;
  Duration prev = Duration::zero();
  for (std::int64_t k = 0; k < k_stop; ++k) {
    const MessageResult rung = solve_columnar(bus, r, FixedFaults{k});
    Duration v =
        rung.diverged || rung.wcrt.is_infinite() ? det.wcrt : std::min(rung.wcrt, det.wcrt);
    v = std::max(v, prev);
    rungs.push_back(v);
    prev = v;
  }
  rungs.push_back(det.wcrt);
  return rungs;
}

constexpr std::int64_t kCaps[] = {1, 2, 3, 8, 96};

TEST(RungLadderOracle, WarmLadderEqualsTheColdLadder) {
  SplitMix rng{0x72756e672d6c6164ULL};
  std::size_t rows = 0, tall = 0, diverged = 0, pinned = 0, capped = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const KMatrix km = fuzz_matrix(rng);
    const CanRtaConfig cfg = fuzz_config(rng);
    ColumnarBus bus;
    analysis::pack_bus(km, cfg, bus);
    for (std::size_t r = 0; r < bus.size(); ++r) {
      const std::int64_t cap = kCaps[rng.below(std::size(kCaps))];
      SCOPED_TRACE("trial " + std::to_string(trial) + " row " + std::to_string(r) + " cap " +
                   std::to_string(cap));
      const std::vector<Duration> want = oracle_rungs(bus, r, cap);
      const analysis::RungLadder got = analysis::solve_rung_ladder(bus, r, cap);
      const MessageResult det = solve_columnar(bus, r);
      EXPECT_EQ(got.rungs, want);
      EXPECT_EQ(got.det.wcrt, det.wcrt);
      EXPECT_EQ(got.det.busy_period, det.busy_period);
      EXPECT_EQ(got.det.instances, det.instances);
      EXPECT_EQ(got.det.fixedpoint_iterations, det.fixedpoint_iterations);
      EXPECT_EQ(got.det.diverged, det.diverged);

      ++rows;
      tall += want.size() > 4;
      diverged += det.diverged;
      capped += static_cast<std::int64_t>(want.size()) == cap + 1;
      // A rung below the top already at the deterministic WCRT: the rungs
      // above it are the ones the warm ladder leaves unsolved.
      pinned += want.size() > 2 && want[want.size() - 2] == det.wcrt && !det.diverged;
    }
  }
  // The fuzzer must reach tall ladders, diverged rows, ladders the cap
  // cuts, and ladders pinned at the deterministic WCRT below the top.
  EXPECT_GT(rows, 5000u);
  EXPECT_GT(tall, 500u);
  EXPECT_GT(diverged, 500u);
  EXPECT_GT(capped, 500u);
  EXPECT_GT(pinned, 100u);
}

TEST(RungLadderOracle, EveryWarmRungEqualsItsColdSolve) {
  SplitMix rng{0x7761726d2d72756eULL};
  std::size_t warm_rungs = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const KMatrix km = fuzz_matrix(rng);
    const CanRtaConfig cfg = fuzz_config(rng);
    ColumnarBus bus;
    analysis::pack_bus(km, cfg, bus);
    for (std::size_t r = 0; r < bus.size(); ++r) {
      analysis::WarmStart warm;
      for (std::int64_t k = 0; k < 24; ++k) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " row " + std::to_string(r) + " k " +
                     std::to_string(k));
        const MessageResult cold = solve_columnar(bus, r, FixedFaults{k});
        const MessageResult got = solve_columnar(bus, r, FixedFaults{k}, warm);
        EXPECT_EQ(got.wcrt, cold.wcrt);
        EXPECT_EQ(got.busy_period, cold.busy_period);
        EXPECT_EQ(got.instances, cold.instances);
        EXPECT_EQ(got.diverged, cold.diverged);
        EXPECT_EQ(got.schedulable, cold.schedulable);
        EXPECT_LE(got.fixedpoint_iterations, cold.fixedpoint_iterations);
        ++warm_rungs;
        if (cold.diverged) break;
      }
    }
  }
  EXPECT_GT(warm_rungs, 20000u);
}

// Why the diverged-rung clamp in solve_rung_ladder() is never taken with
// the shipped error models: a rung below the top charges k faults with
// k < max_faults(busy + C), and every shipped model charges at least
// that many at the deterministic busy period, so that busy period bounds
// the rung's own (and its windows) below the horizon. Asserted on the
// same fuzzed buses, including the ones whose deterministic solve
// diverges or stops just short of the horizon.
TEST(RungLadderOracle, NoRungBelowTheTopDivergesOnceTheDeterministicSolveConverges) {
  SplitMix rng{0x636c616d702d6e6fULL};
  std::size_t rungs = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const KMatrix km = fuzz_matrix(rng);
    const CanRtaConfig cfg = fuzz_config(rng);
    ColumnarBus bus;
    analysis::pack_bus(km, cfg, bus);
    for (std::size_t r = 0; r < bus.size(); ++r) {
      const MessageResult det = solve_columnar(bus, r);
      if (det.diverged) continue;
      const std::int64_t admitted = bus.errors->max_faults(det.busy_period + bus.cost[r]);
      for (std::int64_t k = 0; k < std::min<std::int64_t>(admitted, 96); ++k) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " row " + std::to_string(r) + " k " +
                     std::to_string(k));
        const MessageResult rung = solve_columnar(bus, r, FixedFaults{k});
        ASSERT_FALSE(rung.diverged);
        EXPECT_LE(rung.busy_period, det.busy_period);
        ++rungs;
      }
    }
  }
  EXPECT_GT(rungs, 20000u);
}

}  // namespace
}  // namespace symcan
