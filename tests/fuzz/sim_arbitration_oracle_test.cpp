// Independent oracle for the simulator's bus arbitration. It reads only
// the recorded trace of a run and the K-Matrix, and shares no code with
// sim/simulator.cpp: pending frames are rebuilt from the trace alone (set
// on release and retransmit, cleared when transmission starts). On
// fuzzed fullCAN buses with sporadic or burst errors and fault
// confinement off, so no sender ever falls silent, it asserts:
//
//  * every frame that starts transmitting outranks every other pending
//    frame (lowest arbitration_rank() wins), and the bus is idle then;
//  * every completed transmission lasts between the frame's unstuffed
//    and worst-case stuffed bit times;
//  * the bus is work-conserving: when a frame is still pending at a
//    successful end of transmission, the next one starts at that instant.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "symcan/can/kmatrix.hpp"
#include "symcan/sim/simulator.hpp"

namespace symcan {
namespace {

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

/// A small random fullCAN bus: standard and extended frames (each
/// extended ID shares its 11 base bits with a standard one), empty to
/// full payloads, periods down to 2 ms so frames queue, jitter up to
/// twice the period, and some TimeTable offsets.
KMatrix fuzz_bus(std::uint64_t seed, SplitMix& rng) {
  KMatrix km{"fuzz", BitTiming{seed % 3 == 0 ? 125'000 : 500'000}};
  const std::size_t n_nodes = 1 + rng.below(4);
  for (std::size_t e = 0; e < n_nodes; ++e) {
    EcuNode node;
    node.name = "ecu" + std::to_string(e);
    node.controller = ControllerType::kFullCan;
    km.add_node(node);
  }
  std::vector<std::pair<FrameFormat, CanId>> ids;
  for (CanId id = 0; id < 48; ++id) {
    ids.emplace_back(FrameFormat::kStandard, id);
    ids.emplace_back(FrameFormat::kExtended, (id << 18) | static_cast<CanId>(rng.below(4)));
  }
  for (std::size_t i = ids.size(); i > 1; --i) std::swap(ids[i - 1], ids[rng.below(i)]);
  const std::size_t n = 2 + rng.below(22);
  const std::int64_t scale = seed % 3 == 0 ? 4 : 1;  // slower bus, longer periods
  for (std::size_t i = 0; i < n; ++i) {
    CanMessage m;
    m.name = "m" + std::to_string(i);
    std::tie(m.format, m.id) = ids[i];
    m.payload_bytes = static_cast<int>(rng.below(9));
    const std::int64_t periods_ms[] = {2, 5, 10, 20, 50};
    m.period = Duration::ms(periods_ms[rng.below(5)] * scale);
    const std::int64_t jitter_pct[] = {0, 0, 10, 50, 100, 200};
    m.jitter = m.period * jitter_pct[rng.below(6)] / 100;
    if (rng.chance(20)) m.tt_offset = Duration::ms(static_cast<std::int64_t>(rng.below(2)));
    m.sender = "ecu" + std::to_string(rng.below(n_nodes));
    km.add_message(std::move(m));
  }
  km.validate();
  return km;
}

SimConfig fuzz_config(std::uint64_t seed, SplitMix& rng) {
  SimConfig cfg;
  cfg.duration = Duration::ms(300);
  cfg.seed = seed;
  cfg.record_trace = true;
  cfg.model_fault_confinement = false;
  const StuffingMode modes[] = {StuffingMode::kNone, StuffingMode::kRandom,
                                StuffingMode::kWorstCase};
  cfg.stuffing = modes[rng.below(3)];
  cfg.randomize_jitter = !rng.chance(20);
  const Duration gap = Duration::us(500 + 500 * static_cast<std::int64_t>(rng.below(20)));
  cfg.errors = rng.chance(50) ? SimErrorProcess::sporadic(gap)
                              : SimErrorProcess::burst(gap * 4,
                                                       1 + static_cast<std::int64_t>(rng.below(6)));
  return cfg;
}

/// What the replay saw, so the fuzz loop can show its cases are not
/// vacuous.
struct Coverage {
  std::size_t starts = 0;
  std::size_t contested = 0;  ///< Starts with another frame pending.
  std::size_t back_to_back = 0;
  std::size_t errors = 0;
};

/// Replays `trace` against the arbitration rules; returns the first
/// violation, or nothing.
std::optional<std::string> check_trace(const KMatrix& km, const Trace& trace, Coverage& cov) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < km.size(); ++i) index[km.messages()[i].name] = i;
  std::vector<bool> pending(km.size(), false);
  constexpr std::size_t kIdle = SIZE_MAX;
  std::size_t on_bus = kIdle;
  Duration started = Duration::zero();
  bool backlog = false;  // a tx-end left frames pending at `ended`
  Duration ended = Duration::zero();

  const auto& events = trace.events();
  for (std::size_t k = 0; k < events.size(); ++k) {
    const TraceEvent& e = events[k];
    const auto it = index.find(e.message);
    if (it == index.end()) return "unknown message " + e.message;
    const std::size_t i = it->second;
    const CanMessage& m = km.messages()[i];
    const std::string at = " at event " + std::to_string(k) + " (" + to_string(e.time) + ", " +
                           e.message + "#" + std::to_string(e.instance) + ")";
    switch (e.type) {
      case TraceEventType::kRelease:
      case TraceEventType::kRetransmit:
        pending[i] = true;
        break;
      case TraceEventType::kLoss:
        break;  // a newer instance (or none in flight) keeps the buffer
      case TraceEventType::kTxStart: {
        if (on_bus != kIdle)
          return "start while " + km.messages()[on_bus].name + " is on the bus" + at;
        if (!pending[i]) return "start of a frame that is not pending" + at;
        if (backlog && e.time != ended)
          return "bus idled with frames pending since " + to_string(ended) + at;
        backlog = false;
        ++cov.starts;
        bool contested = false;
        for (std::size_t j = 0; j < km.size(); ++j) {
          if (j == i || !pending[j]) continue;
          contested = true;
          if (km.messages()[j].arbitration_rank() < m.arbitration_rank())
            return "lost arbitration to pending " + km.messages()[j].name + at;
        }
        if (contested) ++cov.contested;
        pending[i] = false;
        on_bus = i;
        started = e.time;
        break;
      }
      case TraceEventType::kTxEnd: {
        if (on_bus != i) return "end of a frame that is not on the bus" + at;
        const Duration span = e.time - started;
        const Duration lo = m.wcet(km.timing(), false);
        const Duration hi = m.wcet(km.timing(), true);
        if (span < lo || span > hi)
          return "transmission took " + to_string(span) + ", outside [" + to_string(lo) + ", " +
                 to_string(hi) + "]" + at;
        on_bus = kIdle;
        for (std::size_t j = 0; j < km.size(); ++j) backlog = backlog || pending[j];
        ended = e.time;
        if (backlog) ++cov.back_to_back;
        break;
      }
      case TraceEventType::kError:
        if (on_bus != i) return "error on a frame that is not on the bus" + at;
        if (e.time - started > m.wcet(km.timing(), true))
          return "error after the frame's worst-case end" + at;
        on_bus = kIdle;
        ++cov.errors;
        break;
    }
  }
  return std::nullopt;
}

TEST(SimArbitrationOracle, FuzzedFullCanBusesArbitrateByLowestPendingRank) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SplitMix rng{seed * 0x2545f4914f6cdd1dULL + 7};
    const KMatrix km = fuzz_bus(seed, rng);
    const SimConfig cfg = fuzz_config(seed, rng);
    const SimResult r = simulate(km, cfg);
    const auto violation = check_trace(km, r.trace, cov);
    ASSERT_FALSE(violation) << "seed " << seed << ": " << *violation;
  }
  // The fuzzed buses must actually contend, queue back to back and see
  // errors, or the assertions above check nothing.
  EXPECT_GT(cov.starts, 10'000u);
  EXPECT_GT(cov.contested, cov.starts / 10);
  EXPECT_GT(cov.back_to_back, 1'000u);
  EXPECT_GT(cov.errors, 100u);
}

}  // namespace
}  // namespace symcan
