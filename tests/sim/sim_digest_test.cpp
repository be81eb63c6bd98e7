// Known answers for the discrete-event simulator: one digest per case
// over every recorded TraceEvent (time, type, message, instance) and
// every SimResult field — each MessageStats with its sorted responses,
// each NodeStats, and the injected-error total. The cases cross twenty
// seeded power-train buses (basicCAN fraction 0, 0.3 and 0.5) with no,
// sporadic and burst errors, a burst long enough to drive a node
// bus-off, all three stuffing modes and the deterministic worst phasing,
// plus one bus with TimeTable offsets and one whose jitter reaches past
// its period. A rewrite of arbitration or event bookkeeping must replay
// every case bit for bit, not merely keep the statistics plausible. A
// mismatch prints the digest it got.
//
// The buses and the simulator's draws come from util/rng.hpp, whose
// distributions are libstdc++'s; like the columnar known answers, these
// digests hold only on libstdc++ until seeded sampling is portable
// (ROADMAP item 6).

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "symcan/sim/simulator.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

class Digest {
 public:
  void mix(std::uint64_t v) {
    h_ += v + 0x9e3779b97f4a7c15ULL;
    h_ = (h_ ^ (h_ >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h_ = (h_ ^ (h_ >> 27)) * 0x94d049bb133111ebULL;
    h_ ^= h_ >> 31;
  }
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(Duration d) { mix(d.count_ns()); }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x73696d2d64696765ULL;
};

std::uint64_t digest(const SimResult& r) {
  Digest d;
  d.mix(static_cast<std::uint64_t>(r.trace.events().size()));
  for (const TraceEvent& e : r.trace.events()) {
    d.mix(e.time);
    d.mix(static_cast<std::uint64_t>(e.type));
    d.mix(e.message);
    d.mix(e.instance);
  }
  d.mix(static_cast<std::uint64_t>(r.messages.size()));
  for (const MessageStats& m : r.messages) {
    d.mix(m.name);
    d.mix(m.activations);
    d.mix(m.completions);
    d.mix(m.losses);
    d.mix(m.retransmissions);
    d.mix(m.wcrt_observed);
    d.mix(m.bcrt_observed);
    d.mix(m.avg_response_us);
    d.mix(static_cast<std::uint64_t>(m.responses.size()));
    for (const Duration x : m.responses) d.mix(x);
  }
  d.mix(static_cast<std::uint64_t>(r.nodes.size()));
  for (const NodeStats& n : r.nodes) {
    d.mix(n.name);
    d.mix(n.bus_off_events);
    d.mix(n.silent_time);
    d.mix(n.peak_tec);
  }
  d.mix(r.total_errors_injected);
  d.mix(r.simulated);
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL", static_cast<unsigned long long>(v));
  return buf;
}

/// Seeded buses over the axes the simulator branches on: fullCAN-only,
/// 30 % and 50 % basicCAN senders, 16 to 40 messages, loads up to 68 %
/// (so some seeds overwrite pending instances) and 0 to 30 % jitter.
KMatrix seeded_bus(std::uint64_t seed) {
  PowertrainConfig cfg;
  cfg.seed = seed;
  cfg.message_count = 16 + static_cast<int>(seed % 4) * 8;
  cfg.ecu_count = 3 + static_cast<int>(seed % 4);
  const double basic[] = {0.0, 0.3, 0.5};
  cfg.basic_can_fraction = basic[seed % 3];
  cfg.target_utilization = 0.50 + 0.02 * static_cast<double>(seed % 10);
  KMatrix km = generate_powertrain(cfg);
  assume_jitter_fraction(km, 0.1 * static_cast<double>(seed % 4));
  return km;
}

/// The four simulator set-ups every seeded bus runs under.
constexpr int kVariants = 4;

SimConfig variant(std::uint64_t seed, int v) {
  SimConfig cfg;
  cfg.duration = Duration::s(1);
  cfg.seed = seed * 31 + static_cast<std::uint64_t>(v);
  cfg.record_trace = true;
  switch (v) {
    case 0:  // clean bus, sampled stuffing, percentiles
      cfg.stuffing = StuffingMode::kRandom;
      cfg.record_percentiles = true;
      break;
    case 1:  // sporadic faults, worst-case stuffing
      cfg.stuffing = StuffingMode::kWorstCase;
      cfg.errors =
          SimErrorProcess::sporadic(Duration::ms(3 + static_cast<std::int64_t>(seed % 5)));
      break;
    case 2:  // short bursts, unstuffed frames, worst phasing
      cfg.stuffing = StuffingMode::kNone;
      cfg.errors = SimErrorProcess::burst(Duration::ms(15), 3);
      cfg.randomize_jitter = false;
      cfg.record_percentiles = true;
      break;
    default:  // 32-frame bursts: 32 x 8 TEC reaches bus-off
      cfg.stuffing = StuffingMode::kRandom;
      cfg.errors = SimErrorProcess::burst(Duration::ms(50), 32);
      break;
  }
  return cfg;
}

/// Known answers, per seed, in variant() order.
constexpr std::uint64_t kKnownDigests[20][kVariants] = {
    {0xa9b809e022b252e5ULL, 0x6e307d56eee63a90ULL, 0x087037a36e131dd8ULL, 0xaf1979fd42ff4b7aULL},  // seed 1
    {0x29f0d3795d6a869cULL, 0x5229b027e9cd578cULL, 0x6d72614eb65ce4e2ULL, 0xa780e4df44640319ULL},  // seed 2
    {0x428b7165df044329ULL, 0x20841e8f9ae74529ULL, 0xd1a82d9dae04990cULL, 0xdb989a0906aac0e4ULL},  // seed 3
    {0x30765f0059846083ULL, 0xc0202d88d0a2a148ULL, 0xbfad410ff1d2a12eULL, 0xc5ccb16967b789b9ULL},  // seed 4
    {0x41e23ff24f03aa3aULL, 0x4fbcb5cbfd244c89ULL, 0xf3347804516d0a12ULL, 0xbd3a7fb0cfa66460ULL},  // seed 5
    {0xb97d4500535247f1ULL, 0xc0cd37b37eb743b6ULL, 0x15eaec2228bd1348ULL, 0x979588cf6b2fe50cULL},  // seed 6
    {0x8f7972ebc9bdbe9eULL, 0x9b0723a50f0edeadULL, 0xdcd6d71288872d74ULL, 0x079262d60f012855ULL},  // seed 7
    {0x5803f61f92f6c165ULL, 0x01c4da7aae836cc6ULL, 0xbd7f89eb5cc1b2f6ULL, 0xf1dd898f41a9b84bULL},  // seed 8
    {0x05688659cf226d10ULL, 0xdf06928e8bb962adULL, 0x29e21e3bfce3d391ULL, 0xcf325be2a4eccebfULL},  // seed 9
    {0x0ef5b789299aec4eULL, 0x68cd401254a9571aULL, 0xcdbfd4630f9a34fdULL, 0x7733d58e58e43b99ULL},  // seed 10
    {0xc69889d9eacf6681ULL, 0x976d2894305630c8ULL, 0xd39c9bef4a6558b5ULL, 0x8fc4ee00d391115bULL},  // seed 11
    {0xbf8731b16758e9acULL, 0xc378c006a40f4a64ULL, 0x63422bf8350b59eeULL, 0xe1f9957d67bc12fdULL},  // seed 12
    {0x6a012ed906d9005cULL, 0xa1c466e414c166dfULL, 0x9fd6a6d68177c6eaULL, 0x991d3af71ef934bfULL},  // seed 13
    {0x43f7482cd2085da2ULL, 0x57ea357fc172846fULL, 0x8465d3e24b77be27ULL, 0x8f5986c7ae283279ULL},  // seed 14
    {0xde4adb646c7924ccULL, 0x793a87f7255c300eULL, 0x98270386435e1779ULL, 0x8634528f37150718ULL},  // seed 15
    {0x7142aeacf1c41811ULL, 0xb133217ff58535b4ULL, 0x94e151d661f78535ULL, 0x9b4923df48655affULL},  // seed 16
    {0x52be573895fe7e45ULL, 0xa81ee42266ed206cULL, 0xffffd24fbc950581ULL, 0xd7f36a268982641cULL},  // seed 17
    {0xe02bbbe6d506debeULL, 0x2bc7d26f62fc5091ULL, 0xe4c6c6945cffd33eULL, 0x3569381215a80d02ULL},  // seed 18
    {0x17a9de25b333d689ULL, 0x8d106dd0c8f529e3ULL, 0x408489bfaffc3322ULL, 0x78827af2d256c54dULL},  // seed 19
    {0x1e1b19288e897026ULL, 0x4a48875b13192436ULL, 0xfc7ba98e73b95477ULL, 0x9e123c6ec52eac4aULL},  // seed 20
};

class SimDigest : public ::testing::TestWithParam<int> {};

TEST_P(SimDigest, SeededBusReplaysKnownAnswers) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const KMatrix km = seeded_bus(seed);
  for (int v = 0; v < kVariants; ++v) {
    const SimResult r = simulate(km, variant(seed, v));
    ASSERT_FALSE(r.trace.events().empty());
    EXPECT_EQ(digest(r), kKnownDigests[seed - 1][v])
        << "seed " << seed << " variant " << v << " digest " << hex(digest(r));
    if (v == kVariants - 1) {
      std::int64_t bus_off = 0;
      for (const NodeStats& n : r.nodes) bus_off += n.bus_off_events;
      EXPECT_GT(bus_off, 0) << "seed " << seed << ": no node reached bus-off";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimDigest, ::testing::Range(1, 21));

TEST(SimDigest, OffsetBusReplaysKnownAnswer) {
  KMatrix km = seeded_bus(4);
  snap_periods(km, Duration::ms(5));
  ASSERT_GT(assign_tt_offsets(km), 0u);
  SimConfig cfg = variant(4, 1);
  cfg.record_percentiles = true;
  const SimResult r = simulate(km, cfg);
  EXPECT_EQ(digest(r), 0x1246c5f8abb5f176ULL) << "digest " << hex(digest(r));
}

TEST(SimDigest, JitterBeyondPeriodReplaysKnownAnswer) {
  // Every third message releases with up to 1.5 periods of jitter, so
  // consecutive instances can arrive back to back or out of slot order.
  KMatrix km = seeded_bus(9);
  for (std::size_t i = 0; i < km.size(); i += 3) {
    CanMessage& m = km.messages()[i];
    m.jitter = m.period + m.period / 2;
  }
  SimConfig cfg = variant(9, 0);
  cfg.errors = SimErrorProcess::sporadic(Duration::ms(7));
  const SimResult r = simulate(km, cfg);
  std::int64_t losses = 0;
  for (const MessageStats& m : r.messages) losses += m.losses;
  EXPECT_GT(losses, 0);
  EXPECT_EQ(digest(r), 0xcdd894756471583eULL) << "digest " << hex(digest(r));
}

}  // namespace
}  // namespace symcan
