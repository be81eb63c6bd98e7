// Independent oracle for the CAN interference rule. The rule is restated
// here as a plain O(n^2) set computation straight from the K-Matrix —
// every pair of messages compared by arbitration rank — and shares no
// code with the packing or fingerprinting in analysis/columnar.cpp. On
// fuzzed matrices (fullCAN and basicCAN senders, offset schedules that
// build and that fall back, equal frame costs, extended frames, and
// unvalidated matrices with tied ranks) it asserts two things:
//
//  * every packed row holds exactly the oracle's row: scalars, the
//    multiset of event-model interferers, the offset groups, and the
//    blocking terms with the frame they charge;
//  * two rows get equal bus_fingerprints keys exactly when their oracle
//    rows are equal, so a cache hit never joins different rows and equal
//    rows in different matrices (a GA neighbour) share a key.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/columnar.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/analysis/tt_schedule.hpp"
#include "symcan/can/kmatrix.hpp"

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

/// A small random bus. Values are drawn from short lists so that frame
/// costs tie and equal rows recur across matrices; every eighth seed
/// reuses IDs, which only an unvalidated matrix can hold.
KMatrix fuzz_matrix(std::uint64_t seed) {
  SplitMix rng{seed * 0x2545f4914f6cdd1dULL + 1};
  KMatrix km{"fuzz", BitTiming{seed % 3 == 0 ? 125'000 : 500'000}};
  const std::size_t n_nodes = 1 + rng.below(4);
  for (std::size_t e = 0; e < n_nodes; ++e) {
    EcuNode node;
    node.name = "ecu" + std::to_string(e);
    node.controller = rng.chance(50) ? ControllerType::kBasicCan : ControllerType::kFullCan;
    node.tx_buffers = 1 + static_cast<int>(rng.below(3));
    km.add_node(node);
  }
  const bool tied_ids = seed % 8 == 0;
  const std::size_t n = 2 + rng.below(22);
  // Distinct (format, id) pairs, dealt without replacement unless ties
  // are wanted. Each extended ID shares its 11 base bits with a standard
  // one, which beats it in arbitration.
  std::vector<std::pair<FrameFormat, CanId>> ids;
  for (CanId id = 0; id < 48; ++id) {
    ids.emplace_back(FrameFormat::kStandard, id);
    ids.emplace_back(FrameFormat::kExtended, (id << 18) | static_cast<CanId>(rng.below(4)));
  }
  for (std::size_t i = ids.size(); i > 1; --i) std::swap(ids[i - 1], ids[rng.below(i)]);
  const Duration periods[] = {Duration::ms(5), Duration::ms(10), Duration::ms(20),
                              Duration::ns(9'999'991), Duration::ns(10'000'019)};
  for (std::size_t i = 0; i < n; ++i) {
    CanMessage m;
    m.name = "m" + std::to_string(i);
    std::tie(m.format, m.id) = ids[tied_ids ? rng.below(n / 2 + 1) : i];
    const int payloads[] = {0, 1, 8};
    m.payload_bytes = payloads[rng.below(3)];
    m.period = periods[rng.below(seed % 5 == 0 ? 5 : 3)];
    const Duration jitters[] = {Duration::zero(), Duration::ms(1), Duration::ms(2)};
    m.jitter = jitters[rng.below(3)];
    m.min_distance = rng.chance(25) ? Duration::us(500) : Duration::zero();
    if (rng.chance(40)) m.tt_offset = Duration::ms(static_cast<std::int64_t>(rng.below(5)));
    const DeadlinePolicy policies[] = {DeadlinePolicy::kPeriod, DeadlinePolicy::kMinReArrival,
                                       DeadlinePolicy::kExplicit};
    m.deadline_policy = policies[rng.below(3)];
    m.explicit_deadline = Duration::ms(3 + static_cast<std::int64_t>(rng.below(10)));
    m.sender = "ecu" + std::to_string(rng.below(n_nodes));
    km.add_message(std::move(m));
  }
  return km;
}

/// The same bus with its IDs dealt out again, as a GA candidate is.
KMatrix shuffle_ids(KMatrix km, std::uint64_t seed) {
  SplitMix rng{seed};
  auto& msgs = km.messages();
  for (std::size_t i = msgs.size(); i > 1; --i) {
    const std::size_t j = rng.below(i);
    std::swap(msgs[i - 1].id, msgs[j].id);
    std::swap(msgs[i - 1].format, msgs[j].format);
  }
  return km;
}

// --- The oracle ----------------------------------------------------------

using Tuple = std::array<std::int64_t, 4>;

/// What a row's verdict depends on, as sets: the key must be equal
/// exactly when two of these are.
struct OracleRow {
  std::int64_t bitrate = 0;
  std::int64_t cost = 0, bcrt = 0, deadline = 0, blocking = 0, max_retx = 0;
  Tuple activation{};
  std::vector<Tuple> hp;                  ///< Event-model interferers (sorted).
  std::vector<std::vector<Tuple>> groups;  ///< Offset groups of sorted members (sorted).
  auto operator<=>(const OracleRow&) const = default;
};

/// The names and splits the labelled pack reports for the same row.
struct OracleLabels {
  /// Entries the solver reads through event models, offset-group
  /// fallbacks included, with names: (period, jitter, dmin, cost, name).
  std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t, std::string>> hp;
  std::vector<std::pair<std::string, std::vector<std::string>>> groups;  ///< Built groups.
  std::string blocking_frame;
  std::int64_t bus = 0, intra = 0;
};

std::int64_t ns(Duration d) { return d.count_ns(); }

Tuple em_tuple(const EventModel& em, Duration cost) {
  return {ns(em.period()), ns(em.jitter()), ns(em.min_distance()), ns(cost)};
}

/// The rule, pair by pair. Message i competes at its effective rank: its
/// own, or on a basicCAN node whose queue is modelled the lowest priority
/// its node sends. A message of another node interferes when it ranks
/// strictly above the effective rank, one of the same node when it ranks
/// strictly above i itself. The largest frame ranked strictly below the
/// effective rank (the first in matrix order among equals) blocks; the
/// largest frame at or above the effective rank, i's own, or the blocking
/// frame can be retransmitted; on basicCAN the tx_buffers largest frames
/// of i's node ranked below i are committed ahead of it.
std::pair<OracleRow, OracleLabels> oracle(const KMatrix& km, const CanRtaConfig& cfg,
                                          std::size_t i) {
  const auto& msgs = km.messages();
  const CanMessage& me = msgs[i];
  const auto cost = [&](const CanMessage& m) {
    return m.wcet(km.timing(), cfg.worst_case_stuffing);
  };
  const EcuNode* node = km.find_node(me.sender);
  const bool basic = cfg.model_controller_queues && node != nullptr &&
                     node->controller == ControllerType::kBasicCan;
  std::uint64_t eff = me.arbitration_rank();
  if (basic)
    for (const CanMessage& m : msgs)
      if (m.sender == me.sender) eff = std::max(eff, m.arbitration_rank());

  OracleRow row;
  OracleLabels lab;
  row.bitrate = km.timing().bits_per_second();
  row.cost = ns(cost(me));
  row.bcrt = ns(me.bcet(km.timing()));
  CanMessage policy = me;
  if (cfg.deadline_override && me.deadline_policy != DeadlinePolicy::kExplicit)
    policy.deadline_policy = *cfg.deadline_override;
  row.deadline = ns(policy.deadline());
  row.activation = em_tuple(me.activation(), Duration::zero());

  Duration bus = Duration::zero();
  Duration retx = cost(me);
  std::vector<Duration> committed;
  std::map<std::string, std::vector<std::size_t>> offset_interferers;
  for (std::size_t k = 0; k < msgs.size(); ++k) {
    if (k == i) continue;
    const CanMessage& m = msgs[k];
    const std::uint64_t rank = m.arbitration_rank();
    const bool same_node = m.sender == me.sender;
    if (rank > eff && cost(m) > bus) {
      bus = cost(m);
      lab.blocking_frame = m.name;
    }
    if (rank <= eff) retx = std::max(retx, cost(m));
    if (basic && same_node && rank > me.arbitration_rank()) committed.push_back(cost(m));
    if (rank >= (same_node ? me.arbitration_rank() : eff)) continue;
    if (cfg.use_offsets && m.tt_offset) {
      offset_interferers[m.sender].push_back(k);
    } else {
      row.hp.push_back(em_tuple(m.activation(), cost(m)));
      lab.hp.emplace_back(ns(m.activation().period()), ns(m.activation().jitter()),
                          ns(m.activation().min_distance()), ns(cost(m)), m.name);
    }
  }
  std::sort(committed.begin(), committed.end(), std::greater<>{});
  committed.resize(std::min(committed.size(), static_cast<std::size_t>(node->tx_buffers)));
  Duration intra = Duration::zero();
  for (const Duration c : committed) intra += c;
  row.blocking = ns(bus + intra);
  row.max_retx = ns(std::max(retx, bus));
  lab.bus = ns(bus);
  lab.intra = ns(intra);

  for (const auto& [sender, members] : offset_interferers) {
    std::vector<Tuple> group;
    std::vector<TtGroup::Member> build;
    std::vector<std::string> names;
    for (const std::size_t k : members) {
      const CanMessage& m = msgs[k];
      group.push_back({ns(m.period), ns(*m.tt_offset), ns(m.jitter), ns(cost(m))});
      build.push_back({m.period, *m.tt_offset, m.jitter, cost(m)});
      names.push_back(m.name);
    }
    std::sort(group.begin(), group.end());
    row.groups.push_back(std::move(group));
    if (TtGroup::build(build)) {
      std::sort(names.begin(), names.end());
      lab.groups.emplace_back(sender, std::move(names));
    } else {
      // Unbounded hyperperiod: each member is analyzed offset-blind.
      for (const std::size_t k : members) {
        const CanMessage& m = msgs[k];
        const EventModel em = EventModel::periodic_jitter(m.period, m.jitter);
        lab.hp.emplace_back(ns(em.period()), ns(em.jitter()), ns(em.min_distance()),
                            ns(cost(m)), m.name);
      }
    }
  }
  std::sort(row.hp.begin(), row.hp.end());
  std::sort(row.groups.begin(), row.groups.end());
  std::sort(lab.hp.begin(), lab.hp.end());
  std::sort(lab.groups.begin(), lab.groups.end());
  return {std::move(row), std::move(lab)};
}

// --- The checks ----------------------------------------------------------

std::vector<CanRtaConfig> presets() {
  CanRtaConfig no_offsets;
  no_offsets.use_offsets = false;
  CanRtaConfig no_queues = worst_case_assumptions();
  no_queues.model_controller_queues = false;
  return {CanRtaConfig{}, no_offsets, best_case_assumptions(), worst_case_assumptions(),
          no_queues};
}

/// Fuzzed matrices, each followed by three ID reshuffles of itself.
std::vector<KMatrix> fuzz_matrices() {
  std::vector<KMatrix> out;
  for (std::uint64_t seed = 1; seed <= 96; ++seed) {
    KMatrix km = fuzz_matrix(seed);
    for (std::uint64_t p = 1; p <= 3; ++p) out.push_back(shuffle_ids(km, seed * 31 + p));
    out.push_back(std::move(km));
  }
  return out;
}

TEST(InterferenceOracle, PackedRowsEqualTheOracleRows) {
  std::size_t basic_rows = 0, groups = 0, fallbacks = 0, tied = 0;
  for (const KMatrix& km : fuzz_matrices()) {
    std::vector<std::size_t> rows(km.size());
    for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    for (const CanRtaConfig& cfg : presets()) {
      analysis::ColumnarBus bus;
      std::vector<analysis::ContextLabels> labels;
      analysis::pack_bus(km, cfg, bus, rows, &labels);
      ASSERT_EQ(bus.size(), km.size());
      for (std::size_t i = 0; i < km.size(); ++i) {
        SCOPED_TRACE(km.messages()[i].name);
        const auto [want, want_lab] = oracle(km, cfg, i);
        EXPECT_EQ(ns(bus.cost[i]), want.cost);
        EXPECT_EQ(ns(bus.bcrt[i]), want.bcrt);
        EXPECT_EQ(ns(bus.deadline[i]), want.deadline);
        EXPECT_EQ(ns(bus.blocking[i]), want.blocking);
        EXPECT_EQ(ns(bus.max_retx[i]), want.max_retx);
        EXPECT_EQ((Tuple{ns(bus.act_period[i]), ns(bus.act_jitter[i]), ns(bus.act_dmin[i]), 0}),
                  want.activation);

        const analysis::ContextLabels& lab = labels[i];
        decltype(want_lab.hp) hp;
        for (std::size_t k = bus.hp_begin[i]; k < bus.hp_begin[i + 1]; ++k)
          hp.emplace_back(ns(bus.hp_period[k]), ns(bus.hp_jitter[k]), ns(bus.hp_dmin[k]),
                          ns(bus.hp_cost[k]), lab.hp[k - bus.hp_begin[i]]);
        std::sort(hp.begin(), hp.end());
        EXPECT_EQ(hp, want_lab.hp);

        decltype(want_lab.groups) got_groups;
        for (std::size_t g = 0; g < lab.tt_sender.size(); ++g) {
          std::vector<std::string> names = lab.tt_members[g];
          std::sort(names.begin(), names.end());
          got_groups.emplace_back(lab.tt_sender[g], std::move(names));
        }
        std::sort(got_groups.begin(), got_groups.end());
        EXPECT_EQ(got_groups, want_lab.groups);
        EXPECT_EQ(bus.tt_begin[i + 1] - bus.tt_begin[i], want_lab.groups.size());

        EXPECT_EQ(lab.blocking_frame, want_lab.blocking_frame);
        EXPECT_EQ(ns(lab.bus_blocking), want_lab.bus);
        EXPECT_EQ(ns(lab.intra_node_blocking), want_lab.intra);

        basic_rows += want_lab.intra > 0;
        groups += want_lab.groups.size();
        fallbacks += want.groups.size() - want_lab.groups.size();
      }
    }
    for (std::size_t i = 0; i < km.size(); ++i)
      for (std::size_t k = 0; k < i; ++k)
        tied += km.messages()[i].arbitration_rank() == km.messages()[k].arbitration_rank();
  }
  // The fuzzer must reach every branch of the rule.
  EXPECT_GT(basic_rows, 0u);
  EXPECT_GT(groups, 0u);
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(tied, 0u);
}

TEST(InterferenceOracle, KeysAreEqualExactlyWhenOracleRowsAre) {
  const std::vector<KMatrix> matrices = fuzz_matrices();
  for (const CanRtaConfig& cfg : presets()) {
    std::map<OracleRow, std::pair<std::uint64_t, std::uint64_t>> key_of;
    std::map<std::pair<std::uint64_t, std::uint64_t>, OracleRow> row_of;
    std::size_t shared = 0;
    for (const KMatrix& km : matrices) {
      const std::vector<analysis::ContextKey> keys = analysis::bus_fingerprints(km, cfg);
      ASSERT_EQ(keys.size(), km.size());
      for (std::size_t i = 0; i < km.size(); ++i) {
        SCOPED_TRACE(km.messages()[i].name);
        const OracleRow row = oracle(km, cfg, i).first;
        const std::pair<std::uint64_t, std::uint64_t> key{keys[i].a, keys[i].b};
        if (const auto it = key_of.find(row); it != key_of.end()) {
          EXPECT_EQ(it->second, key) << "equal rows, different keys";
          ++shared;
        } else {
          key_of.emplace(row, key);
        }
        if (const auto it = row_of.find(key); it != row_of.end())
          EXPECT_TRUE(it->second == row) << "one key, different rows";
        else
          row_of.emplace(key, row);
      }
    }
    // Equal rows must actually recur, or the first half is vacuous.
    EXPECT_GT(shared, 100u);
  }
}

}  // namespace
}  // namespace symcan
