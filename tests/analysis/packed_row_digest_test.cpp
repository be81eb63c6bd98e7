// Known answers for the interference rule at the pack/fingerprint layer:
// every bus_fingerprints() key and every packed row — its scalars, its
// higher-priority entries as sorted (period, jitter, dmin, cost, name)
// tuples, its offset groups, and the blocking frame its ContextLabels
// name — over the five assumption presets and twenty seeded matrices,
// each with ten GA-style ID permutations. The keys are cache keys, so a
// rewrite of how rows are resolved must reproduce them bit for bit, not
// merely produce equal verdicts. Rows are digested as sets (entries and
// groups sorted), because the order a pack emits them in is not part of
// its contract. One digest per (seed, preset) and plane; a mismatch
// prints the digest it got.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/columnar.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/opt/assignment.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

/// The five assumption presets of the columnar known-answer suite.
std::vector<CanRtaConfig> presets() {
  CanRtaConfig no_offsets;
  no_offsets.use_offsets = false;
  CanRtaConfig no_queues = worst_case_assumptions();
  no_queues.model_controller_queues = false;
  return {CanRtaConfig{}, no_offsets, best_case_assumptions(), worst_case_assumptions(),
          no_queues};
}

/// Seeded matrices over the axes the rule branches on: basicCAN senders
/// (30 % or 50 % of the ECUs), offset schedules that build (snapped
/// periods) or fall back (raw periods), a known 25 % jitter, and on every
/// seventh seed a mix of extended and standard frames.
KMatrix seeded_matrix(std::uint64_t seed) {
  PowertrainConfig cfg;
  cfg.seed = seed;
  cfg.message_count = 16 + static_cast<int>(seed % 4) * 8;
  cfg.ecu_count = 4 + static_cast<int>(seed % 3);
  cfg.basic_can_fraction = (seed % 3 == 0) ? 0.5 : 0.3;
  cfg.target_utilization = 0.45 + 0.025 * static_cast<double>(seed % 10);
  KMatrix km = generate_powertrain(cfg);
  if (seed % 2 == 0) {
    if (seed % 4 == 0) snap_periods(km, Duration::ms(5));
    assign_tt_offsets(km);
  }
  if (seed % 5 == 0) assume_jitter_fraction(km, 0.25);
  if (seed % 7 == 0) {
    for (std::size_t i = 0; i < km.size(); i += 3) {
      CanMessage& m = km.messages()[i];
      m.format = FrameFormat::kExtended;
      m.id = (m.id << 18) | static_cast<CanId>(i);
    }
  }
  km.validate();
  return km;
}

/// SplitMix64 stream for the ID permutations, so they do not depend on a
/// standard-library distribution.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// The matrix itself, then ten random priority orders of it applied the
/// way the GA applies a candidate.
std::vector<KMatrix> with_permutations(const KMatrix& km, std::uint64_t seed) {
  std::vector<KMatrix> out{km};
  SplitMix rng{seed * 0x5851f42d4c957f2dULL};
  for (int p = 0; p < 10; ++p) {
    PriorityOrder order(km.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.next() % i]);
    out.push_back(apply_priority_order(km, order));
  }
  return out;
}

class Digest {
 public:
  void mix(std::uint64_t v) {
    h_ += v + 0x9e3779b97f4a7c15ULL;
    h_ = (h_ ^ (h_ >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h_ = (h_ ^ (h_ >> 27)) * 0x94d049bb133111ebULL;
    h_ ^= h_ >> 31;
  }
  void mix(Duration d) { mix(static_cast<std::uint64_t>(d.count_ns())); }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x7061636b65642d72ULL;
};

using HpTuple = std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t, std::string>;

/// One offset group as a comparable value: sender, member names in
/// sorted order, and what the solver reads of it.
struct GroupValue {
  std::string sender;
  std::vector<std::string> members;
  std::int64_t hyperperiod_ns;
  std::size_t releases;
  std::int64_t demand_ns[2];
};

/// Every value of packed row r, entries and groups as sorted sets.
/// `lab` names them when the pack was asked for labels.
void mix_row(Digest& d, const analysis::ColumnarBus& bus, std::size_t r,
             const analysis::ContextLabels* lab) {
  d.mix(bus.cost[r]);
  d.mix(bus.bcrt[r]);
  d.mix(bus.deadline[r]);
  d.mix(bus.blocking[r]);
  d.mix(bus.max_retx[r]);
  d.mix(bus.act_period[r]);
  d.mix(bus.act_jitter[r]);
  d.mix(bus.act_dmin[r]);

  std::vector<HpTuple> hp;
  for (std::size_t k = bus.hp_begin[r]; k < bus.hp_begin[r + 1]; ++k)
    hp.emplace_back(bus.hp_period[k].count_ns(), bus.hp_jitter[k].count_ns(),
                    bus.hp_dmin[k].count_ns(), bus.hp_cost[k].count_ns(),
                    lab != nullptr ? lab->hp[k - bus.hp_begin[r]] : std::string{});
  std::sort(hp.begin(), hp.end());
  d.mix(static_cast<std::uint64_t>(hp.size()));
  for (const HpTuple& e : hp) {
    d.mix(static_cast<std::uint64_t>(std::get<0>(e)));
    d.mix(static_cast<std::uint64_t>(std::get<1>(e)));
    d.mix(static_cast<std::uint64_t>(std::get<2>(e)));
    d.mix(static_cast<std::uint64_t>(std::get<3>(e)));
    d.mix(std::get<4>(e));
  }

  std::vector<GroupValue> groups;
  for (std::size_t g = bus.tt_begin[r]; g < bus.tt_begin[r + 1]; ++g) {
    const TtGroup& group = bus.tt_groups[g];
    GroupValue v{};
    if (lab != nullptr) {
      v.sender = lab->tt_sender[g - bus.tt_begin[r]];
      v.members = lab->tt_members[g - bus.tt_begin[r]];
      std::sort(v.members.begin(), v.members.end());
    }
    v.hyperperiod_ns = group.hyperperiod().count_ns();
    v.releases = group.release_count();
    v.demand_ns[0] = group.interference(Duration::ms(1)).count_ns();
    v.demand_ns[1] = group.interference(Duration::us(7300)).count_ns();
    groups.push_back(std::move(v));
  }
  // Without labels the groups are only values; sort by those too.
  std::sort(groups.begin(), groups.end(), [](const GroupValue& x, const GroupValue& y) {
    return std::tie(x.sender, x.members, x.hyperperiod_ns, x.releases, x.demand_ns[0],
                    x.demand_ns[1]) < std::tie(y.sender, y.members, y.hyperperiod_ns,
                                               y.releases, y.demand_ns[0], y.demand_ns[1]);
  });
  d.mix(static_cast<std::uint64_t>(groups.size()));
  for (const GroupValue& v : groups) {
    d.mix(v.sender);
    d.mix(static_cast<std::uint64_t>(v.members.size()));
    for (const std::string& m : v.members) d.mix(m);
    d.mix(static_cast<std::uint64_t>(v.hyperperiod_ns));
    d.mix(static_cast<std::uint64_t>(v.releases));
    d.mix(static_cast<std::uint64_t>(v.demand_ns[0]));
    d.mix(static_cast<std::uint64_t>(v.demand_ns[1]));
  }

  if (lab != nullptr) {
    d.mix(lab->blocking_frame);
    d.mix(lab->bus_blocking);
    d.mix(lab->intra_node_blocking);
  }
}

enum Plane { kKeys, kRows, kPlanes };
constexpr const char* kPlaneNames[kPlanes] = {"bus_fingerprints", "pack_bus"};

/// Known answers, per seed: the key digest and the row digest for each
/// of the five presets in presets() order.
constexpr std::uint64_t kKnownDigests[20][kPlanes][5] = {
    {{0xd5319d6dd2bd73deULL, 0x9c3205044459f2c3ULL, 0x80477d9c26bb324dULL, 0x6cc803de914aa359ULL, 0xc832ef66987ba27fULL},
     {0x4674f4882980cd78ULL, 0x4674f4882980cd78ULL, 0x4358e78fd8bb3f0dULL, 0x62f758bc56f63d63ULL, 0xe21dc189bf8859c4ULL}},  // seed 1
    {{0xe25a20b9f1e2f4c8ULL, 0x58bede5d780103d5ULL, 0xb9405f0958b71596ULL, 0x712e706de9600ec7ULL, 0x8830b1af38507474ULL},
     {0xa6a8f5b54553a41eULL, 0x3478006c555543c6ULL, 0xc44e98cebbd29831ULL, 0x2cf3818f703ff38fULL, 0x47dc89a03aae848fULL}},  // seed 2
    {{0x688f75a95d75a3dbULL, 0x5f2af9393030a78cULL, 0x043dd74c0d1e0143ULL, 0xa2d400e5d4c416bdULL, 0x5b6364fb85194226ULL},
     {0x055d0df59cb44dccULL, 0x055d0df59cb44dccULL, 0x433755cd46295e02ULL, 0x4430083a94f85640ULL, 0x75f6fbd3b34a3001ULL}},  // seed 3
    {{0xbc50442a3688f375ULL, 0xf16da19915ef6e6aULL, 0x2de670971e176f3fULL, 0xa4782e12dc270297ULL, 0x3e695c2f8d4b199fULL},
     {0x4b7e5a11c3212e8eULL, 0xf671dcb2a2d871c8ULL, 0xd6232deb77213090ULL, 0xf156c59d0f7a1161ULL, 0x40a4c6faf2bb3bf3ULL}},  // seed 4
    {{0x1fb715ee2c59b939ULL, 0x2a953e467116c70eULL, 0xca7954436fa6e745ULL, 0xbf32407d7a9e8755ULL, 0x95cf395d1213549cULL},
     {0xf50079478f927292ULL, 0xf50079478f927292ULL, 0x127aede855a5ffabULL, 0xcc6f6fe6b7622f48ULL, 0x5abfa70d48a08b23ULL}},  // seed 5
    {{0x0bebee4da6376388ULL, 0x78d4d06cce301542ULL, 0xee895fff5da7a5f4ULL, 0x6222ee78fedd2049ULL, 0x2c7187cbb06245d9ULL},
     {0x5f058bfa33f3ce32ULL, 0xd689c4fb6be0e0baULL, 0x8eb1c5bcef73352dULL, 0xd6f5325799e2324fULL, 0xd6f5325799e2324fULL}},  // seed 6
    {{0x6aa32a512b603e16ULL, 0x348b2d18d660da94ULL, 0x2661a3f617aba9a5ULL, 0x9520e4d7ff7bef8aULL, 0x19b119ae4fd3c8efULL},
     {0x0b92a109f7f8f77dULL, 0x0b92a109f7f8f77dULL, 0xfadda0ab29756c9cULL, 0xb99e70ff318354a3ULL, 0xf2250799a31b0c07ULL}},  // seed 7
    {{0x33dd53786a58801dULL, 0x8a23f8a89fa2f0f1ULL, 0xfee38d66e31d76dbULL, 0x64dead53343ea0adULL, 0x60cd8ca7fa7ef9e6ULL},
     {0xa4f08da5bc26276dULL, 0x3a2fea2f4cc74dd4ULL, 0x0c76b6dbc2061ffeULL, 0x9e8975ac5f9cddbbULL, 0x9e8975ac5f9cddbbULL}},  // seed 8
    {{0x2d9b81cf86ae8607ULL, 0x4d8725d7a9061e82ULL, 0xcc6ae4aaa0beb13fULL, 0x34aee745516f3f7cULL, 0x5a9d377020de9f0aULL},
     {0x891bb0ff55acd96aULL, 0x891bb0ff55acd96aULL, 0xb7e31c4e32bf1a79ULL, 0xba26c321fcd55f2eULL, 0x7f09ea09c0bd63a4ULL}},  // seed 9
    {{0xdc6225bfaeec185aULL, 0xca6bd41ee75b42f6ULL, 0x0ca75fe16f8dc44aULL, 0x06b66cc3109160a2ULL, 0xb237d8f7e01043f6ULL},
     {0x1e10041cd8e5ae31ULL, 0x153bfedf84c0c118ULL, 0x5e10b0b7cbba6003ULL, 0xa7da7f3485320292ULL, 0x7856847732356719ULL}},  // seed 10
    {{0xa4cc9bad30c88747ULL, 0xb284be9ca6050798ULL, 0xa469528aa395b36dULL, 0x35ad103584b3a5c7ULL, 0x4e0735a0f195588bULL},
     {0x2658f5305c926825ULL, 0x2658f5305c926825ULL, 0x610079b9a80990cdULL, 0xb9dd56739dae7e60ULL, 0xc188ff099a9d3231ULL}},  // seed 11
    {{0x5a60d597fd3f64d4ULL, 0x13aa490a94002d54ULL, 0xe34fc302bfef2005ULL, 0x4c3aba620eae134fULL, 0xb3c189e90337768cULL},
     {0x7bf6911eb94b2ed3ULL, 0x29256ada11d18e26ULL, 0x4ba4f496d83ad7e7ULL, 0x468335ee35b77fb7ULL, 0x0da9636e9fca27c6ULL}},  // seed 12
    {{0x93715703e636678cULL, 0xb6ea0f0369892c0bULL, 0x2bc70bfc6cb0d82fULL, 0xb3b87366a477aefeULL, 0x0f0bf72e354d5271ULL},
     {0xd1f082cf0ce4ef53ULL, 0xd1f082cf0ce4ef53ULL, 0x4fe93cbda0cb8079ULL, 0x66678ecadc793881ULL, 0x1ab28f7b8afeb4feULL}},  // seed 13
    {{0xbfd66d7f7dbe4a0bULL, 0x3412320f6e0ac1deULL, 0xc40c71d7dc3a0f73ULL, 0x9e038f944955fa67ULL, 0x65001949f64a82fdULL},
     {0x1882f368468ffdafULL, 0x8f409288751957a9ULL, 0x217275bd281f3c85ULL, 0xff33fec08413cb35ULL, 0xff33fec08413cb35ULL}},  // seed 14
    {{0x762c39167eaae6a0ULL, 0x88a304100df40172ULL, 0x881a55ddea82395cULL, 0x8b4ff4cda114bd1cULL, 0x9c1194930cf1a818ULL},
     {0x9634fce67f666441ULL, 0x9634fce67f666441ULL, 0x22d74cb01c9b056bULL, 0x36a759e383562823ULL, 0x9e2ebceef0e282d8ULL}},  // seed 15
    {{0x11337cf8a821cda9ULL, 0x6c4efe2c79450552ULL, 0x0fbed7fb7d46fa44ULL, 0xb27c741514f9bff6ULL, 0x5a5fb5e966a49ab4ULL},
     {0x9cc36ad8ab2695cfULL, 0x7969c9459e552373ULL, 0x17458362915f3d50ULL, 0x6603710f170dd15fULL, 0xd1590f0dae08d8d7ULL}},  // seed 16
    {{0xa017e20df71a6a89ULL, 0xd28b393ab8380d4fULL, 0x37173ac3e693b250ULL, 0x0328a618229803a2ULL, 0xa1b33d0e55b472adULL},
     {0x130aa487db60503fULL, 0x130aa487db60503fULL, 0x0015d9547bb12a92ULL, 0x34e63c1e87afc2e2ULL, 0x79145d68df9e4b02ULL}},  // seed 17
    {{0xc214b2a5b207cb76ULL, 0xb0e7a82c11fffdc9ULL, 0x95f3b858116467c5ULL, 0x6eb1043ba9c9d128ULL, 0xc07dddfb47da3b12ULL},
     {0xd37296da99103073ULL, 0x52b1d403971cf530ULL, 0xf7f7db47a661cfefULL, 0x5dc5b6b0a5a63e52ULL, 0xfb4f80933b941881ULL}},  // seed 18
    {{0x861e776b7228310cULL, 0xc53c3e1e0914788bULL, 0x817873dc2718a635ULL, 0x639582db6be9989bULL, 0xc6cb1b71c0da22dcULL},
     {0x9fa83ebf8ed983a9ULL, 0x9fa83ebf8ed983a9ULL, 0x77b251a411c681f2ULL, 0x89bac9cd70b094beULL, 0xcdf746926ae496abULL}},  // seed 19
    {{0x0af934cdfeaa1f0bULL, 0x6f476e8fa6f31b72ULL, 0xb8eee42802687fe1ULL, 0x3642bd07ce1c1dc9ULL, 0x83f33e5513f056aeULL},
     {0xbbd2ca4376bb3424ULL, 0xf284c1429f146762ULL, 0xf3935af011034596ULL, 0x3aee0d1b05606609ULL, 0x939429471f4d1ea2ULL}},  // seed 20
};

class PackedRowDigest : public ::testing::TestWithParam<int> {};

TEST_P(PackedRowDigest, KeysAndRowsReproduceKnownAnswers) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const std::vector<KMatrix> matrices = with_permutations(seeded_matrix(seed), seed);
  const std::vector<CanRtaConfig> ps = presets();
  std::size_t basic_rows = 0, groups_seen = 0;
  for (std::size_t pi = 0; pi < ps.size(); ++pi) {
    Digest d[kPlanes];
    for (const KMatrix& km : matrices) {
      for (const analysis::ContextKey& k : analysis::bus_fingerprints(km, ps[pi])) {
        d[kKeys].mix(k.a);
        d[kKeys].mix(k.b);
      }
      std::vector<std::size_t> rows(km.size());
      for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
      analysis::ColumnarBus labelled, plain;
      std::vector<analysis::ContextLabels> labels;
      analysis::pack_bus(km, ps[pi], labelled, rows, &labels);
      analysis::pack_bus(km, ps[pi], plain);
      for (std::size_t r = 0; r < km.size(); ++r) {
        mix_row(d[kRows], labelled, r, &labels[r]);
        mix_row(d[kRows], plain, r, nullptr);
        if (labels[r].intra_node_blocking > Duration::zero()) ++basic_rows;
      }
      groups_seen += plain.tt_groups.size();
    }
    for (int p = 0; p < kPlanes; ++p) {
      char got[32];
      std::snprintf(got, sizeof got, "0x%016llxULL",
                    static_cast<unsigned long long>(d[p].value()));
      EXPECT_EQ(d[p].value(), kKnownDigests[seed - 1][p][pi])
          << "seed " << seed << " preset #" << pi << " " << kPlaneNames[p] << " digest " << got;
    }
  }
  // A seed whose generator drew a basicCAN sender of two or more frames
  // reaches the committed FIFO term; seeds divisible by 4 build offset
  // groups.
  bool fifo = false;
  for (const EcuNode& node : matrices.front().nodes()) {
    std::size_t sent = 0;
    for (const CanMessage& m : matrices.front().messages()) sent += m.sender == node.name;
    fifo = fifo || (node.controller == ControllerType::kBasicCan && sent >= 2);
  }
  if (fifo) {
    EXPECT_GT(basic_rows, 0u);
  }
  if (seed % 4 == 0) {
    EXPECT_GT(groups_seen, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedRowDigest, ::testing::Range(1, 21));

}  // namespace
}  // namespace symcan
