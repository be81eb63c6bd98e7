// Known answers for the feasibility searches: "what is the largest jitter
// that still leaves the bus schedulable?" as the Section 5.2 budgets and
// trades, the Figure 6 max_own_jitter, the Section 4.1 max tolerable
// jitter fraction and the two bottom-up priority assignments ask it.
// Every answer is folded into a digest as bit-exact doubles and integer
// nanoseconds, and a throw counts as an answer (its type and message are
// digested too), so a refactor of the searches must reproduce each probe
// sequence's result exactly. One digest per (seed matrix, search) over
// the five assumption presets; a mismatch names both.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "symcan/analysis/presets.hpp"
#include "symcan/opt/assignment.hpp"
#include "symcan/sensitivity/robustness.hpp"
#include "symcan/supplychain/budget.hpp"
#include "symcan/supplychain/datasheet.hpp"
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

/// Seeded 16-message matrices over the same workload axes as the columnar
/// suite: basicCAN share, ECU count, utilization, offsets with snapped or
/// raw periods, and a known 25 % jitter on every fifth seed.
KMatrix seeded_matrix(std::uint64_t seed) {
  PowertrainConfig cfg;
  cfg.seed = seed;
  cfg.message_count = 16;
  cfg.ecu_count = 4 + static_cast<int>(seed % 3);
  cfg.basic_can_fraction = (seed % 3 == 0) ? 0.5 : 0.2;
  cfg.target_utilization = 0.45 + 0.025 * static_cast<double>(seed % 10);
  KMatrix km = generate_powertrain(cfg);
  if (seed % 2 == 0) {
    if (seed % 4 == 0) snap_periods(km, Duration::ms(5));
    assign_tt_offsets(km);
  }
  if (seed % 5 == 0) assume_jitter_fraction(km, 0.25);
  return km;
}

class Digest {
 public:
  void mix(std::uint64_t v) {
    h_ += v + 0x9e3779b97f4a7c15ULL;
    h_ = (h_ ^ (h_ >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h_ = (h_ ^ (h_ >> 27)) * 0x94d049bb133111ebULL;
    h_ ^= h_ >> 31;
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(Duration d) { mix(static_cast<std::uint64_t>(d.count_ns())); }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  void mix(const std::optional<PriorityOrder>& order) {
    if (!order) return mix(std::uint64_t{0xdead});
    for (const std::size_t i : *order) mix(static_cast<std::uint64_t>(i));
  }

  /// Runs `f` and digests its result, or the type and message of what it
  /// throws. Returns false on a throw.
  template <class F>
  bool answer(F&& f) {
    try {
      mix(f());
      return true;
    } catch (const std::invalid_argument& e) {
      mix(std::uint64_t{1});
      mix(std::string{e.what()});
    } catch (const std::exception& e) {
      mix(std::uint64_t{2});
      mix(std::string{e.what()});
    }
    return false;
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x6a69747465722d66ULL;
};

enum Search { kBudget, kTrade, kOwnJitter, kTolerable, kAudsley, kRobust, kSearches };
constexpr const char* kSearchNames[kSearches] = {
    "allocate_jitter_budgets", "trade_budget",  "max_own_jitter",
    "max_tolerable_jitter_fraction", "audsley_order", "robust_priority_order"};

/// Known answers, one digest per (seed, search) in Search order, each over
/// the five presets in presets() order.
constexpr std::uint64_t kKnownDigests[20][kSearches] = {
    {0xb284893fc2c69774ULL, 0xecac16ad5c279ba0ULL, 0xfe8fad6a33a8e051ULL, 0xb574ea31ce5dcdf4ULL, 0xb95bb7561701dc73ULL, 0xe58d4392b23f31d7ULL},  // seed 1
    {0x649c03f52b23777eULL, 0xa7ae40ad82d6b0a5ULL, 0xa90e4db54a06b5b9ULL, 0xc1382e535491289bULL, 0xf58d72bf6332db90ULL, 0x5df30d675c72c31eULL},  // seed 2
    {0x615050268513d6a5ULL, 0x61e7366e1305c478ULL, 0x63eb3eee41e826f9ULL, 0xbc3f31d1e13ed336ULL, 0xc9df1b0229e958ecULL, 0x6c857f370b7ffc69ULL},  // seed 3
    {0x194b2b6c9f7be783ULL, 0x578aad1743c0cd6fULL, 0xca107feece1bbd60ULL, 0x45f7210c0c492a8fULL, 0x597b078d1e34fb3dULL, 0x7b3f1d65669aa867ULL},  // seed 4
    {0xd58f26ec2f96ad37ULL, 0x896c1a5bccfed33cULL, 0x8b4d96a74e1f3bd6ULL, 0x48cb648283a855c1ULL, 0xb89d34305fefee59ULL, 0x73a070113c5793ebULL},  // seed 5
    {0xaf8809d9fdfd693cULL, 0x0b5ec58a548a959cULL, 0xa38fd58612987c99ULL, 0xed26ae2a7b828289ULL, 0x01ccc6101cd1d69dULL, 0xcd3c2be9169649b3ULL},  // seed 6
    {0xc3b2da06af54cb77ULL, 0x525cc92acfde9cd0ULL, 0x0defbe9fb7693c9cULL, 0xa68affe20a027829ULL, 0xb1c807948fd711efULL, 0xb5b998162685e332ULL},  // seed 7
    {0xe3aeffe7d2ea5b67ULL, 0xf91e13333ffe921eULL, 0xfb99f718d9bc72bcULL, 0x95ac94535e901be1ULL, 0x58dca0241dc9c576ULL, 0x7019c0ed89f9f031ULL},  // seed 8
    {0x5e7f8b9cd3c6f1c6ULL, 0x794c345e50d87b08ULL, 0xdd179a965d8546c2ULL, 0xa67da457f05fbfb6ULL, 0xe04f2de050988ca6ULL, 0x16161d2940764d13ULL},  // seed 9
    {0x23f90c3efa572310ULL, 0x92e6e9c51d0314f2ULL, 0x2cc53c882a48e946ULL, 0x94834bfa3b08c411ULL, 0x6fed824793de9529ULL, 0xec746f6a32f26550ULL},  // seed 10
    {0xafa993de260a626eULL, 0xbadf5f841f05cb9dULL, 0x3d890b87139e3042ULL, 0x28bce1fed1eef2edULL, 0x17691cfa7796ca55ULL, 0x422e09d7eedc091cULL},  // seed 11
    {0xf4bbf2162a58430cULL, 0xde9a81b44fc650f0ULL, 0xc452ad6ac78a2bfbULL, 0x8bbb2f6ebfb66bf5ULL, 0x724609d92cb0a100ULL, 0xa8b468999977d218ULL},  // seed 12
    {0x65d4f4a5c1bda993ULL, 0x21f6665e4c5b93b2ULL, 0x5511447f27642a63ULL, 0x5c046805d5fbefd7ULL, 0x9c35429a8e712cf1ULL, 0xc9df1b0229e958ecULL},  // seed 13
    {0xf96b3a17d42ae8dcULL, 0xebc69517cdc84e74ULL, 0x561b43bbca49a8dfULL, 0xc924e73083eb827fULL, 0x5d53b5132ed024fcULL, 0xe2c7c9e5213d088aULL},  // seed 14
    {0x670964c2fa70f5d6ULL, 0xc1867d912f91467dULL, 0xdd4184098f817914ULL, 0x65f203809bf0d3dcULL, 0x1bd0770fe0147415ULL, 0xab4ddf3667c07fc0ULL},  // seed 15
    {0x2e755c33169a7f93ULL, 0x38a6dd6c715d1e27ULL, 0x3d2614ba9f2967e4ULL, 0xbdbb7af4494c2b51ULL, 0x7f20124b8c3a2a51ULL, 0x22d876541fcc4435ULL},  // seed 16
    {0x87fcc27c8c295f90ULL, 0x0a452128d70a8510ULL, 0x0e391b804116ccceULL, 0x613beeadae6eaffdULL, 0xdd533885f2f84b56ULL, 0x11a54d60529859acULL},  // seed 17
    {0x6af1bb9320127acbULL, 0x6a69747465722d66ULL, 0x96e7abbc6d751d4dULL, 0x62f555bf44f4e22eULL, 0xc9df1b0229e958ecULL, 0xc9df1b0229e958ecULL},  // seed 18
    {0x6af1bb9320127acbULL, 0x6a69747465722d66ULL, 0x96e7abbc6d751d4dULL, 0xbd72d470a1741d11ULL, 0xc9df1b0229e958ecULL, 0xc9df1b0229e958ecULL},  // seed 19
    {0x3ff233c5c4195d6eULL, 0xa438a9e667c1f68dULL, 0xcbdb1d8321457f51ULL, 0x8bb4da7200c4e786ULL, 0xfef9df1c564889daULL, 0xae9d3ef31dc7a442ULL},  // seed 20
};

class FeasibilityDigest : public ::testing::TestWithParam<int> {};

TEST_P(FeasibilityDigest, SearchesReproduceKnownAnswers) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const KMatrix km = seeded_matrix(seed);
  Digest d[kSearches];
  for (const CanRtaConfig& rta : presets()) {
    BudgetReport budgets;
    const bool have_budgets = d[kBudget].answer([&] {
      budgets = allocate_jitter_budgets(km, rta);
      Digest b;
      b.mix(budgets.joint_fraction);
      for (const Duration j : budgets.joint_budget) b.mix(j);
      for (const Duration j : budgets.individual_budget) b.mix(j);
      return b.value();
    });
    // The first message commits to half its joint budget; the last one
    // takes the released flexibility.
    if (have_budgets)
      d[kTrade].answer([&] {
        return trade_budget(km, rta, budgets, km.messages().front().name,
                            budgets.joint_budget.front() / 2, km.messages().back().name);
      });
    for (const CanMessage& m : km.messages()) {
      d[kOwnJitter].answer([&] { return max_own_jitter(km, rta, m.name); });
      d[kTolerable].answer([&] { return max_tolerable_jitter_fraction(km, rta, m.name); });
    }
    d[kAudsley].answer([&] { return audsley_order(km, rta, 0.25); });
    d[kRobust].answer([&] { return robust_priority_order(km, rta); });
  }
  for (int s = 0; s < kSearches; ++s) {
    char got[32];
    std::snprintf(got, sizeof got, "0x%016llxULL", static_cast<unsigned long long>(d[s].value()));
    EXPECT_EQ(d[s].value(), kKnownDigests[seed - 1][s])
        << "seed " << seed << " " << kSearchNames[s] << " digest " << got;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeasibilityDigest, ::testing::Range(1, 21));

}  // namespace
}  // namespace symcan
