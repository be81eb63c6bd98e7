// Known answers for the probabilistic analysis: a 64-bit digest of every
// ProbMessageResult analyze_prob() returns — the deterministic verdict it
// carries (wcrt, busy period, instances, iterations, flags), the rung
// ladder, every atom of the response PMF as (value, weight), the miss
// weight and the convolution count — over five error-model presets and
// twenty seeded matrices, each at five fault probabilities and three
// ladder caps. The answers are pure integer arithmetic, so a faster
// ladder solve or mixture must reproduce them bit for bit. The seeds
// span basicCAN senders, offset schedules, known and assumed jitter, and
// loads past saturation, where low-priority rows diverge. One digest per
// (seed, preset); a mismatch prints the digest it got.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "symcan/analysis/presets.hpp"
#include "symcan/analysis/prob_rta.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

/// Five error-model presets: the burst worst case, dense sporadic faults
/// (tall ladders, and divergence under load), sporadic faults with an
/// initial cluster and no offsets, short bursts with an intra-burst gap
/// and no controller queues, and the fault-free best case.
std::vector<CanRtaConfig> presets() {
  CanRtaConfig dense = worst_case_assumptions();
  dense.errors = std::make_shared<SporadicErrors>(Duration::us(1500));
  CanRtaConfig initial = worst_case_assumptions();
  initial.errors = std::make_shared<SporadicErrors>(Duration::ms(8), 2);
  initial.use_offsets = false;
  CanRtaConfig gapped = worst_case_assumptions();
  gapped.errors = std::make_shared<BurstErrors>(Duration::ms(6), 3, Duration::us(150));
  gapped.model_controller_queues = false;
  return {worst_case_assumptions(), dense, initial, gapped, best_case_assumptions()};
}

/// Seeded matrices: basicCAN senders (30 % or 50 % of the ECUs), offset
/// schedules on even seeds (snapped periods on every fourth), an assumed
/// 25 % jitter on every third seed on top of the generator's known
/// jitter, and a load that climbs to 0.96 on the last seeds, past
/// saturation once the fault overhead is added.
KMatrix seeded_matrix(std::uint64_t seed) {
  PowertrainConfig cfg;
  cfg.seed = seed;
  cfg.message_count = 12 + static_cast<int>(seed % 4) * 6;
  cfg.ecu_count = 3 + static_cast<int>(seed % 3);
  cfg.basic_can_fraction = (seed % 3 == 0) ? 0.5 : 0.3;
  cfg.target_utilization = 0.40 + 0.028 * static_cast<double>(seed);
  KMatrix km = generate_powertrain(cfg);
  if (seed % 2 == 0) {
    if (seed % 4 == 0) snap_periods(km, Duration::ms(5));
    assign_tt_offsets(km);
  }
  if (seed % 3 == 0) assume_jitter_fraction(km, 0.25, true);
  km.validate();
  return km;
}

constexpr std::int64_t kFaultPpm[] = {1, 100, 10'000, 500'000, 1'000'000};
constexpr std::int64_t kMaxRungs[] = {1, 8, 96};

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
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x70726f622d726573ULL;
};

void mix_result(Digest& d, const ProbMessageResult& m) {
  d.mix(m.det.wcrt);
  d.mix(m.det.bcrt);
  d.mix(m.det.busy_period);
  d.mix(m.det.instances);
  d.mix(m.det.fixedpoint_iterations);
  d.mix(static_cast<std::uint64_t>(m.det.schedulable) | std::uint64_t{m.det.diverged} << 1);
  d.mix(static_cast<std::uint64_t>(m.rungs.size()));
  for (const Duration r : m.rungs) d.mix(r);
  d.mix(static_cast<std::uint64_t>(m.response.atoms().size()));
  for (const Pmf::Atom& a : m.response.atoms()) {
    d.mix(a.value);
    d.mix(a.weight);
  }
  d.mix(m.miss_weight);
  d.mix(m.convolutions);
}

/// Known answers, per seed: one digest for each of the five presets in
/// presets() order.
constexpr std::uint64_t kKnownDigests[20][5] = {
    {0x027a62331953c9c0ULL, 0xe690713e5176233cULL, 0x5053ac37c65e1642ULL, 0x853cf12bbd08996bULL, 0xabcc97b092aafc2fULL},  // seed 1
    {0xd8b2f0022eeeb2d9ULL, 0x3cb9e5bae28cab77ULL, 0xcbeced0b09ac48d1ULL, 0x82268a45afe18778ULL, 0x95be1ae8e6d5dff8ULL},  // seed 2
    {0xed5a66e75621bd6fULL, 0x41abf3fae74b88e0ULL, 0x6bc4478c0da66d6aULL, 0x8e13f5b29355d312ULL, 0x8054a48d938f0d00ULL},  // seed 3
    {0x70c74f12f742e399ULL, 0x7830b14520541843ULL, 0x2c97099caeea7eb4ULL, 0x361790f254711799ULL, 0x79d7cd6dade7e32fULL},  // seed 4
    {0x41706600a4fe70c2ULL, 0x8bb346cf43ddc98cULL, 0x2d6641d55840f66cULL, 0x0c292abe895014cfULL, 0xf6774da2c4022bdcULL},  // seed 5
    {0x7c760447b206add7ULL, 0x3752e0bf1abc4a0cULL, 0xcba830dc144c77c0ULL, 0x814e83da46c5e8ffULL, 0x2ae31fbd4cf8b366ULL},  // seed 6
    {0x424c5d64591c6ac2ULL, 0x42559918da523027ULL, 0x7d5571691c3b00a9ULL, 0x578c81e63e8a064bULL, 0xd353885001cb6451ULL},  // seed 7
    {0xe630300e9fbe8fb4ULL, 0xde96e6d6ad9dba9cULL, 0x903593aed3fa297dULL, 0xef0974591c6c338cULL, 0x9d1b36ab1015d91eULL},  // seed 8
    {0x52364219c65f1668ULL, 0x63a5b177eefc8fbbULL, 0x1ad02912292e8bb2ULL, 0x3ae7a2ebc9354182ULL, 0x915fb3fecc7d3572ULL},  // seed 9
    {0xb7f72c4f5961edeaULL, 0xe4622f75dfdaaec1ULL, 0x72d7dd185ca4f69cULL, 0x7d33b31a27289c6dULL, 0xa8cf550b527a153cULL},  // seed 10
    {0x62903763b0b00713ULL, 0x21141bf7accf7a28ULL, 0x9ca452dedc8f804bULL, 0x40d62bb90f9182c2ULL, 0xb963c9b468de2015ULL},  // seed 11
    {0x398aa77f8af4b62dULL, 0xb1f43ef7266f3aaeULL, 0x6092a4878e95b61bULL, 0x47444bbf79acb6fcULL, 0xdf5247c6f22cee0cULL},  // seed 12
    {0x076a4930c22f817eULL, 0xc7f05ab83b73cac5ULL, 0xd67549894b15cf11ULL, 0x1d3140ce2aec6ac9ULL, 0x24d63abedcec7501ULL},  // seed 13
    {0xcce570cd96d913ffULL, 0x634ba773c70d0adaULL, 0x78196b6ed8cdcf66ULL, 0x246afaee78c91186ULL, 0xb85986c785a3db76ULL},  // seed 14
    {0x296d596ee5c31c67ULL, 0xddff2515e2996753ULL, 0x106d17aadd4cf40aULL, 0x24666e27c2b4ea61ULL, 0x0929cc026a00a8b5ULL},  // seed 15
    {0xbf63fc2c3ff196e8ULL, 0xf36a8927b185b73bULL, 0xa2178ff15d69dd0eULL, 0x371d7b0b98011bf8ULL, 0xf47c61a9690cd52eULL},  // seed 16
    {0xde9404b399ee938aULL, 0x6d8cd412b7bd59b3ULL, 0x31afc4940b47cf50ULL, 0x36fd8589988093c2ULL, 0xa05a7cb374dfcebeULL},  // seed 17
    {0x404fa0ad2d9cd8a1ULL, 0x12d1b2651a9fe9e5ULL, 0x3d7ce7f49d26f5e6ULL, 0x4927b53030698d9cULL, 0x2f520f4285b5bb37ULL},  // seed 18
    {0xf48cb9118e58d450ULL, 0xb85e03466edf6554ULL, 0xffbe33d39d7a5d2eULL, 0x954863683f32c2a6ULL, 0x2eaeb8cd133b992cULL},  // seed 19
    {0xd8b94e1549a3b414ULL, 0xc2bf1471f22878eaULL, 0x67740d984a4fa1b1ULL, 0xf850e87340164549ULL, 0xd2c717de7a6ad000ULL},  // seed 20
};

class ProbDigest : public ::testing::TestWithParam<int> {};

TEST_P(ProbDigest, EveryResultReproducesKnownAnswers) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const KMatrix km = seeded_matrix(seed);
  const std::vector<CanRtaConfig> ps = presets();
  std::size_t tallest = 0, diverged = 0;
  for (std::size_t pi = 0; pi < ps.size(); ++pi) {
    Digest d;
    for (const std::int64_t max_rungs : kMaxRungs) {
      for (std::size_t j = 0; j < std::size(kFaultPpm); ++j) {
        ProbRtaConfig cfg;
        cfg.rta = ps[pi];
        cfg.max_rungs = max_rungs;
        cfg.fault_ppm = kFaultPpm[j];
        cfg.stuff_ppm = 950'000 - 200'000 * static_cast<std::int64_t>(j);
        cfg.jitter_ppm = 100'000 + 225'000 * static_cast<std::int64_t>(j);
        for (const ProbMessageResult& m : analyze_prob(km, cfg).messages) {
          mix_result(d, m);
          diverged += m.det.diverged;
          tallest = std::max(tallest, m.rungs.size());
        }
      }
    }
    char got[32];
    std::snprintf(got, sizeof got, "0x%016llxULL", static_cast<unsigned long long>(d.value()));
    EXPECT_EQ(d.value(), kKnownDigests[seed - 1][pi])
        << "seed " << seed << " preset #" << pi << " digest " << got;
  }
  // Every seed climbs a ladder of five rungs or more; the loaded seeds
  // off the snapped grid also pass the middle cap and diverge.
  EXPECT_GE(tallest, 5u) << "seed " << seed;
  if (seed > 13 && seed % 4 != 0) {
    EXPECT_GT(tallest, 9u) << "seed " << seed;
    EXPECT_GT(diverged, 0u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbDigest, ::testing::Range(1, 21));

}  // namespace
}  // namespace symcan
