// IncrementalRta contract: a cache hit must be indistinguishable from a
// fresh analysis, bit for bit, in every MessageResult field — iteration
// counts included. These are the targeted unit tests behind the fuzzed
// differential harness (tests/integration/rta_cache_differential_test.cpp):
// equality across assumption presets, agreement of the fingerprint entry
// points, partial reuse after an ID swap, edits that miss an exact
// number of rows (serially and on a shared cache), LRU bounding, and the
// disabled-cache degradation path.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>
#include <unordered_set>

#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/analysis/provenance.hpp"
#include "symcan/util/parallel.hpp"
#include "symcan/opt/assignment.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

KMatrix test_matrix(std::uint64_t seed = 11, int messages = 24, double util = 0.55) {
  PowertrainConfig cfg;
  cfg.seed = seed;
  cfg.message_count = messages;
  cfg.ecu_count = 4;
  cfg.target_utilization = util;
  return generate_powertrain(cfg);
}

/// Field-by-field equality of two whole-bus results. Any difference is a
/// cache soundness bug, so everything the solver writes is compared.
void expect_identical(const BusResult& a, const BusResult& b) {
  ASSERT_EQ(a.messages.size(), b.messages.size());
  EXPECT_EQ(a.utilization, b.utilization);
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    const MessageResult& x = a.messages[i];
    const MessageResult& y = b.messages[i];
    SCOPED_TRACE(x.name);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.wcrt, y.wcrt);
    EXPECT_EQ(x.bcrt, y.bcrt);
    EXPECT_EQ(x.deadline, y.deadline);
    EXPECT_EQ(x.blocking, y.blocking);
    EXPECT_EQ(x.busy_period, y.busy_period);
    EXPECT_EQ(x.instances, y.instances);
    EXPECT_EQ(x.fixedpoint_iterations, y.fixedpoint_iterations);
    EXPECT_EQ(x.schedulable, y.schedulable);
    EXPECT_EQ(x.diverged, y.diverged);
  }
}

struct CfgParam {
  const char* label;
  bool offsets;      ///< Assign a TimeTable schedule before analyzing.
  CanRtaConfig (*make)();
};
void PrintTo(const CfgParam& p, std::ostream* os) { *os << p.label; }

CanRtaConfig sporadic_assumptions() {
  CanRtaConfig cfg;
  cfg.worst_case_stuffing = true;
  cfg.errors = std::make_shared<SporadicErrors>(Duration::ms(40), 1);
  cfg.deadline_override.reset();
  return cfg;
}

CanRtaConfig no_queue_assumptions() {
  CanRtaConfig cfg = best_case_assumptions();
  cfg.model_controller_queues = false;
  return cfg;
}

CanRtaConfig offset_blind_assumptions() {
  CanRtaConfig cfg = worst_case_assumptions();
  cfg.use_offsets = false;
  return cfg;
}

class IncrementalRtaConfigs : public ::testing::TestWithParam<CfgParam> {
 protected:
  KMatrix matrix() const {
    KMatrix km = test_matrix();
    if (GetParam().offsets) {
      snap_periods(km, Duration::ms(1));
      assign_tt_offsets(km);
    }
    assume_jitter_fraction(km, 0.2, /*override_known=*/false);
    return km;
  }
  CanRtaConfig config() const { return GetParam().make(); }
};

TEST_P(IncrementalRtaConfigs, ColdAndWarmRunsMatchFreshAnalysisBitExactly) {
  const KMatrix km = matrix();
  const CanRtaConfig cfg = config();
  const BusResult fresh = CanRta{km, cfg}.analyze();

  // Two messages may legitimately share a context (and then a verdict);
  // the cold run misses once per *distinct* key, not once per message.
  std::unordered_set<analysis::ContextKey, analysis::ContextKeyHash> unique;
  for (const analysis::ContextKey& k : analysis::bus_fingerprints(km, cfg)) unique.insert(k);

  IncrementalRta rta;
  const BusResult cold = rta.analyze(km, cfg);
  expect_identical(cold, fresh);
  EXPECT_EQ(rta.stats().misses, static_cast<std::int64_t>(unique.size()));
  EXPECT_EQ(rta.stats().lookups(), static_cast<std::int64_t>(km.size()));

  const BusResult warm = rta.analyze(km, cfg);
  expect_identical(warm, fresh);
  EXPECT_EQ(rta.stats().misses, static_cast<std::int64_t>(unique.size()));
  EXPECT_EQ(rta.stats().lookups(), static_cast<std::int64_t>(2 * km.size()));
  EXPECT_GE(rta.stats().hit_rate(), 0.5);
}

TEST_P(IncrementalRtaConfigs, FingerprintEntryPointsAgree) {
  // The single-message lookup path (a one-row fingerprint) must produce
  // exactly the key the whole-bus pass does — otherwise hits and misses
  // would depend on which entry point filled the cache. Any row list
  // yields its keys in row order.
  const KMatrix km = matrix();
  const CanRtaConfig cfg = config();
  const std::vector<analysis::ContextKey> batch = analysis::bus_fingerprints(km, cfg);
  ASSERT_EQ(batch.size(), km.size());
  std::vector<std::size_t> reversed;
  for (std::size_t i = 0; i < km.size(); ++i) {
    SCOPED_TRACE(km.messages()[i].name);
    const std::size_t row[] = {i};
    EXPECT_EQ(analysis::bus_fingerprints(km, cfg, row).front(), batch[i]);
    reversed.insert(reversed.begin(), i);
  }
  const std::vector<analysis::ContextKey> keys = analysis::bus_fingerprints(km, cfg, reversed);
  ASSERT_EQ(keys.size(), km.size());
  for (std::size_t r = 0; r < keys.size(); ++r) EXPECT_EQ(keys[r], batch[reversed[r]]);
}

TEST_P(IncrementalRtaConfigs, SingleMessageEntryPointMatchesFresh) {
  const KMatrix km = matrix();
  const CanRtaConfig cfg = config();
  const CanRta fresh{km, cfg};
  IncrementalRta rta;
  for (int pass = 0; pass < 2; ++pass) {  // cold, then fully cached
    for (std::size_t i = 0; i < km.size(); ++i) {
      SCOPED_TRACE(km.messages()[i].name);
      const MessageResult a = rta.analyze_message(km, cfg, i);
      const MessageResult b = fresh.analyze_message(i);
      EXPECT_EQ(a.wcrt, b.wcrt);
      EXPECT_EQ(a.bcrt, b.bcrt);
      EXPECT_EQ(a.blocking, b.blocking);
      EXPECT_EQ(a.fixedpoint_iterations, b.fixedpoint_iterations);
      EXPECT_EQ(a.schedulable, b.schedulable);
    }
  }
  EXPECT_GE(rta.stats().hits, static_cast<std::int64_t>(km.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Assumptions, IncrementalRtaConfigs,
    ::testing::Values(CfgParam{"best_case", false, &best_case_assumptions},
                      CfgParam{"worst_case", false, &worst_case_assumptions},
                      CfgParam{"sporadic_errors", false, &sporadic_assumptions},
                      CfgParam{"no_controller_queues", false, &no_queue_assumptions},
                      CfgParam{"tt_offsets", true, &worst_case_assumptions},
                      CfgParam{"tt_offsets_blind", true, &offset_blind_assumptions}),
    [](const ::testing::TestParamInfo<CfgParam>& info) { return info.param.label; });

TEST(IncrementalRtaTest, IdSwapOnlyResolvesChangedContexts) {
  // Two GA neighbours differing in one priority swap share interference
  // contexts for every message outside the affected span: the second
  // analysis must miss exactly on the keys the swap changed.
  const KMatrix km = test_matrix();
  const CanRtaConfig cfg = worst_case_assumptions();
  IncrementalRta rta;
  rta.analyze(km, cfg);

  PriorityOrder order = current_order(km);
  ASSERT_GE(order.size(), 6u);
  std::swap(order[2], order[3]);
  const KMatrix swapped = apply_priority_order(km, order);

  std::unordered_set<analysis::ContextKey, analysis::ContextKeyHash> seen;
  for (const analysis::ContextKey& k : analysis::bus_fingerprints(km, cfg)) seen.insert(k);
  std::size_t expected_new = 0;
  for (const analysis::ContextKey& k : analysis::bus_fingerprints(swapped, cfg))
    if (seen.insert(k).second) ++expected_new;

  const RtaCacheStats before = rta.stats();
  expect_identical(rta.analyze(swapped, cfg), CanRta{swapped, cfg}.analyze());
  const RtaCacheStats after = rta.stats();
  EXPECT_EQ(after.misses - before.misses, static_cast<std::int64_t>(expected_new));
  // The swap must not invalidate the whole bus — most verdicts are reused.
  EXPECT_LT(expected_new, km.size());
  EXPECT_GT(after.hits - before.hits, 0);
}

/// `km` with the jitter of the message at priority position n - k
/// raised, so exactly the k lowest-priority rows change: the edited
/// message's own row and the rows of everything it interferes with.
/// k == n edits the highest-priority message and changes every row.
KMatrix edit_lowest(const KMatrix& km, std::size_t k) {
  KMatrix out = km;
  CanMessage& m = out.messages()[km.priority_order()[km.size() - k]];
  m.jitter = m.jitter + Duration::us(250);
  return out;
}

std::vector<std::size_t> miss_counts(const KMatrix& km) { return {1, 3, 4, 5, km.size()}; }

TEST(IncrementalRtaTest, EditsMissExactlyTheChangedRows) {
  // Every miss count a GA or sweep produces takes the same path: look
  // all keys up, pack only the missed rows, solve them. Each edit must
  // miss exactly its changed rows and still equal a fresh analysis.
  const KMatrix km = test_matrix(5, 24, 0.55);
  for (const CanRtaConfig& cfg : {worst_case_assumptions(), sporadic_assumptions()}) {
    IncrementalRta rta;
    rta.analyze(km, cfg);
    for (const std::size_t k : miss_counts(km)) {
      SCOPED_TRACE("edit missing " + std::to_string(k) + " rows");
      const KMatrix edited = edit_lowest(km, k);
      const RtaCacheStats before = rta.stats();
      expect_identical(rta.analyze(edited, cfg), CanRta{edited, cfg}.analyze());
      EXPECT_EQ(rta.stats().misses - before.misses, static_cast<std::int64_t>(k));
      EXPECT_EQ(rta.stats().hits - before.hits, static_cast<std::int64_t>(km.size() - k));
    }
  }
}

TEST(IncrementalRtaTest, EditsOnASharedCacheAcrossWorkersMatchFresh) {
  // Four workers analyze the edits concurrently against one sharded
  // cache (deterministic and probabilistic planes): misses may race, but
  // every answer must equal the uncached analysis.
  const KMatrix km = test_matrix(5, 24, 0.55);
  const CanRtaConfig cfg = worst_case_assumptions();
  ProbRtaConfig prob;
  prob.rta = cfg;
  prob.fault_ppm = 10'000;
  prob.stuff_ppm = 500'000;
  std::vector<KMatrix> edits;
  for (int round = 0; round < 3; ++round)
    for (const std::size_t k : miss_counts(km)) edits.push_back(edit_lowest(km, k));

  RtaCacheConfig shared;
  shared.shards = 4;
  IncrementalRta rta{shared};
  rta.analyze(km, cfg);
  rta.analyze_prob(km, prob);
  ParallelExecutor exec{4};
  const std::vector<int> done = exec.parallel_map_indexed(edits.size(), [&](std::size_t e) {
    expect_identical(rta.analyze(edits[e], cfg), CanRta{edits[e], cfg}.analyze());
    const ProbBusResult cached = rta.analyze_prob(edits[e], prob);
    const ProbBusResult fresh = analyze_prob(edits[e], prob);
    EXPECT_EQ(cached.messages.size(), fresh.messages.size());
    for (std::size_t i = 0; i < fresh.messages.size() && i < cached.messages.size(); ++i) {
      EXPECT_EQ(cached.messages[i].det.name, fresh.messages[i].det.name);
      EXPECT_EQ(cached.messages[i].det.wcrt, fresh.messages[i].det.wcrt);
      EXPECT_EQ(cached.messages[i].rungs, fresh.messages[i].rungs);
      EXPECT_EQ(cached.messages[i].response.atoms(), fresh.messages[i].response.atoms());
    }
    return 1;
  });
  EXPECT_EQ(done.size(), edits.size());
  EXPECT_GT(rta.stats().hits, 0);
  EXPECT_GT(rta.prob_stats().hits, 0);
}

TEST(IncrementalRtaTest, BadIndexThrowsOutOfRange) {
  const KMatrix km = test_matrix(3, 8, 0.30);
  const CanRtaConfig cfg = best_case_assumptions();
  EXPECT_THROW(CanRta(km, cfg).analyze_message(km.size()), std::out_of_range);
  EXPECT_THROW(analysis::explain_message(km, cfg, km.size()), std::out_of_range);
  IncrementalRta cached;
  EXPECT_THROW(cached.analyze_message(km, cfg, km.size()), std::out_of_range);
  RtaCacheConfig off;
  off.enabled = false;
  IncrementalRta uncached{off};
  EXPECT_THROW(uncached.analyze_message(km, cfg, km.size()), std::out_of_range);
}

TEST(IncrementalRtaTest, StructurallyEqualMatrixIsRelabeledNotResolved) {
  // Reassigning IDs without changing relative priorities, costs or event
  // models yields structurally identical contexts: the second matrix is
  // answered entirely from cache, under its own names and IDs.
  const KMatrix km = test_matrix(7, 16, 0.45);
  const CanRtaConfig cfg = best_case_assumptions();
  IncrementalRta rta;
  rta.analyze(km, cfg);
  const std::int64_t misses = rta.stats().misses;

  const KMatrix relabeled = apply_priority_order(km, current_order(km), /*base=*/0x300);
  const BusResult res = rta.analyze(relabeled, cfg);
  EXPECT_EQ(rta.stats().misses, misses) << "relabeling must not cause a single re-solve";
  expect_identical(res, CanRta{relabeled, cfg}.analyze());
  for (std::size_t i = 0; i < relabeled.size(); ++i) {
    EXPECT_EQ(res.messages[i].id, relabeled.messages()[i].id);
    EXPECT_EQ(res.messages[i].name, relabeled.messages()[i].name);
  }
}

TEST(IncrementalRtaTest, LruEvictionBoundsSizeWithoutCorruptingResults) {
  const KMatrix km = test_matrix();
  const CanRtaConfig cfg = worst_case_assumptions();
  RtaCacheConfig cache;
  cache.capacity = 8;
  IncrementalRta rta{cache};
  const BusResult fresh = CanRta{km, cfg}.analyze();
  expect_identical(rta.analyze(km, cfg), fresh);
  EXPECT_LE(rta.size(), cache.capacity);
  EXPECT_GT(rta.stats().evictions, 0);
  // A matrix larger than the capacity thrashes — correctness must hold
  // even when every lookup misses.
  expect_identical(rta.analyze(km, cfg), fresh);
  EXPECT_LE(rta.size(), cache.capacity);
}

TEST(IncrementalRtaTest, DisabledCacheDegradesToPlainSolveBitExactly) {
  const KMatrix km = test_matrix();
  const CanRtaConfig cfg = worst_case_assumptions();
  RtaCacheConfig off;
  off.enabled = false;
  IncrementalRta rta{off};
  const BusResult fresh = CanRta{km, cfg}.analyze();
  expect_identical(rta.analyze(km, cfg), fresh);
  expect_identical(rta.analyze(km, cfg), fresh);
  EXPECT_EQ(rta.size(), 0u);
  EXPECT_EQ(rta.stats().lookups(), 0);
}

TEST(IncrementalRtaTest, ClearDropsEntriesButKeepsLifetimeStats) {
  const KMatrix km = test_matrix(3, 8, 0.30);
  const CanRtaConfig cfg = best_case_assumptions();
  IncrementalRta rta;
  rta.analyze(km, cfg);
  EXPECT_GT(rta.size(), 0u);
  EXPECT_LE(rta.size(), km.size());
  const std::int64_t first_misses = rta.stats().misses;
  rta.clear();
  EXPECT_EQ(rta.size(), 0u);
  EXPECT_EQ(rta.stats().misses, first_misses);
  rta.analyze(km, cfg);
  EXPECT_EQ(rta.stats().misses, 2 * first_misses);
}

TEST(IncrementalRtaTest, ZeroCapacityIsRejected) {
  RtaCacheConfig cfg;
  cfg.capacity = 0;
  EXPECT_THROW(IncrementalRta{cfg}, std::invalid_argument);
}

TEST(IncrementalRtaTest, NullErrorModelIsRejected) {
  const KMatrix km = test_matrix(3, 8, 0.30);
  CanRtaConfig cfg;
  cfg.errors = nullptr;
  IncrementalRta rta;
  EXPECT_THROW(rta.analyze(km, cfg), std::invalid_argument);
  EXPECT_THROW(rta.analyze_message(km, cfg, 0), std::invalid_argument);
}

TEST(IncrementalRtaTest, ConfigChangesNeverHitStaleEntries) {
  // Flipping any analysis switch must change the affected keys: the same
  // matrix under different assumptions may share no verdicts. (Coarse
  // guard; the differential harness fuzzes the full config space.)
  const KMatrix km = test_matrix();
  IncrementalRta rta;
  const CanRtaConfig wc = worst_case_assumptions();
  const BusResult a = rta.analyze(km, wc);
  expect_identical(rta.analyze(km, best_case_assumptions()),
                   CanRta{km, best_case_assumptions()}.analyze());
  CanRtaConfig no_offsets = wc;
  no_offsets.use_offsets = false;
  expect_identical(rta.analyze(km, no_offsets), CanRta{km, no_offsets}.analyze());
  // And the original assumptions still answer from cache, unchanged.
  const RtaCacheStats before = rta.stats();
  expect_identical(rta.analyze(km, wc), a);
  EXPECT_EQ(rta.stats().misses, before.misses);
}

}  // namespace
}  // namespace symcan
