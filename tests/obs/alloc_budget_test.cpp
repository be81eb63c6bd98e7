// Allocation ceilings for the request paths: parsing the case-study
// CSV, a whole-bus CanRta::analyze, the `analyze` table render, mixing a
// solved rung ladder, a warm IncrementalRta::analyze_prob whose every
// ladder is a cache hit, the KMatrix::validate a serve request repeats
// on its memoized matrix, a warm analyze request through
// ServeCore::handle, and one allocate_jitter_budgets search. The global
// operator new is replaced with a counting shim (as in
// obs_overhead_test.cpp) and each ceiling is the count the current code
// reaches on the case-study bus (second call), so a change that brings
// back per-atom or per-message allocations, or a copy of the matrix per
// analysis, fails here.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/analysis/prob_rta.hpp"
#include "symcan/can/kmatrix_io.hpp"
#include "symcan/pipeline/stages.hpp"
#include "symcan/serve/core.hpp"
#include "symcan/supplychain/budget.hpp"
#include "symcan/workload/powertrain.hpp"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

// The nothrow forms (the standard library's temporary buffers) must come
// from the same heap as the deletes below, or ASan reports a mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace symcan {
namespace {

/// Allocations `f` performs.
template <typename F>
long allocations(F&& f) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

KMatrix case_study() {
  KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  assume_jitter_fraction(km, 0.25, true);
  return km;
}

ProbRtaConfig prob_config() {
  ProbRtaConfig cfg;
  cfg.rta = worst_case_assumptions();
  cfg.fault_ppm = 50'000;
  cfg.stuff_ppm = 900'000;
  cfg.jitter_ppm = 600'000;
  return cfg;
}

// Ceilings: the counts the current code reaches on the case-study bus.
constexpr long kParseCsvCeiling = 418;
constexpr long kCanRtaAnalyzeCeiling = 61;
constexpr long kCanRtaSolveOnlyCeiling = 1;  ///< analyze() on a built CanRta.
constexpr long kRenderAnalyzeCeiling = 41;
constexpr long kMixLadderCeiling = 425;
constexpr long kWarmAnalyzeProbCeiling = 435;
constexpr long kValidateCeiling = 2;
constexpr long kWarmServeAnalyzeCeiling = 46;
constexpr long kAllocateJitterBudgetsCeiling = 4396;

TEST(AllocBudget, ParseTheCaseStudyCsv) {
  const std::string csv = kmatrix_to_csv(generate_powertrain(PowertrainConfig::case_study()));
  Diagnostics first_diags;
  ASSERT_TRUE(kmatrix_from_csv(csv, first_diags));
  std::optional<KMatrix> km;
  const long n = allocations([&] {
    Diagnostics diags;
    km = kmatrix_from_csv(csv, diags);
  });
  ASSERT_TRUE(km);
  EXPECT_LE(n, kParseCsvCeiling) << km->size() << " messages";
}

TEST(AllocBudget, CanRtaAnalyzeTheCaseStudy) {
  // Built from the matrix as a caller holding a KMatrix does: CanRta
  // copies it, and that copy is all but one of the allocations.
  const KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  const CanRtaConfig cfg = worst_case_assumptions();
  const BusResult cold = CanRta{km, cfg}.analyze();
  BusResult warm;
  const long n = allocations([&] { warm = CanRta{km, cfg}.analyze(); });
  ASSERT_EQ(warm.messages.size(), cold.messages.size());
  EXPECT_LE(n, kCanRtaAnalyzeCeiling) << warm.messages.size() << " messages";
  const CanRta rta{km, cfg};
  const long solve_only = allocations([&] { warm = rta.analyze(); });
  EXPECT_LE(solve_only, kCanRtaSolveOnlyCeiling);
}

TEST(AllocBudget, RenderAnalyzeTheCaseStudy) {
  const KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  const CanRtaConfig cfg = worst_case_assumptions();
  std::ostringstream cold;
  pipeline::render_analyze(km, cfg, cold);
  std::ostringstream warm;
  const long n = allocations([&] { pipeline::render_analyze(km, cfg, warm); });
  EXPECT_EQ(warm.str(), cold.str());
  EXPECT_LE(n, kRenderAnalyzeCeiling) << km.size() << " messages";
}

TEST(AllocBudget, MixLadderOnTheCaseStudy) {
  const KMatrix km = case_study();
  const ProbRtaConfig cfg = prob_config();
  analysis::ColumnarBus bus;
  analysis::pack_bus(km, cfg.rta, bus);
  std::vector<analysis::RungLadder> ladders;
  std::size_t rungs = 0;
  for (std::size_t r = 0; r < bus.size(); ++r) {
    ladders.push_back(analysis::solve_rung_ladder(bus, r, cfg.max_rungs));
    rungs += ladders.back().rungs.size();
  }
  ASSERT_GT(rungs, 3 * ladders.size()) << "the ladders must have rungs to mix";
  std::uint64_t miss = 0;
  const long n = allocations([&] {
    for (const analysis::RungLadder& ladder : ladders)
      miss += analysis::mix_ladder(ladder, cfg).miss_weight;
  });
  EXPECT_GT(miss, 0u);
  EXPECT_LE(n, kMixLadderCeiling) << ladders.size() << " ladders, " << rungs << " rungs";
}

TEST(AllocBudget, WarmAnalyzeProbWithEveryLadderCached) {
  const KMatrix km = case_study();
  const ProbRtaConfig cfg = prob_config();
  analysis::IncrementalRta rta;
  const ProbBusResult cold = rta.analyze_prob(km, cfg);
  ProbBusResult warm;
  const long n = allocations([&] { warm = rta.analyze_prob(km, cfg); });
  EXPECT_EQ(rta.prob_stats().hits, static_cast<std::int64_t>(km.size()));
  ASSERT_EQ(warm.messages.size(), cold.messages.size());
  EXPECT_EQ(warm.messages.back().response.atoms(), cold.messages.back().response.atoms());
  EXPECT_LE(n, kWarmAnalyzeProbCeiling) << km.size() << " messages";
}

TEST(AllocBudget, ValidateTheCaseStudy) {
  const KMatrix km = case_study();
  const long n = allocations([&] { km.validate(); });
  EXPECT_LE(n, kValidateCeiling) << km.size() << " messages";
}

TEST(AllocBudget, WarmServeAnalyzeHit) {
  serve::ServeConfig cfg;
  cfg.jobs = 1;
  serve::ServeCore core{cfg};
  serve::ServeRequest req;
  req.id = "warm";
  req.kind = serve::RequestKind::kAnalyze;
  req.preset = pipeline::AssumptionPreset::kWorstCase;
  req.matrix_csv = kmatrix_to_csv(generate_powertrain(PowertrainConfig::case_study()));
  const serve::ServeResponse cold = core.handle(req);
  serve::ServeResponse warm;
  const long n = allocations([&] { warm = core.handle(req); });
  EXPECT_EQ(warm.output, cold.output);
  EXPECT_NE(core.health_json().find("\"hits\":1,\"misses\":1}"), std::string::npos)
      << "the matrix memo must hit";
  EXPECT_EQ(core.rta_cache().stats().misses, core.rta_cache().stats().hits);
  EXPECT_LE(n, kWarmServeAnalyzeCeiling);
}

TEST(AllocBudget, AllocateJitterBudgetsOnTheCaseStudy) {
  // Every bisection probe of the joint and the per-message searches is a
  // whole-bus analysis; none may copy the matrix.
  const KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  CanRtaConfig cfg;
  cfg.worst_case_stuffing = true;
  cfg.deadline_override = DeadlinePolicy::kPeriod;
  const BudgetReport cold = allocate_jitter_budgets(km, cfg);
  BudgetReport warm;
  const long n = allocations([&] { warm = allocate_jitter_budgets(km, cfg); });
  EXPECT_EQ(warm.joint_fraction, cold.joint_fraction);
  EXPECT_EQ(warm.individual_budget, cold.individual_budget);
  EXPECT_LE(n, kAllocateJitterBudgetsCeiling) << km.size() << " messages";
}

}  // namespace
}  // namespace symcan
