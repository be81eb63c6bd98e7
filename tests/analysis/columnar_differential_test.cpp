// Known-answer and layout battery for the columnar solve core. Every
// verdict across the assumption presets and a spread of seeded workloads
// must reproduce a digest table recorded from the object-graph reference
// solver, in integer nanoseconds and iteration counts, through both the
// whole-bus and the per-message entry points. A solver refactor can only
// go wrong silently — by dropping a normalization or resolving an
// interference set differently — and every one of those shows up here
// as a digest mismatch naming the seed and preset. The remaining tests
// pin the layout variants against each other: per-message vs whole-bus
// packs, the per-call error model vs a repack, and explain vs analyze.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/columnar.hpp"
#include "symcan/analysis/ecu_rta.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/analysis/provenance.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

struct Preset {
  const char* name;
  CanRtaConfig cfg;
};

/// The five canonical assumption presets: the two Figure 5 framings, the
/// default, and the two single-switch ablations (offset-blind, fullCAN
/// queues) that flip which pack-time branches run.
std::vector<Preset> presets() {
  std::vector<Preset> out;
  out.push_back({"default", CanRtaConfig{}});
  CanRtaConfig no_offsets;
  no_offsets.use_offsets = false;
  out.push_back({"no_offsets", no_offsets});
  out.push_back({"best_case", best_case_assumptions()});
  out.push_back({"worst_case", worst_case_assumptions()});
  CanRtaConfig no_queues = worst_case_assumptions();
  no_queues.model_controller_queues = false;
  out.push_back({"worst_case_no_queues", no_queues});
  return out;
}

/// Twenty seeded matrices spanning the workload axes the pack branches
/// on: basicCAN senders (intra-node blocking), TimeTable offsets with
/// grid-snapped periods (bounded hyperperiods -> TtGroups built) and
/// with raw periods (unbounded -> offset-blind fallback), jitter bursts,
/// and utilizations up to divergence under the burst error model.
std::vector<KMatrix> seeded_matrices() {
  std::vector<KMatrix> out;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    PowertrainConfig cfg;
    cfg.seed = seed;
    cfg.message_count = 16 + static_cast<int>(seed % 4) * 8;
    cfg.ecu_count = 4 + static_cast<int>(seed % 3);
    cfg.basic_can_fraction = (seed % 3 == 0) ? 0.5 : 0.2;
    cfg.target_utilization = 0.45 + 0.025 * static_cast<double>(seed % 10);
    KMatrix km = generate_powertrain(cfg);
    if (seed % 2 == 0) {
      // Offset-scheduled senders; even seeds snap periods so hyperperiods
      // stay bounded and TtGroups actually build, seeds divisible by 4
      // keep raw periods to force the group-build fallback.
      if (seed % 4 == 0) snap_periods(km, Duration::ms(5));
      assign_tt_offsets(km);
    }
    if (seed % 5 == 0) assume_jitter_fraction(km, 0.25);
    out.push_back(std::move(km));
  }
  return out;
}

void expect_result_eq(const MessageResult& a, const MessageResult& b, const std::string& where) {
  EXPECT_EQ(a.name, b.name) << where;
  EXPECT_EQ(a.id, b.id) << where;
  EXPECT_EQ(a.wcrt.count_ns(), b.wcrt.count_ns()) << where;
  EXPECT_EQ(a.bcrt.count_ns(), b.bcrt.count_ns()) << where;
  EXPECT_EQ(a.deadline.count_ns(), b.deadline.count_ns()) << where;
  EXPECT_EQ(a.blocking.count_ns(), b.blocking.count_ns()) << where;
  EXPECT_EQ(a.busy_period.count_ns(), b.busy_period.count_ns()) << where;
  EXPECT_EQ(a.instances, b.instances) << where;
  EXPECT_EQ(a.fixedpoint_iterations, b.fixedpoint_iterations) << where;
  EXPECT_EQ(a.schedulable, b.schedulable) << where;
  EXPECT_EQ(a.diverged, b.diverged) << where;
}

/// solve_columnar() + the caller-side identity patch, as the analyzers
/// apply it.
MessageResult columnar_message(const analysis::ColumnarBus& bus, const KMatrix& km,
                               std::size_t i) {
  MessageResult r = analysis::solve_columnar(bus, i);
  r.name = km.messages()[i].name;
  r.id = km.messages()[i].id;
  return r;
}

/// SplitMix-style digest over every MessageResult field of one bus
/// result, iteration counts included, in message order.
std::uint64_t digest(const std::vector<MessageResult>& results) {
  std::uint64_t h = 0x6b6e6f776e2d616eULL;
  const auto mix = [&h](std::uint64_t v) {
    h += v + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  };
  for (const MessageResult& r : results) {
    for (const char c : r.name) mix(static_cast<unsigned char>(c));
    mix(r.id);
    mix(static_cast<std::uint64_t>(r.wcrt.count_ns()));
    mix(static_cast<std::uint64_t>(r.bcrt.count_ns()));
    mix(static_cast<std::uint64_t>(r.deadline.count_ns()));
    mix(static_cast<std::uint64_t>(r.blocking.count_ns()));
    mix(static_cast<std::uint64_t>(r.busy_period.count_ns()));
    mix(static_cast<std::uint64_t>(r.instances));
    mix(static_cast<std::uint64_t>(r.fixedpoint_iterations));
    mix(r.schedulable ? 1 : 0);
    mix(r.diverged ? 1 : 0);
  }
  return h;
}

/// Known answers, one digest per (seed matrix, preset) in presets()
/// order. Recorded from the object-graph reference solver the columnar
/// core replaced, so they pin today's verdicts to that independent
/// implementation bit for bit, iteration counts included.
constexpr std::uint64_t kKnownDigests[20][5] = {
    {0xe8ecf48f42d16181ULL, 0xe8ecf48f42d16181ULL, 0xa31b22523f1b085aULL, 0x52b2ca316da657faULL, 0xcf8fc0d056199dc7ULL},  // seed 1
    {0xa9a21e4cd10c95eaULL, 0x4169b754aa3dcdf2ULL, 0x9735bae279c2866fULL, 0xe8d872926a90a46aULL, 0xe8d872926a90a46aULL},  // seed 2
    {0xfd01db4ea871fd8aULL, 0xfd01db4ea871fd8aULL, 0xb0141ab5d7ecfa3cULL, 0xd250d25cf4a7ced0ULL, 0x278550d1441437afULL},  // seed 3
    {0x58160a7b650a7351ULL, 0x2e56e4619e4fad6fULL, 0x4fac66e11bcfe2d5ULL, 0x8eda9b395070d5eaULL, 0xe75fa19dfbeb4d2eULL},  // seed 4
    {0x7938c0316dee23efULL, 0x7938c0316dee23efULL, 0x09b015018213a98fULL, 0x331f2e1601b89a67ULL, 0x7b75bb1a5407d2eaULL},  // seed 5
    {0xe0ca15395565ad67ULL, 0xe0ca15395565ad67ULL, 0xf5c718c922c7c3b6ULL, 0xb632b2e81a6b89baULL, 0xb632b2e81a6b89baULL},  // seed 6
    {0xb8eb12a2b9c45929ULL, 0xb8eb12a2b9c45929ULL, 0xcfd47e605fb2eaebULL, 0x8fbed6848259def1ULL, 0xf884cc2155b74f45ULL},  // seed 7
    {0x7d3736122ac40fc5ULL, 0xe463bbee28633a1bULL, 0x5fd70d30786e1282ULL, 0x47ceef7fa84b474bULL, 0x47ceef7fa84b474bULL},  // seed 8
    {0xf63179cdff022d94ULL, 0xf63179cdff022d94ULL, 0x52cbf5fb242c6988ULL, 0xc729ca919eeb7be4ULL, 0xa53ec088dd79670bULL},  // seed 9
    {0xaf8057d9a490ce8aULL, 0x48a7b3d546c290c3ULL, 0xa4d19e59c3fc8329ULL, 0x7507a900cd927ab5ULL, 0x7507a900cd927ab5ULL},  // seed 10
    {0x4727c03afefd69d1ULL, 0x4727c03afefd69d1ULL, 0xf197842bd56c98f3ULL, 0x2d5ef0a49ef12f1eULL, 0x848c31a512d80b3fULL},  // seed 11
    {0xd540521ff9eecbb8ULL, 0x76b41187d76dee0aULL, 0x6151e7187fd0d85aULL, 0x7dc4794623e1c78cULL, 0x44af35715f0a7bcbULL},  // seed 12
    {0x0a867e47bc95077bULL, 0x0a867e47bc95077bULL, 0x56c94a90d7804d2bULL, 0xdb2a63acc8f3ca8bULL, 0x1190a37aa6249f3eULL},  // seed 13
    {0xd7ae76ce69c23215ULL, 0x0a28d11c1162ac0aULL, 0xc5c1846ee2fccb46ULL, 0xfe14a7c9c87a993fULL, 0xfe14a7c9c87a993fULL},  // seed 14
    {0xc56a1fa6035e7610ULL, 0xc56a1fa6035e7610ULL, 0x9dc1ba66172dcd6bULL, 0x0680602755818888ULL, 0xa2df17f2ab92c1e6ULL},  // seed 15
    {0x4b8406bb889a4d2eULL, 0x8a2e314d1582cd74ULL, 0xe93eeaa4b74e97e7ULL, 0xe48a5707fffc5de1ULL, 0x4053944de1674225ULL},  // seed 16
    {0x4041dd4c64870cbcULL, 0x4041dd4c64870cbcULL, 0xad5e8d959b6c4193ULL, 0xfa0c9bfdc2cea94eULL, 0xe554626f65ec1e41ULL},  // seed 17
    {0x5b25253235bab11eULL, 0x25c9cfa204486e9bULL, 0x18a66ef645db82d7ULL, 0x5880351410c417caULL, 0xd1bc2c75c45f041eULL},  // seed 18
    {0x3de505ebd94c86c0ULL, 0x3de505ebd94c86c0ULL, 0x4f3b7c8a25458ad7ULL, 0x1b3778bec97e8e2bULL, 0xc15a6f272705c1bcULL},  // seed 19
    {0x8f729dba0e9bbb68ULL, 0x15d7717a21ff9761ULL, 0x57e68a587301bcb0ULL, 0x0c2bdfd0c9d983b5ULL, 0x0c2bdfd0c9d983b5ULL},  // seed 20
};

TEST(ColumnarDifferential, MessagesBitIdenticalAcrossSeedsAndPresets) {
  const auto matrices = seeded_matrices();
  const auto ps = presets();
  ASSERT_EQ(matrices.size(), 20u);
  ASSERT_EQ(ps.size(), 5u);
  std::size_t groups_seen = 0;
  for (std::size_t mi = 0; mi < matrices.size(); ++mi) {
    const KMatrix& km = matrices[mi];
    for (std::size_t pi = 0; pi < ps.size(); ++pi) {
      groups_seen += analysis::pack_bus(km, ps[pi].cfg).tt_groups.size();
      const CanRta rta{km, ps[pi].cfg};
      const std::vector<MessageResult> whole = rta.analyze().messages;
      std::vector<MessageResult> single;
      for (std::size_t i = 0; i < km.size(); ++i) single.push_back(rta.analyze_message(i));
      const std::string where =
          "seed matrix #" + std::to_string(mi + 1) + " preset " + ps[pi].name;
      EXPECT_EQ(digest(whole), kKnownDigests[mi][pi]) << where << " (whole bus)";
      EXPECT_EQ(digest(single), kKnownDigests[mi][pi]) << where << " (per message)";
    }
  }
  // The battery must actually reach the interesting branches; a workload
  // change that stops producing offset groups would silently weaken it.
  EXPECT_GT(groups_seen, 0u);
}

TEST(ColumnarDifferential, PublicAnalyzeMatchesPerMessageAdapter) {
  // CanRta::analyze() packs the whole bus; analyze_message() packs one
  // row. The whole-bus result must equal the per-message loop.
  for (std::uint64_t seed : {3u, 8u, 15u}) {
    PowertrainConfig wcfg;
    wcfg.seed = seed;
    wcfg.message_count = 32;
    KMatrix km = generate_powertrain(wcfg);
    if (seed == 8u) {
      snap_periods(km, Duration::ms(5));
      assign_tt_offsets(km);
    }
    for (const Preset& p : presets()) {
      const CanRta rta{km, p.cfg};
      const BusResult whole = rta.analyze();
      ASSERT_EQ(whole.messages.size(), km.size());
      for (std::size_t i = 0; i < km.size(); ++i)
        expect_result_eq(rta.analyze_message(i), whole.messages[i],
                         "seed " + std::to_string(seed) + " preset " + p.name + " message " +
                             km.messages()[i].name);
    }
  }
}

TEST(ColumnarDifferential, ExplainStillResumsExactly) {
  // Provenance runs the recording solve on a labelled one-row pack; its
  // embedded verdict must equal the plain whole-bus verdict bit for bit
  // and the decomposition must still re-sum to the bound.
  PowertrainConfig wcfg;
  wcfg.seed = 7;
  wcfg.message_count = 24;
  KMatrix km = generate_powertrain(wcfg);
  snap_periods(km, Duration::ms(5));
  assign_tt_offsets(km);
  for (const Preset& p : presets()) {
    const analysis::ColumnarBus bus = analysis::pack_bus(km, p.cfg);
    for (std::size_t i = 0; i < km.size(); ++i) {
      const analysis::Provenance prov = analysis::explain_message(km, p.cfg, i);
      EXPECT_TRUE(prov.sum_check())
          << "preset " << p.name << " message " << km.messages()[i].name;
      expect_result_eq(prov.result, columnar_message(bus, km, i),
                       std::string{"explain preset "} + p.name + " message " +
                           km.messages()[i].name);
    }
  }
}

TEST(ColumnarDifferential, PerCallErrorModelOverloadMatchesRepack) {
  // The grid-sweep overload swaps the error model per solve; it must
  // equal a full repack with that model in the config.
  PowertrainConfig wcfg;
  wcfg.seed = 11;
  wcfg.message_count = 24;
  const KMatrix km = generate_powertrain(wcfg);
  CanRtaConfig base = worst_case_assumptions();
  const analysis::ColumnarBus bus = analysis::pack_bus(km, base);
  for (const Duration gap : {Duration::ms(1), Duration::ms(10), Duration::s(1)}) {
    const SporadicErrors errors{gap};
    CanRtaConfig swapped = base;
    swapped.errors = std::make_shared<SporadicErrors>(gap);
    const analysis::ColumnarBus repacked = analysis::pack_bus(km, swapped);
    for (std::size_t i = 0; i < km.size(); ++i) {
      const MessageResult a = analysis::solve_columnar(bus, i, errors);
      const MessageResult b = analysis::solve_columnar(repacked, i);
      expect_result_eq(a, b, "gap " + std::to_string(gap.count_ns()) + "ns message " +
                                 km.messages()[i].name);
    }
  }
}

/// Seeded ECU task sets spanning the scheduling classes: ISRs,
/// preemptive and cooperative tasks, segments, OS overhead and jitter.
std::vector<Task> seeded_tasks(std::uint64_t seed) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  const auto next = [&] {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dULL;
  };
  const std::size_t count = 4 + seed % 5;
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < count; ++i) {
    Task t;
    t.name = "t" + std::to_string(i);
    const std::uint64_t r = next();
    t.sched = (r % 7 == 0)   ? SchedClass::kInterrupt
              : (r % 3 == 0) ? SchedClass::kCooperativeTask
                             : SchedClass::kPreemptiveTask;
    t.priority = static_cast<int>(i);
    const Duration period = Duration::ms(2 + static_cast<std::int64_t>(next() % 40));
    t.wcet = Duration::us(100 + static_cast<std::int64_t>(next() % 2000));
    t.bcet = t.wcet / 2;
    if (next() % 2 == 0) t.max_segment = t.wcet / 3;
    if (next() % 3 == 0) t.os_overhead = Duration::us(20);
    const Duration jitter =
        (next() % 2 == 0) ? Duration::us(static_cast<std::int64_t>(next() % 3000))
                          : Duration::zero();
    t.activation = EventModel::periodic_jitter(period, jitter);
    t.deadline = (next() % 4 == 0) ? Duration::infinite() : period;
    tasks.push_back(std::move(t));
  }
  return tasks;
}

TEST(ColumnarDifferential, EcuAnalyzeMatchesPerTaskAdapter) {
  // EcuRta::analyze() runs the columnar task pack; analyze_task() stays
  // legacy. Same bit-exactness contract as the bus side.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const EcuRta rta{seeded_tasks(seed), Duration::s(1)};
    const EcuResult whole = rta.analyze();
    for (std::size_t i = 0; i < whole.tasks.size(); ++i) {
      const TaskResult legacy = rta.analyze_task(i);
      const TaskResult& col = whole.tasks[i];
      const std::string where = "seed " + std::to_string(seed) + " task " + legacy.name;
      EXPECT_EQ(legacy.name, col.name) << where;
      EXPECT_EQ(legacy.wcrt.count_ns(), col.wcrt.count_ns()) << where;
      EXPECT_EQ(legacy.bcrt.count_ns(), col.bcrt.count_ns()) << where;
      EXPECT_EQ(legacy.deadline.count_ns(), col.deadline.count_ns()) << where;
      EXPECT_EQ(legacy.blocking.count_ns(), col.blocking.count_ns()) << where;
      EXPECT_EQ(legacy.busy_period.count_ns(), col.busy_period.count_ns()) << where;
      EXPECT_EQ(legacy.instances, col.instances) << where;
      EXPECT_EQ(legacy.fixedpoint_iterations, col.fixedpoint_iterations) << where;
      EXPECT_EQ(legacy.schedulable, col.schedulable) << where;
      EXPECT_EQ(legacy.diverged, col.diverged) << where;
    }
  }
}

}  // namespace
}  // namespace symcan
