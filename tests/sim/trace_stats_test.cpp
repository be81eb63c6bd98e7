// Trace analytics over handcrafted event logs: every count, latency and
// utilization number is asserted against hand-computed values, and the
// degenerate inputs (empty trace, zero span, zero window) must degrade to
// empty stats — never a division by zero. A known-answer case pins both
// renderers on the committed case-study recording byte for byte.
//
// To regenerate the known answers after an intentional output change:
//   SYMCAN_UPDATE_GOLDEN=1 ctest --test-dir build -R TraceStats.CommittedTrace

#include "symcan/sim/trace_stats.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "symcan/stream/trace_reader.hpp"

namespace symcan {
namespace {

// A: instance 0 clean (release 0, start 100us, end 200us); instance 1
// corrupted once (release 500us, start 500us, error 550us, retransmit
// 560us, restart 600us, end 700us). B: one release lost at 400us.
Trace handcrafted() {
  Trace t;
  t.record(Duration::zero(), TraceEventType::kRelease, "A", 0);
  t.record(Duration::us(100), TraceEventType::kTxStart, "A", 0);
  t.record(Duration::us(200), TraceEventType::kTxEnd, "A", 0);
  t.record(Duration::us(300), TraceEventType::kRelease, "B", 0);
  t.record(Duration::us(400), TraceEventType::kLoss, "B", 0);
  t.record(Duration::us(500), TraceEventType::kRelease, "A", 1);
  t.record(Duration::us(500), TraceEventType::kTxStart, "A", 1);
  t.record(Duration::us(550), TraceEventType::kError, "A", 1);
  t.record(Duration::us(560), TraceEventType::kRetransmit, "A", 1);
  t.record(Duration::us(600), TraceEventType::kTxStart, "A", 1);
  t.record(Duration::us(700), TraceEventType::kTxEnd, "A", 1);
  return t;
}

TEST(TraceStats, HandComputedCountsAndLatencies) {
  const TraceStats stats = compute_trace_stats(handcrafted(), Duration::ms(1), Duration::us(500));

  ASSERT_EQ(stats.messages.size(), 2u);  // Name-sorted: A, B.
  const MessageTraceStats& a = stats.messages[0];
  EXPECT_EQ(a.name, "A");
  EXPECT_EQ(a.releases, 2);
  EXPECT_EQ(a.completions, 2);
  EXPECT_EQ(a.errors, 1);
  EXPECT_EQ(a.retransmits, 1);
  EXPECT_EQ(a.losses, 0);
  EXPECT_EQ(a.observed_max, Duration::us(200));
  // Arbitration wait counts only release -> *first* start per instance:
  // 100us for instance 0, 0 for instance 1 (its restart doesn't count).
  EXPECT_EQ(a.arbitration_wait_total, Duration::us(100));
  EXPECT_EQ(a.arbitration_wait_max, Duration::us(100));
  // Retransmission cost: first error (550us) to final completion (700us).
  EXPECT_EQ(a.retransmit_delay_total, Duration::us(150));
  EXPECT_EQ(a.latency_us.count, 2);
  EXPECT_DOUBLE_EQ(a.latency_us.max, 200.0);
  EXPECT_GT(a.observed_p99, Duration::zero());

  const MessageTraceStats& b = stats.messages[1];
  EXPECT_EQ(b.name, "B");
  EXPECT_EQ(b.releases, 1);
  EXPECT_EQ(b.completions, 0);
  EXPECT_EQ(b.losses, 1);
  EXPECT_EQ(b.latency_us.count, 0);

  EXPECT_EQ(stats.find("A"), &stats.messages[0]);
  EXPECT_EQ(stats.find("nope"), nullptr);
}

TEST(TraceStats, SlidingWindowUtilizationHandComputed) {
  // Busy intervals: [100,200), [500,550), [600,700) us = 250us of 1ms.
  const TraceStats stats = compute_trace_stats(handcrafted(), Duration::ms(1), Duration::us(500));
  EXPECT_DOUBLE_EQ(stats.average_utilization, 0.25);

  // 500us windows step by 250us (50% overlap), clamped to the span.
  ASSERT_EQ(stats.utilization.size(), 4u);
  EXPECT_EQ(stats.utilization[0].start, Duration::zero());
  EXPECT_EQ(stats.utilization[0].end, Duration::us(500));
  EXPECT_DOUBLE_EQ(stats.utilization[0].utilization, 0.2);   // [100,200)
  EXPECT_DOUBLE_EQ(stats.utilization[1].utilization, 0.3);   // [500,550)+[600,700)
  EXPECT_DOUBLE_EQ(stats.utilization[2].utilization, 0.3);
  EXPECT_EQ(stats.utilization[3].end, Duration::ms(1));      // Clamped final window.
  EXPECT_DOUBLE_EQ(stats.utilization[3].utilization, 0.0);
  EXPECT_DOUBLE_EQ(stats.peak_utilization, 0.3);
}

TEST(TraceStats, TransmissionOpenAtTraceEndIsClampedToSpan) {
  Trace t;
  t.record(Duration::us(900), TraceEventType::kRelease, "A", 0);
  t.record(Duration::us(900), TraceEventType::kTxStart, "A", 0);
  const TraceStats stats = compute_trace_stats(t, Duration::ms(1), Duration::ms(1));
  EXPECT_DOUBLE_EQ(stats.average_utilization, 0.1);  // [900us, 1ms) busy.
  EXPECT_EQ(stats.messages[0].completions, 0);
}

TEST(TraceStats, DegenerateInputsNeverDivideByZero) {
  const Trace empty;
  const TraceStats none = compute_trace_stats(empty, Duration::zero(), Duration::zero());
  EXPECT_TRUE(none.messages.empty());
  EXPECT_TRUE(none.utilization.empty());
  EXPECT_DOUBLE_EQ(none.average_utilization, 0.0);
  EXPECT_DOUBLE_EQ(none.peak_utilization, 0.0);

  // Empty trace with a real span: zero utilization, but windows exist.
  const TraceStats idle = compute_trace_stats(empty, Duration::ms(1), Duration::us(500));
  EXPECT_FALSE(idle.utilization.empty());
  EXPECT_DOUBLE_EQ(idle.peak_utilization, 0.0);

  // Real trace, degenerate window or span: no windows, no crash.
  EXPECT_TRUE(compute_trace_stats(handcrafted(), Duration::ms(1), Duration::zero())
                  .utilization.empty());
  EXPECT_TRUE(compute_trace_stats(handcrafted(), Duration::ms(1), -Duration::us(1))
                  .utilization.empty());
  EXPECT_TRUE(compute_trace_stats(handcrafted(), Duration::zero(), Duration::us(500))
                  .utilization.empty());
  // 1 ns window cannot halve; it must still terminate and divide safely.
  const TraceStats tiny = compute_trace_stats(handcrafted(), Duration::us(1), Duration::ns(1));
  EXPECT_EQ(tiny.utilization.size(), 1000u);
}

TEST(TraceStats, RenderersCarryTheNumbers) {
  const TraceStats stats = compute_trace_stats(handcrafted(), Duration::ms(1), Duration::us(500));
  const std::string text = trace_stats_to_text(stats);
  EXPECT_NE(text.find("bus utilization avg 25.0% peak 30.0%"), std::string::npos) << text;
  EXPECT_NE(text.find("A"), std::string::npos);
  const std::string json = trace_stats_to_json(stats);
  EXPECT_NE(json.find("\"average_utilization\":0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"retransmit_delay_total_ns\":150000"), std::string::npos);
  EXPECT_NE(json.find("\"losses\":1"), std::string::npos);
}

TEST(TraceStats, LatencyHistogramEqualsObsHistogram) {
  // Latencies on bucket edges (an edge belongs to the bucket it bounds),
  // between edges, and in the overflow bucket: the reducer's histogram
  // must read exactly as an obs::Histogram fed the same samples in order.
  const std::int64_t latencies_ns[] = {200'000, 200'001, 1'000, 999, 7'500'000, 3'000'000'000,
                                       200'000, 50'000'000, 123'456};
  Trace t;
  obs::Histogram want{obs::MetricsRegistry::default_latency_bounds_us()};
  std::int64_t instance = 0;
  Duration now = Duration::zero();
  for (const std::int64_t ns : latencies_ns) {
    t.record(now, TraceEventType::kRelease, "A", instance);
    t.record(now + Duration::ns(ns), TraceEventType::kTxEnd, "A", instance);
    want.observe(Duration::ns(ns).as_us());
    now += Duration::s(4);
    ++instance;
  }
  const TraceStats stats = compute_trace_stats(t, now, Duration::zero());
  ASSERT_EQ(stats.messages.size(), 1u);
  const obs::HistogramSnapshot& got = stats.messages[0].latency_us;
  EXPECT_EQ(got.count, want.count());
  EXPECT_EQ(got.sum, want.sum());
  EXPECT_EQ(got.min, want.observed_min());
  EXPECT_EQ(got.max, want.observed_max());
  EXPECT_EQ(got.p50, want.quantile(0.50));
  EXPECT_EQ(got.p95, want.quantile(0.95));
  EXPECT_EQ(got.p99, want.quantile(0.99));
  ASSERT_EQ(got.buckets.size(), want.bounds().size());
  for (std::size_t i = 0; i < got.buckets.size(); ++i) {
    EXPECT_EQ(got.buckets[i].first, want.bounds()[i]);
    EXPECT_EQ(got.buckets[i].second, want.bucket_count(i)) << "le " << want.bounds()[i];
  }
  EXPECT_EQ(got.overflow, want.bucket_count(want.bounds().size()));
}

void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(SYMCAN_TRACE_STATS_GOLDEN_DIR) + "/" + name;
  const char* update = std::getenv("SYMCAN_UPDATE_GOLDEN");
  if (update && std::string(update) == "1") {
    std::ofstream{path} << actual;
    return;
  }
  std::ifstream f{path};
  ASSERT_TRUE(f) << "cannot read " << path;
  std::ostringstream want;
  want << f.rdbuf();
  EXPECT_EQ(actual, want.str()) << name << " drifted";
}

TEST(TraceStats, CommittedTraceMatchesKnownAnswers) {
  // The committed recording, not a fresh simulation: simulator output
  // depends on the standard library's integer distributions.
  const Trace trace = stream::load_trace_jsonl(SYMCAN_CASE_STUDY_TRACE);
  ASSERT_FALSE(trace.events().empty());
  const TraceStats stats =
      compute_trace_stats(trace, trace.events().back().time, Duration::ms(10));
  check_golden("case_study_trace_stats.txt", trace_stats_to_text(stats));
  check_golden("case_study_trace_stats.json", trace_stats_to_json(stats) + "\n");
}

TEST(TraceClear, RetainsCapacityForReuse) {
  Trace t;
  for (int i = 0; i < 1000; ++i)
    t.record(Duration::us(i), TraceEventType::kRelease, "m", i);
  const std::size_t cap = t.events().capacity();
  ASSERT_GE(cap, 1000u);
  t.clear();
  EXPECT_TRUE(t.events().empty());
  // The documented contract: clear() drops events but keeps the
  // allocation, so a reused Trace stops allocating at steady state.
  EXPECT_EQ(t.events().capacity(), cap);
}

}  // namespace
}  // namespace symcan
