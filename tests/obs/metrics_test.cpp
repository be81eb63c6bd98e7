#include "symcan/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "symcan/obs/export.hpp"
#include "symcan/obs/json.hpp"

namespace symcan::obs {
namespace {

TEST(Counter, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Gauge, LastValueWins) {
  Gauge g;
  g.set(1.5);
  g.set(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), -3.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, BucketsUseLeSemantics) {
  Histogram h{{1.0, 2.0, 5.0}};
  h.observe(1.0);  // boundary value goes into its own le bucket
  h.observe(1.5);
  h.observe(5.0);
  h.observe(7.0);  // overflow
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.bucket_count(0), 1);  // <= 1
  EXPECT_EQ(h.bucket_count(1), 1);  // (1, 2]
  EXPECT_EQ(h.bucket_count(2), 1);  // (2, 5]
  EXPECT_EQ(h.bucket_count(3), 1);  // overflow
  EXPECT_DOUBLE_EQ(h.sum(), 14.5);
  EXPECT_DOUBLE_EQ(h.observed_min(), 1.0);
  EXPECT_DOUBLE_EQ(h.observed_max(), 7.0);
}

TEST(Histogram, QuantileExactAtBucketBoundary) {
  // All observations sit exactly on a bucket boundary: every quantile must
  // return the boundary, not an interpolated value from inside the bucket.
  Histogram h{{1.0, 2.0, 5.0, 10.0}};
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST(Histogram, QuantileOrderingAcrossBuckets) {
  Histogram h{{10.0, 20.0, 50.0, 100.0}};
  // 90 observations <= 10, 10 in (50, 100].
  for (int i = 0; i < 90; ++i) h.observe(5.0);
  for (int i = 0; i < 10; ++i) h.observe(80.0);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, 10.0);
  EXPECT_GE(p50, 5.0);  // clamped to observed min
  EXPECT_GT(p95, 50.0);
  EXPECT_LE(p95, 80.0);  // clamped to observed max
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, 80.0);
}

TEST(Histogram, QuantileOverflowReturnsLastFiniteBound) {
  // All we know about an overflow sample is v > bounds.back(); the
  // documented contract reports the last finite bucket edge, never the
  // observed max (which may be +inf — see the regression below).
  Histogram h{{1.0}};
  h.observe(100.0);
  h.observe(200.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1.0);
  EXPECT_DOUBLE_EQ(h.observed_max(), 200.0);  // The max itself stays exact.
}

TEST(Histogram, AllSamplesInOverflowKeepQuantilesFinite) {
  // Regression: every sample lands in the +inf overflow bucket
  // (including an actually-infinite sample). Quantiles must return the
  // last finite bucket edge — not 0, not inf — so the JSON export and
  // the Prometheus exposition stay consistent and finite.
  Histogram h{{10.0, 20.0, 50.0}};
  h.observe(1000.0);
  h.observe(std::numeric_limits<double>::infinity());
  for (const double q : {0.5, 0.95, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_TRUE(std::isfinite(v)) << "q=" << q;
    EXPECT_DOUBLE_EQ(v, 50.0) << "q=" << q;
  }
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.bucket_count(3), 2);  // Both in the overflow bucket.
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h{{1.0, 2.0}};
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.observed_min(), 0.0);
  EXPECT_DOUBLE_EQ(h.observed_max(), 0.0);
}

TEST(Series, KeepsSamplesInOrder) {
  Series s;
  s.append({{"gen", 0.0}, {"best", 3.0}});
  s.append({{"gen", 1.0}, {"best", 2.0}});
  const auto samples = s.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[1][0].first, "gen");
  EXPECT_DOUBLE_EQ(samples[1][1].second, 2.0);
  s.reset();
  EXPECT_TRUE(s.samples().empty());
}

TEST(MetricsRegistry, HandlesAreStableAcrossReset) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  c.add(5);
  EXPECT_EQ(&reg.counter("hits"), &c);  // same handle on re-lookup
  reg.reset();
  EXPECT_EQ(c.value(), 0);  // value cleared, handle still live
  c.add(1);
  EXPECT_EQ(reg.counter("hits").value(), 1);
}

TEST(MetricsRegistry, HistogramBoundsFixedAtFirstRegistration) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {1.0, 2.0});
  EXPECT_EQ(&reg.histogram("lat", {5.0, 10.0, 20.0}), &h);
  EXPECT_EQ(h.bounds().size(), 2u);
}

TEST(MetricsRegistry, SnapshotCoversAllKinds) {
  MetricsRegistry reg;
  reg.counter("c").add(3);
  reg.gauge("g").set(2.5);
  reg.histogram("h", {1.0, 10.0}).observe(4.0);
  reg.series("s").append({{"x", 1.0}});
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "c");
  EXPECT_EQ(snap.counters[0].second, 3);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 2.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1);
  EXPECT_EQ(snap.histograms[0].buckets.size(), 2u);
  ASSERT_EQ(snap.series.size(), 1u);
  EXPECT_EQ(snap.series[0].second.size(), 1u);
}

TEST(MetricsRegistry, DefaultLatencyBoundsAreStrictlyIncreasing) {
  const auto bounds = MetricsRegistry::default_latency_bounds_us();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_LT(bounds[i - 1], bounds[i]);
}

TEST(Export, MetricsJsonContainsEveryMetric) {
  MetricsRegistry reg;
  reg.counter("rta.analyses").add(7);
  reg.gauge("width").set(4.0);
  reg.histogram("task_us", {10.0, 100.0}).observe(42.0);
  reg.series("gens").append({{"gen", 0.0}});
  const std::string json = metrics_to_json(reg);
  EXPECT_NE(json.find("\"rta.analyses\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"width\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"task_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"gens\""), std::string::npos);
}

TEST(Export, JsonEscapeHandlesSpecials) {
  std::string out;
  JsonOut w{out};
  w.begin_array().value("a\"b\\c\nd").value(std::string(1, '\x01')).value(1.0 / 0.0).end_array();
  EXPECT_EQ(out, "[\"a\\\"b\\\\c\\nd\",\"\\u0001\",null]");
}

}  // namespace
}  // namespace symcan::obs
