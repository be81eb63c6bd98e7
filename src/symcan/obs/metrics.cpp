#include "symcan/obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace symcan::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_{std::move(upper_bounds)},
      buckets_(bounds_.size() + 1),
      min_{std::numeric_limits<double>::infinity()},
      max_{-std::numeric_limits<double>::infinity()} {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: need at least one bucket bound");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end())
    throw std::invalid_argument("Histogram: bounds must be strictly increasing");
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto i = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
  detail::atomic_min(min_, v);
  detail::atomic_max(max_, v);
}

double Histogram::observed_min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::observed_max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::quantile(double q) const {
  return bucket_quantile(
      bounds_, [this](std::size_t i) { return bucket_count(i); }, count(), q, observed_min(),
      observed_max());
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

void Series::append(Sample s) {
  std::lock_guard<std::mutex> lk{m_};
  samples_.push_back(std::move(s));
}

std::vector<Series::Sample> Series::samples() const {
  std::lock_guard<std::mutex> lk{m_};
  return samples_;
}

void Series::reset() {
  std::lock_guard<std::mutex> lk{m_};
  samples_.clear();
}

std::vector<double> MetricsRegistry::default_latency_bounds_us() {
  return {kDefaultLatencyBoundsUs.begin(), kDefaultLatencyBoundsUs.end()};
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk{m_};
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk{m_};
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histogram(name, default_latency_bounds_us());
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lk{m_};
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

Series& MetricsRegistry::series(const std::string& name) {
  std::lock_guard<std::mutex> lk{m_};
  auto& slot = series_[name];
  if (!slot) slot = std::make_unique<Series>();
  return *slot;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk{m_};
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, s] : series_) s->reset();
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk{m_};
  RegistrySnapshot out;
  for (const auto& [name, c] : counters_) out.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_) out.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = h->observed_min();
    hs.max = h->observed_max();
    hs.p50 = h->quantile(0.50);
    hs.p95 = h->quantile(0.95);
    hs.p99 = h->quantile(0.99);
    for (std::size_t i = 0; i < h->bounds().size(); ++i)
      hs.buckets.emplace_back(h->bounds()[i], h->bucket_count(i));
    hs.overflow = h->bucket_count(h->bounds().size());
    out.histograms.push_back(std::move(hs));
  }
  for (const auto& [name, s] : series_) out.series.emplace_back(name, s->samples());
  return out;
}

}  // namespace symcan::obs
