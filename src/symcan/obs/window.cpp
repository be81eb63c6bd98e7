#include "symcan/obs/window.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "symcan/obs/metrics.hpp"

namespace symcan::obs {

namespace {

void check_window(const WindowConfig& cfg) {
  if (cfg.bucket_width_ns <= 0)
    throw std::invalid_argument("window bucket width must be positive");
  if (cfg.bucket_count == 0) throw std::invalid_argument("window needs at least one bucket");
}

/// A slot participates in the window ending at `cur` when its tag lies in
/// (cur - bucket_count, cur]; anything older is idle-time or pre-jump
/// residue.
bool in_window(std::int64_t epoch, std::int64_t cur, std::size_t bucket_count) {
  return epoch >= 0 && epoch <= cur && cur - epoch < static_cast<std::int64_t>(bucket_count);
}

/// Rotate-or-drop on the epoch tag shared by both windowed types. Returns
/// false when the sample's bucket is older than the slot's current tag.
bool claim_slot(std::atomic<std::int64_t>& epoch_slot, std::int64_t idx, bool& rotated) {
  rotated = false;
  std::int64_t cur = epoch_slot.load(std::memory_order_relaxed);
  while (cur != idx) {
    if (cur > idx) return false;  // A newer occupant owns the slot.
    if (epoch_slot.compare_exchange_weak(cur, idx, std::memory_order_relaxed)) {
      rotated = true;
      return true;
    }
  }
  return true;
}

}  // namespace

WindowedCounter::WindowedCounter(WindowConfig cfg)
    : cfg_{cfg} {
  check_window(cfg_);
  epochs_ = std::vector<std::atomic<std::int64_t>>(cfg_.bucket_count);
  counts_ = std::vector<std::atomic<std::int64_t>>(cfg_.bucket_count);
  for (auto& e : epochs_) e.store(-1, std::memory_order_relaxed);
}

void WindowedCounter::add(std::int64_t now_ns, std::int64_t delta) {
  const std::int64_t idx = now_ns / cfg_.bucket_width_ns;
  const auto slot = static_cast<std::size_t>(idx % static_cast<std::int64_t>(cfg_.bucket_count));
  bool rotated = false;
  if (!claim_slot(epochs_[slot], idx, rotated)) return;
  if (rotated) counts_[slot].store(0, std::memory_order_relaxed);
  counts_[slot].fetch_add(delta, std::memory_order_relaxed);
}

std::int64_t WindowedCounter::window_count(std::int64_t now_ns) const {
  const std::int64_t cur = now_ns / cfg_.bucket_width_ns;
  std::int64_t total = 0;
  for (std::size_t s = 0; s < cfg_.bucket_count; ++s) {
    if (in_window(epochs_[s].load(std::memory_order_relaxed), cur, cfg_.bucket_count))
      total += counts_[s].load(std::memory_order_relaxed);
  }
  return total;
}

double WindowedCounter::window_rate(std::int64_t now_ns) const {
  return static_cast<double>(window_count(now_ns)) /
         (static_cast<double>(cfg_.window_ns()) / 1e9);
}

WindowedHistogram::WindowedHistogram(WindowConfig cfg, std::vector<double> upper_bounds)
    : cfg_{cfg}, bounds_{std::move(upper_bounds)}, stride_{bounds_.size() + 1} {
  check_window(cfg_);
  if (bounds_.empty())
    throw std::invalid_argument("WindowedHistogram: need at least one bucket bound");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end())
    throw std::invalid_argument("WindowedHistogram: bounds must be strictly increasing");
  epochs_ = std::vector<std::atomic<std::int64_t>>(cfg_.bucket_count);
  counts_ = std::vector<std::atomic<std::int64_t>>(cfg_.bucket_count);
  sums_ = std::vector<std::atomic<double>>(cfg_.bucket_count);
  buckets_ = std::vector<std::atomic<std::int64_t>>(cfg_.bucket_count * stride_);
  for (auto& e : epochs_) e.store(-1, std::memory_order_relaxed);
}

bool WindowedHistogram::claim(std::size_t slot, std::int64_t idx) {
  bool rotated = false;
  if (!claim_slot(epochs_[slot], idx, rotated)) return false;
  if (rotated) {
    counts_[slot].store(0, std::memory_order_relaxed);
    sums_[slot].store(0.0, std::memory_order_relaxed);
    for (std::size_t b = 0; b < stride_; ++b)
      buckets_[slot * stride_ + b].store(0, std::memory_order_relaxed);
  }
  return true;
}

void WindowedHistogram::record(std::int64_t now_ns, double v) {
  const std::int64_t idx = now_ns / cfg_.bucket_width_ns;
  const auto slot = static_cast<std::size_t>(idx % static_cast<std::int64_t>(cfg_.bucket_count));
  if (!claim(slot, idx)) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto b = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[slot * stride_ + b].fetch_add(1, std::memory_order_relaxed);
  counts_[slot].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sums_[slot], v);
}

WindowStats WindowedHistogram::snapshot(std::int64_t now_ns) const {
  const std::int64_t cur = now_ns / cfg_.bucket_width_ns;
  WindowStats out;
  out.window_ns = cfg_.window_ns();
  std::vector<std::int64_t> merged(stride_, 0);
  for (std::size_t s = 0; s < cfg_.bucket_count; ++s) {
    if (!in_window(epochs_[s].load(std::memory_order_relaxed), cur, cfg_.bucket_count)) continue;
    out.count += counts_[s].load(std::memory_order_relaxed);
    out.sum += sums_[s].load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < stride_; ++b)
      merged[b] += buckets_[s * stride_ + b].load(std::memory_order_relaxed);
  }
  out.rate_per_sec = static_cast<double>(out.count) / (static_cast<double>(out.window_ns) / 1e9);
  if (out.count == 0) return out;
  out.mean = out.sum / static_cast<double>(out.count);

  // No observed min/max per window: the infinite clamp leaves the
  // interpolated value as is.
  const auto quantile = [&](double q) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    return bucket_quantile(bounds_, [&](std::size_t b) { return merged[b]; }, out.count, q, -kInf,
                           kInf);
  };
  out.p50 = quantile(0.50);
  out.p95 = quantile(0.95);
  out.p99 = quantile(0.99);
  return out;
}

SloTracker::SloTracker(SloConfig cfg)
    : cfg_{cfg}, window_total_{cfg.window}, window_over_{cfg.window} {
  if (cfg_.target_ns <= 0) throw std::invalid_argument("SLO target must be positive");
  if (!(cfg_.objective > 0.0) || !(cfg_.objective < 1.0))
    throw std::invalid_argument("SLO objective must lie in (0, 1)");
}

void SloTracker::record(std::int64_t now_ns, std::int64_t latency_ns) {
  total_.fetch_add(1, std::memory_order_relaxed);
  window_total_.add(now_ns);
  if (latency_ns > cfg_.target_ns) {
    over_.fetch_add(1, std::memory_order_relaxed);
    window_over_.add(now_ns);
  }
}

SloStats SloTracker::snapshot(std::int64_t now_ns) const {
  SloStats out;
  out.target_ns = cfg_.target_ns;
  out.objective = cfg_.objective;
  out.total = total_.load(std::memory_order_relaxed);
  out.over_target = over_.load(std::memory_order_relaxed);
  out.window_total = window_total_.window_count(now_ns);
  out.window_over = window_over_.window_count(now_ns);
  // Defense in depth: the constructor rejects objectives outside (0, 1),
  // but a non-positive error allowance must never reach the divisions —
  // burn_rate/budget_used stay 0 instead of poisoning the telemetry and
  // health JSON with inf/nan.
  const double allowed = 1.0 - cfg_.objective;
  if (allowed > 0.0) {
    if (out.window_total > 0)
      out.burn_rate = (static_cast<double>(out.window_over) /
                       static_cast<double>(out.window_total)) / allowed;
    if (out.total > 0)
      out.budget_used = (static_cast<double>(out.over_target) /
                         static_cast<double>(out.total)) / allowed;
  }
  return out;
}

}  // namespace symcan::obs
