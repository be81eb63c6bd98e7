#pragma once

// Bounded multi-producer / multi-consumer request ring for `symcan
// serve` (one mutex; the stdio loop pushes and pops on every thread).
//
// The ring is the service's only admission point, so its contract is
// spelled out and contract-tested (tests/serve/ring_test.cpp): every
// push returns exactly one PushOutcome, and the lifetime counters
// satisfy, at every quiescent point,
//
//   pushes            == accepted + rejected + timed_out
//   accepted          == popped + dropped_oldest + size()
//
// i.e. no request is ever lost unaccounted — it is either still queued,
// handed to the consumer, or the named casualty of an overflow policy.
//
// Overflow policies (RingConfig::overflow):
//   kReject            full ring refuses the new request (kRejected).
//   kDropOldest        full ring evicts the oldest queued request to
//                      admit the new one; the victim is handed back to
//                      the producer (kReplacedOldest) so a rejection
//                      response can still be sent for it.
//   kBlockWithDeadline the producer waits up to block_deadline for the
//                      consumer to drain a slot; kTimedOut on expiry.
//
// Pressure states (PressureState): a load-shedding signal derived from
// occupancy — kOk below elevated_fraction, kElevated from there up to
// saturated_fraction, kSaturated above. health reports it; the
// thresholds are config so the contract tests can walk every transition
// with a tiny ring.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "symcan/util/time.hpp"

namespace symcan::serve {

enum class OverflowPolicy : std::uint8_t { kReject, kDropOldest, kBlockWithDeadline };

/// Wire/CLI spelling: "reject", "drop-oldest", "block-with-deadline".
const char* to_string(OverflowPolicy policy);
bool overflow_policy_from_string(const std::string& text, OverflowPolicy& out);

enum class PressureState : std::uint8_t { kOk, kElevated, kSaturated };

/// "ok", "elevated", "saturated".
const char* to_string(PressureState state);

enum class PushOutcome : std::uint8_t {
  kAccepted,        ///< Queued; a free slot existed.
  kReplacedOldest,  ///< Queued; the oldest queued request was evicted for it.
  kRejected,        ///< Refused; ring full under kReject.
  kTimedOut,        ///< Refused; deadline expired under kBlockWithDeadline.
};

const char* to_string(PushOutcome outcome);

struct RingConfig {
  std::size_t capacity = 256;
  OverflowPolicy overflow = OverflowPolicy::kReject;
  /// kBlockWithDeadline: how long a producer may wait for a slot.
  Duration block_deadline = Duration::ms(100);
  /// Occupancy fractions where pressure() changes state.
  double elevated_fraction = 0.5;
  double saturated_fraction = 0.9;
};

/// Lifetime counters (monotonic). `accepted` includes kReplacedOldest
/// pushes; `dropped_oldest` counts their victims.
struct RingStats {
  std::int64_t pushes = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  std::int64_t timed_out = 0;
  std::int64_t dropped_oldest = 0;
  std::int64_t popped = 0;
};

template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(RingConfig cfg = {}) : cfg_{cfg} {
    if (cfg_.capacity == 0) throw std::invalid_argument("ring capacity must be positive");
    if (!(cfg_.elevated_fraction >= 0.0) || !(cfg_.saturated_fraction >= cfg_.elevated_fraction))
      throw std::invalid_argument("pressure thresholds must satisfy 0 <= elevated <= saturated");
  }

  const RingConfig& config() const { return cfg_; }

  /// Enqueue from any thread. Under kDropOldest a full ring moves the
  /// evicted request into *victim (when non-null) so the producer can
  /// answer for it; victim is left empty for every other outcome.
  PushOutcome push(T item, std::optional<T>* victim = nullptr) {
    std::unique_lock<std::mutex> lock(m_);
    ++stats_.pushes;
    if (q_.size() >= cfg_.capacity) {
      switch (cfg_.overflow) {
        case OverflowPolicy::kReject:
          ++stats_.rejected;
          return PushOutcome::kRejected;
        case OverflowPolicy::kDropOldest: {
          if (victim) victim->emplace(std::move(q_.front()));
          q_.pop_front();
          ++stats_.dropped_oldest;
          q_.push_back(std::move(item));
          ++stats_.accepted;
          return PushOutcome::kReplacedOldest;
        }
        case OverflowPolicy::kBlockWithDeadline: {
          const auto deadline = std::chrono::steady_clock::now() +
                                std::chrono::nanoseconds(cfg_.block_deadline.count_ns());
          if (!slot_cv_.wait_until(lock, deadline,
                                   [&] { return q_.size() < cfg_.capacity; })) {
            ++stats_.timed_out;
            return PushOutcome::kTimedOut;
          }
          break;  // A slot freed in time; fall through to the accept path.
        }
      }
    }
    q_.push_back(std::move(item));
    ++stats_.accepted;
    return PushOutcome::kAccepted;
  }

  /// Dequeue up to `max` requests in FIFO order (any thread).
  /// Never blocks; an empty ring yields an empty batch.
  std::vector<T> pop_batch(std::size_t max) {
    std::vector<T> out;
    {
      std::lock_guard<std::mutex> lock(m_);
      const std::size_t n = q_.size() < max ? q_.size() : max;
      out.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(std::move(q_.front()));
        q_.pop_front();
        ++stats_.popped;
      }
    }
    // Outside the lock: waking blocked producers does not need it held.
    slot_cv_.notify_all();
    return out;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(m_);
    return q_.size();
  }

  /// Load-shedding signal from current occupancy.
  PressureState pressure() const {
    std::lock_guard<std::mutex> lock(m_);
    const double occupancy =
        static_cast<double>(q_.size()) / static_cast<double>(cfg_.capacity);
    if (occupancy >= cfg_.saturated_fraction) return PressureState::kSaturated;
    if (occupancy >= cfg_.elevated_fraction) return PressureState::kElevated;
    return PressureState::kOk;
  }

  RingStats stats() const {
    std::lock_guard<std::mutex> lock(m_);
    return stats_;
  }

 private:
  RingConfig cfg_;
  mutable std::mutex m_;
  std::condition_variable slot_cv_;
  std::deque<T> q_;      ///< Guarded by m_.
  RingStats stats_;      ///< Guarded by m_.
};

}  // namespace symcan::serve
