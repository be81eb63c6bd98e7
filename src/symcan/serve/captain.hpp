#pragma once

// The serve mode manager ("Captain"): graceful degradation under
// sustained pressure.
//
// Shedding order is by cost, most expensive first, so the cheap
// always-needed questions stay answerable for everyone:
//
//   kFull        everything admitted
//   kNoOptimize  optimize shed (GA runs are orders of magnitude above
//                the rest)
//   kEssential   optimize + explain + prob shed; analyze / validate /
//                health stay live (prob is a convolution fan-out per
//                message — affordable under normal load, first luxury
//                to drop when essentials are at risk)
//
// The Captain samples ring pressure once per admitted request
// (observe()). degrade_after consecutive kSaturated samples step one
// mode down; recover_after consecutive kOk samples step one mode up;
// kElevated holds the current mode and resets both streaks. Hysteresis
// comes from recover_after > degrade_after, so a ring oscillating
// around the saturation threshold does not flap modes.
//
// Thread safety: observe() may run on any thread (the stdio loop
// samples on whichever thread admitted the request), so the streaks sit
// behind a mutex; admits() and record_shed() are called from worker
// threads mid-request, so the mode and the counters are atomics. Every mode
// change and every shed decision is emitted as an obs event
// (serve.captain.* counters + instants), making degradation observable
// rather than a silent quality cliff.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "symcan/serve/request.hpp"
#include "symcan/serve/ring.hpp"

namespace symcan::serve {

enum class ServeMode : std::uint8_t { kFull, kNoOptimize, kEssential };

/// "full", "no-optimize", "essential".
const char* to_string(ServeMode mode);

struct CaptainConfig {
  /// Consecutive saturated samples before degrading one level.
  int degrade_after = 3;
  /// Consecutive ok samples before recovering one level (> degrade_after
  /// for hysteresis).
  int recover_after = 8;
};

class Captain {
 public:
  explicit Captain(CaptainConfig cfg = {});

  ServeMode mode() const { return mode_.load(std::memory_order_relaxed); }

  /// Whether the current mode admits this request kind (worker threads).
  bool admits(RequestKind kind) const;

  /// Record one pressure sample (any thread); may change mode.
  void observe(PressureState pressure);

  /// Account a shed decision for an inadmissible request (worker
  /// threads); emits the obs event.
  void record_shed(RequestKind kind);

  std::int64_t shed_optimize() const { return shed_optimize_.load(std::memory_order_relaxed); }
  std::int64_t shed_explain() const { return shed_explain_.load(std::memory_order_relaxed); }
  std::int64_t shed_prob() const { return shed_prob_.load(std::memory_order_relaxed); }
  std::int64_t mode_changes() const { return mode_changes_.load(std::memory_order_relaxed); }

 private:
  void set_mode(ServeMode next);

  CaptainConfig cfg_;
  std::atomic<ServeMode> mode_{ServeMode::kFull};
  std::mutex observe_m_;
  int saturated_streak_ = 0;  ///< Guarded by observe_m_.
  int ok_streak_ = 0;         ///< Guarded by observe_m_.
  std::atomic<std::int64_t> mode_changes_{0};
  std::atomic<std::int64_t> shed_optimize_{0};
  std::atomic<std::int64_t> shed_explain_{0};
  std::atomic<std::int64_t> shed_prob_{0};
};

}  // namespace symcan::serve
