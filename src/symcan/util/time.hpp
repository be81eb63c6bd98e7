#pragma once

// Strong time types for schedulability analysis.
//
// All analysis code works on integer nanoseconds to keep fixed-point
// iterations exact and platform-independent. A CAN bit at 1 Mbit/s is
// 1000 ns, at 500 kbit/s it is 2000 ns, so int64 nanoseconds comfortably
// cover every window length the analyses iterate over (hours of bus time)
// without rounding drift.

#include <cassert>
#include <compare>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

namespace symcan {

/// Saturating scalar arithmetic on int64 nanosecond counts.
///
/// K-Matrices cross an organizational boundary as files, so every value a
/// duration is built from may be hostile. Instead of wrapping (signed
/// overflow, UB), these clamp to +/- int64 max; Duration's operators are
/// built on them, so a poisoned matrix drives windows to
/// Duration::infinite() (reported unschedulable) rather than into UB.
/// Saturation clamps symmetrically to +/- max: the positive rail is
/// Duration::infinite(), and negating either rail yields the other.
constexpr std::int64_t sat_add_i64(std::int64_t a, std::int64_t b) {
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
#if defined(__GNUC__) || defined(__clang__)
  std::int64_t r = 0;
  if (!__builtin_add_overflow(a, b, &r)) return r;
  return b > 0 ? hi : -hi;
#else
  if (b > 0 && a > hi - b) return hi;
  if (b < 0 && a < std::numeric_limits<std::int64_t>::min() - b) return -hi;
  return a + b;
#endif
}

constexpr std::int64_t sat_sub_i64(std::int64_t a, std::int64_t b) {
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
#if defined(__GNUC__) || defined(__clang__)
  std::int64_t r = 0;
  if (!__builtin_sub_overflow(a, b, &r)) return r;
  return b < 0 ? hi : -hi;
#else
  if (b < 0 && a > hi + b) return hi;
  if (b > 0 && a < std::numeric_limits<std::int64_t>::min() + b) return -hi;
  return a - b;
#endif
}

constexpr std::int64_t sat_mul_i64(std::int64_t a, std::int64_t b) {
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
#if defined(__GNUC__) || defined(__clang__)
  std::int64_t r = 0;
  if (!__builtin_mul_overflow(a, b, &r)) return r;
  return ((a > 0) == (b > 0)) ? hi : -hi;
#else
  if (a == 0 || b == 0) return 0;
  if (a > 0 ? (b > 0 ? a > hi / b : b < -hi / a) : (b > 0 ? a < -hi / b : b < hi / a))
    return ((a > 0) == (b > 0)) ? hi : -hi;
  return a * b;
#endif
}

constexpr std::int64_t sat_neg_i64(std::int64_t a) {
  if (a == std::numeric_limits<std::int64_t>::min())
    return std::numeric_limits<std::int64_t>::max();
  return -a;
}

/// A signed time span with nanosecond resolution.
///
/// Value type; totally ordered. Arithmetic saturates at
/// +/- infinite() instead of wrapping: overflow cannot occur in untrusted
/// inputs, it merely drives the value onto the infinity rail, where
/// schedulability verdicts treat it as "unbounded". Negative durations are
/// representable (they arise as intermediate slack values) but most APIs
/// document non-negative inputs.
class Duration {
 public:
  constexpr Duration() = default;

  /// Named constructors. Prefer these over the raw-count constructor.
  /// Unit conversions saturate like all other arithmetic, so
  /// Duration::ms(untrusted) is safe for any int64 input.
  static constexpr Duration ns(std::int64_t v) { return Duration{v}; }
  static constexpr Duration us(std::int64_t v) { return Duration{sat_mul_i64(v, 1000)}; }
  static constexpr Duration ms(std::int64_t v) { return Duration{sat_mul_i64(v, 1'000'000)}; }
  static constexpr Duration s(std::int64_t v) { return Duration{sat_mul_i64(v, 1'000'000'000)}; }

  /// Largest representable duration; used as "unbounded / not schedulable"
  /// and as the positive saturation rail of all arithmetic.
  static constexpr Duration infinite() {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }
  static constexpr Duration zero() { return Duration{0}; }

  constexpr std::int64_t count_ns() const { return ns_; }
  constexpr double as_us() const { return static_cast<double>(ns_) / 1e3; }
  constexpr double as_ms() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double as_s() const { return static_cast<double>(ns_) / 1e9; }

  constexpr bool is_infinite() const { return *this == infinite(); }

  friend constexpr auto operator<=>(Duration, Duration) = default;

  constexpr Duration operator+(Duration o) const { return Duration{sat_add_i64(ns_, o.ns_)}; }
  constexpr Duration operator-(Duration o) const { return Duration{sat_sub_i64(ns_, o.ns_)}; }
  constexpr Duration operator-() const { return Duration{sat_neg_i64(ns_)}; }
  constexpr Duration operator*(std::int64_t k) const { return Duration{sat_mul_i64(ns_, k)}; }
  friend constexpr Duration operator*(std::int64_t k, Duration d) { return d * k; }

  constexpr Duration& operator+=(Duration o) {
    ns_ = sat_add_i64(ns_, o.ns_);
    return *this;
  }
  constexpr Duration& operator-=(Duration o) {
    ns_ = sat_sub_i64(ns_, o.ns_);
    return *this;
  }

  /// Truncating integer division by another duration (how many `o` fit).
  /// The single overflowing quotient (min / -1) saturates.
  constexpr std::int64_t operator/(Duration o) const {
    assert(o.ns_ != 0);
    if (o.ns_ == -1 && ns_ == std::numeric_limits<std::int64_t>::min())
      return std::numeric_limits<std::int64_t>::max();
    return ns_ / o.ns_;
  }
  /// Scalar division, truncating toward zero.
  constexpr Duration operator/(std::int64_t k) const {
    assert(k != 0);
    if (k == -1 && ns_ == std::numeric_limits<std::int64_t>::min())
      return Duration{std::numeric_limits<std::int64_t>::max()};
    return Duration{ns_ / k};
  }

  friend std::ostream& operator<<(std::ostream& os, Duration d);

 private:
  constexpr explicit Duration(std::int64_t v) : ns_{v} {}
  std::int64_t ns_ = 0;
};

/// ceil(a / b) for positive durations. Core operation of every
/// response-time fixed point: the number of activations of a periodic
/// source within a half-open window. Written as (a-1)/b + 1 so it cannot
/// overflow even at a == infinite().
constexpr std::int64_t ceil_div(Duration a, Duration b) {
  assert(b > Duration::zero());
  const std::int64_t an = a.count_ns();
  const std::int64_t bn = b.count_ns();
  if (an <= 0) return 0;
  return (an - 1) / bn + 1;
}

/// floor(a / b) for b > 0; negative a floors toward -infinity.
constexpr std::int64_t floor_div(Duration a, Duration b) {
  assert(b > Duration::zero());
  const std::int64_t an = a.count_ns();
  const std::int64_t bn = b.count_ns();
  std::int64_t q = an / bn;
  if ((an % bn != 0) && (an < 0)) --q;
  return q;
}

constexpr Duration min(Duration a, Duration b) { return a < b ? a : b; }
constexpr Duration max(Duration a, Duration b) { return a > b ? a : b; }

/// Append the human-readable spelling with an adaptive unit ("1.25 ms",
/// "500 ns", "inf"): printf "%.6g" of the count in the largest of
/// ns / us / ms / s not above its magnitude. The only Duration formatter.
void append_duration(std::string& out, Duration d);

/// append_duration into a fresh string.
std::string to_string(Duration d);

}  // namespace symcan
