#include "symcan/util/time.hpp"

#include <array>
#include <charconv>
#include <cstdio>

namespace symcan {

namespace {

constexpr auto kPow10 = [] {
  std::array<std::uint64_t, 16> p{1};
  for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 10;
  return p;
}();

/// "%.6g" of a / 10^scale (>= 1), in integers. Below 10^15 ns a count
/// that is not an exact tie at the 7th significant digit lies further
/// from the tie than the double quotient's rounding error, so glibc
/// rounds the double as this rounds the integer. False (the caller falls
/// back to snprintf) on a tie, on a carry into a 7th digit (999999.5
/// units may need exponent form) and from 10^15 on.
bool append_6g(std::string& out, std::uint64_t a, std::size_t scale) {
  if (a >= kPow10[15]) return false;
  std::size_t shift = 0;  // value = q * 10^shift / 10^scale
  while (a / kPow10[shift] >= kPow10[6]) ++shift;
  const std::uint64_t p = kPow10[shift];
  const std::uint64_t r = a % p;
  if (2 * r == p) return false;  // an exact tie
  std::uint64_t q = a / p + (2 * r > p ? 1 : 0);
  if (q == kPow10[6]) return false;  // rounds up into a 7th digit
  std::size_t frac = scale - shift;  // shift <= scale, as a < 10^15
  for (; frac > 0 && q % 10 == 0; --frac) q /= 10;
  char buf[8];
  const auto len = static_cast<std::size_t>(std::to_chars(buf, buf + sizeof buf, q).ptr - buf);
  out.append(buf, len - frac);  // frac < len: the value is >= 1
  if (frac > 0) (out += '.').append(buf + len - frac, frac);
  return true;
}

}  // namespace

void append_duration(std::string& out, Duration d) {
  if (d.is_infinite()) {
    out += "inf";
    return;
  }
  const std::int64_t n = d.count_ns();
  // Magnitude in uint64: |INT64_MIN| has no int64 spelling.
  const std::uint64_t a = n < 0 ? 0 - static_cast<std::uint64_t>(n) : static_cast<std::uint64_t>(n);
  const std::size_t scale = a >= kPow10[9] ? 9 : a >= kPow10[6] ? 6 : a >= kPow10[3] ? 3 : 0;
  if (n < 0) out += '-';
  if (!append_6g(out, a, scale)) {
    // Round-to-nearest is sign-symmetric, so the magnitude's spelling
    // after the '-' is the signed value's.
    char buf[32];
    const int len = std::snprintf(buf, sizeof buf, "%.6g",
                                  static_cast<double>(a) / static_cast<double>(kPow10[scale]));
    out.append(buf, static_cast<std::size_t>(len));
  }
  out += scale == 9 ? " s" : scale == 6 ? " ms" : scale == 3 ? " us" : " ns";
}

std::string to_string(Duration d) {
  std::string out;
  append_duration(out, d);
  return out;
}

std::ostream& operator<<(std::ostream& os, Duration d) { return os << to_string(d); }

}  // namespace symcan
