// Property test for the human-readable Duration spelling. Every text
// output (analyze tables, explain, validation, serve answers) prints
// durations through to_string(Duration), so its bytes are pinned here
// against the printf expression that defines them: the adaptive unit
// (ns / us / ms / s) and "%.6g" of the count in that unit.

#include "symcan/util/time.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

namespace symcan {
namespace {

/// The defining expression, restated independently of the library.
/// Callers never pass INT64_MIN: its magnitude has no int64 spelling.
std::string reference(std::int64_t n) {
  if (n == std::numeric_limits<std::int64_t>::max()) return "inf";
  const std::int64_t a = n < 0 ? -n : n;
  const double v = static_cast<double>(n);
  char buf[64];
  if (a >= 1'000'000'000) std::snprintf(buf, sizeof buf, "%.6g s", v / 1e9);
  else if (a >= 1'000'000) std::snprintf(buf, sizeof buf, "%.6g ms", v / 1e6);
  else if (a >= 1'000) std::snprintf(buf, sizeof buf, "%.6g us", v / 1e3);
  else std::snprintf(buf, sizeof buf, "%lld ns", static_cast<long long>(n));
  return buf;
}

::testing::AssertionResult matches(std::int64_t n) {
  const std::string got = to_string(Duration::ns(n));
  const std::string want = reference(n);
  if (got == want) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "count " << n << ": \"" << got << "\" != \"" << want
                                       << "\"";
}

TEST(DurationFormat, PowersOfTenNeighbourhoods) {
  std::int64_t p = 1;
  for (int k = 0; k <= 18; ++k) {
    for (std::int64_t off = -2000; off <= 2000; ++off) {
      ASSERT_TRUE(matches(p + off));
      ASSERT_TRUE(matches(-(p + off)));
    }
    if (k < 18) p *= 10;
  }
}

TEST(DurationFormat, ExactTiesAtTheSeventhDigit) {
  EXPECT_EQ(to_string(Duration::ns(1'000'125)), "1.00012 ms");
  EXPECT_EQ(to_string(Duration::ns(1'234'565)), "1.23456 ms");
  for (const std::int64_t n : {1'000'125LL, 1'234'565LL, 4'096'875LL, 1'000'005'000LL,
                               2'500'000'500LL}) {
    ASSERT_TRUE(matches(n));
    ASSERT_TRUE(matches(-n));
  }
}

TEST(DurationFormat, RoundingCarriesIntoTheNextDigit) {
  EXPECT_EQ(to_string(Duration::ns(999'999'500)), "1000 ms");
  EXPECT_EQ(to_string(Duration::ns(999'999'600)), "1000 ms");
  EXPECT_EQ(to_string(Duration::ns(999'999'500'000'000)), "1e+06 s");
  EXPECT_EQ(to_string(Duration::ns(-999'999'600'000'000)), "-1e+06 s");
  for (const std::int64_t n : {999'999LL, 999'999'499LL, 999'999'500LL, 999'999'501LL,
                               999'999'500'000LL, 999'999'499'999'999LL, 999'999'500'000'000LL,
                               999'999'500'000'001LL}) {
    ASSERT_TRUE(matches(n));
    ASSERT_TRUE(matches(-n));
  }
}

TEST(DurationFormat, ZeroAndTheInfinityRails) {
  EXPECT_EQ(to_string(Duration::zero()), "0 ns");
  EXPECT_EQ(to_string(Duration::infinite()), "inf");
  EXPECT_EQ(to_string(-Duration::infinite()), "-9.22337e+09 s");
  ASSERT_TRUE(matches(0));
  ASSERT_TRUE(matches(-Duration::infinite().count_ns()));
}

TEST(DurationFormat, Int64MinSpellsLikeTheNegativeRail) {
  // |INT64_MIN| does not fit int64; the magnitude is taken in uint64, so
  // the value prints like -Duration::infinite() instead of negating into
  // undefined behaviour.
  EXPECT_EQ(to_string(Duration::ns(std::numeric_limits<std::int64_t>::min())), "-9.22337e+09 s");
}

TEST(DurationFormat, AppendDurationAppends) {
  std::string out = "wcrt ";
  append_duration(out, Duration::us(1250));
  append_duration(out, -Duration::ns(7));
  EXPECT_EQ(out, "wcrt 1.25 ms-7 ns");
}

TEST(DurationFormat, SeededCountsInEveryDecade) {
  std::mt19937_64 rng{20061017};
  std::int64_t lo = 1;
  for (int k = 0; k <= 18; ++k) {
    const std::int64_t hi =
        k == 18 ? std::numeric_limits<std::int64_t>::max() - 1 : lo * 10 - 1;
    std::uniform_int_distribution<std::int64_t> pick{lo, hi};
    for (int i = 0; i < 100'000; ++i) {
      const std::int64_t n = pick(rng);
      ASSERT_TRUE(matches((i & 1) ? -n : n));
    }
    if (k < 18) lo *= 10;
  }
}

}  // namespace
}  // namespace symcan
