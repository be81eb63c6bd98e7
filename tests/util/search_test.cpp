#include "symcan/util/search.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "symcan/util/time.hpp"

namespace symcan {
namespace {

TEST(LargestFeasible, ReturnsHiWithoutBisectingWhenHiIsFeasible) {
  int probes = 0;
  const double got = largest_feasible(0.0, 1.0, 0.01, [&](double) {
    ++probes;
    return true;
  });
  EXPECT_EQ(got, 1.0);
  EXPECT_EQ(probes, 1);
}

TEST(LargestFeasible, DoubleMidpointsAreTheArithmeticMean) {
  std::vector<double> probed;
  const double got = largest_feasible(0.0, 1.0, 0.1, [&](double x) {
    probed.push_back(x);
    return x <= 0.3;
  });
  // hi, then 0.5, 0.25, 0.375, 0.3125: the last gap (0.0625) is <= 0.1.
  EXPECT_EQ(probed, (std::vector<double>{1.0, 0.5, 0.25, 0.375, 0.3125}));
  EXPECT_EQ(got, 0.25);
}

TEST(LargestFeasible, DurationMidpointsRoundTowardLo) {
  std::vector<std::int64_t> probed;
  const Duration got =
      largest_feasible(Duration::ns(0), Duration::ns(7), Duration::ns(1), [&](Duration d) {
        probed.push_back(d.count_ns());
        return d <= Duration::ns(4);
      });
  // lo + (hi - lo) / 2 truncates: 3 on [0, 7], 5 on [3, 7], 4 on [3, 5].
  EXPECT_EQ(probed, (std::vector<std::int64_t>{7, 3, 5, 4}));
  EXPECT_EQ(got, Duration::ns(4));
}

TEST(LargestFeasible, NeverProbesLo) {
  // ok(lo) is the caller's precondition: with nothing feasible the search
  // still returns lo.
  const double got = largest_feasible(0.25, 1.0, 0.01, [](double x) {
    EXPECT_GT(x, 0.25);
    return false;
  });
  EXPECT_EQ(got, 0.25);
}

TEST(LargestFeasible, RejectsNonPositiveOrNanTolerance) {
  const auto ok = [](auto) { return false; };
  EXPECT_THROW(largest_feasible(0.0, 1.0, 0.0, ok), std::invalid_argument);
  EXPECT_THROW(largest_feasible(0.0, 1.0, -1e-3, ok), std::invalid_argument);
  EXPECT_THROW(largest_feasible(0.0, 1.0, std::nan(""), ok), std::invalid_argument);
  EXPECT_THROW(largest_feasible(Duration::zero(), Duration::ms(1), Duration::zero(), ok),
               std::invalid_argument);
}

TEST(LargestFeasible, SubUlpToleranceStillTerminates) {
  // Near 0.5 adjacent doubles are ~1.1e-16 apart, far above the tolerance:
  // the search stops once no double lies strictly between lo and hi.
  const double boundary = 0.3;
  const double got = largest_feasible(0.0, 1.0, std::numeric_limits<double>::denorm_min(),
                                      [&](double x) { return x <= boundary; });
  EXPECT_EQ(got, boundary);
}

}  // namespace
}  // namespace symcan
