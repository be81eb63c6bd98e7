#include "symcan/util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace symcan {
namespace {

std::vector<int> iota(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(ParallelExecutor, ResolvesThreadCounts) {
  EXPECT_GE(ParallelExecutor::resolve(0), 1);
  EXPECT_EQ(ParallelExecutor::resolve(1), 1);
  EXPECT_EQ(ParallelExecutor::resolve(7), 7);
  EXPECT_GE(ParallelExecutor::resolve(-3), 1);  // negative falls back to hardware
  EXPECT_EQ(ParallelExecutor{3}.threads(), 3);
}

TEST(ParallelExecutor, PreservesInputOrdering) {
  for (const int threads : {1, 2, 4, 8}) {
    ParallelExecutor exec{threads};
    const std::vector<int> items = iota(100);
    const std::vector<int> out = exec.parallel_map(items, [](int x) { return x * x; });
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], static_cast<int>(i * i)) << "threads=" << threads;
  }
}

TEST(ParallelExecutor, IndexedMapPreservesOrdering) {
  ParallelExecutor exec{4};
  const std::vector<std::string> out = exec.parallel_map_indexed(
      50, [](std::size_t i) { return "item-" + std::to_string(i); });
  ASSERT_EQ(out.size(), 50u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], "item-" + std::to_string(i));
}

TEST(ParallelExecutor, EmptyAndSingleItemInputs) {
  ParallelExecutor exec{4};
  EXPECT_TRUE(exec.parallel_map(std::vector<int>{}, [](int x) { return x; }).empty());
  const std::vector<int> one = exec.parallel_map(std::vector<int>{41}, [](int x) { return x + 1; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 42);
}

TEST(ParallelExecutor, PropagatesExceptionsAtEveryWidth) {
  for (const int threads : {1, 4}) {
    ParallelExecutor exec{threads};
    EXPECT_THROW(exec.parallel_map_indexed(64,
                                           [](std::size_t i) {
                                             if (i == 7) throw std::runtime_error("boom 7");
                                             return static_cast<int>(i);
                                           }),
                 std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ParallelExecutor, PropagatesLowestIndexException) {
  // Several items fail; the surfaced exception must deterministically be
  // the lowest failing index regardless of scheduling, one item per task
  // or several per tile.
  const auto fn = [](std::size_t i) {
    if (i % 20 == 13) throw std::runtime_error("fail at " + std::to_string(i));
    return i;
  };
  ASSERT_GT(ParallelExecutor::auto_tile(128, 4), 1u);
  for (int repeat = 0; repeat < 5; ++repeat) {
    ParallelExecutor exec{4};
    for (const bool tiled : {false, true}) {
      try {
        if (tiled)
          exec.parallel_map_indexed_tiled(128, fn);
        else
          exec.parallel_map_indexed(128, fn);
        FAIL() << "expected an exception, tiled=" << tiled;
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "fail at 13") << "tiled=" << tiled;
      }
    }
  }
}

TEST(ParallelExecutor, StressMoreItemsThanThreads) {
  ParallelExecutor exec{4};
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  const std::size_t count = 5000;
  const std::vector<std::size_t> out = exec.parallel_map_indexed(count, [&](std::size_t i) {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    in_flight.fetch_sub(1);
    return i * 3;
  });
  ASSERT_EQ(out.size(), count);
  for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(out[i], i * 3);
  EXPECT_LE(peak.load(), 4);  // never wider than the configured pool
  EXPECT_EQ(in_flight.load(), 0);
}

TEST(ParallelExecutor, PoolIsReusableAcrossRuns) {
  // Exercises the run/rest cycle of the persistent pool (stale-worker
  // hand-off between consecutive batches).
  ParallelExecutor exec{4};
  for (int round = 0; round < 50; ++round) {
    const std::vector<int> out =
        exec.parallel_map(iota(17 + round), [round](int x) { return x + round; });
    ASSERT_EQ(out.size(), static_cast<std::size_t>(17 + round));
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], static_cast<int>(i) + round);
  }
}

TEST(ParallelExecutor, SupportsMoveOnlyResults) {
  ParallelExecutor exec{2};
  const auto out = exec.parallel_map_indexed(
      10, [](std::size_t i) { return std::make_unique<int>(static_cast<int>(i)); });
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(*out[i], static_cast<int>(i));
}

TEST(ParallelExecutor, SerialAndParallelAgree) {
  const std::vector<int> items = iota(200);
  auto fn = [](int x) { return x * 17 + 3; };
  ParallelExecutor serial{1};
  ParallelExecutor parallel{6};
  EXPECT_EQ(serial.parallel_map(items, fn), parallel.parallel_map(items, fn));
  ASSERT_GT(ParallelExecutor::auto_tile(items.size(), parallel.threads()), 1u);
  EXPECT_EQ(serial.parallel_map(items, fn), parallel.parallel_map_tiled(items, fn));
}

}  // namespace
}  // namespace symcan
