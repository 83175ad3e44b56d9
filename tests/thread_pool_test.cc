// Unit tests of the fork-join worker pool behind parallel wave execution.

#include "support/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace pgivm {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.parallelism(), 4);

  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.Run(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, DistinctSlotWritesNeedNoSynchronization) {
  // The wave scheduler's usage pattern: task i writes only slot i.
  ThreadPool pool(8);
  constexpr size_t kN = 4096;
  std::vector<int64_t> out(kN, -1);
  pool.Run(kN, [&](size_t i) { out[i] = static_cast<int64_t>(i) * 2; });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[i], static_cast<int64_t>(i) * 2);
  }
}

TEST(ThreadPoolTest, SingleThreadDegeneratesToSerialLoop) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1);
  int64_t sum = 0;
  // No workers: the task may touch unsynchronized state freely.
  pool.Run(100, [&](size_t i) { sum += static_cast<int64_t>(i); });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPoolTest, ClampsNonPositiveThreadCounts) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.parallelism(), 1);
  std::atomic<int> ran{0};
  pool.Run(3, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, ReusableAcrossManyRegions) {
  // The scheduler dispatches one region per wave — thousands over a
  // network's lifetime. Regions must not leak state into each other.
  ThreadPool pool(3);
  for (int region = 1; region <= 500; ++region) {
    std::atomic<int64_t> sum{0};
    size_t n = static_cast<size_t>(region % 7);  // exercises n == 0 and 1
    pool.Run(n, [&](size_t i) { sum.fetch_add(static_cast<int64_t>(i) + 1); });
    int64_t expected = 0;
    for (size_t i = 0; i < n; ++i) expected += static_cast<int64_t>(i) + 1;
    ASSERT_EQ(sum.load(), expected) << "region " << region;
  }
}

TEST(ThreadPoolTest, EmptyRegionIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.Run(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1);   // hardware concurrency
  EXPECT_GE(ThreadPool::ResolveThreadCount(-3), 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(6), 6);
}

// Programmatic thread counts are capped before any pool starts threads:
// an unchecked count would start threads until one failed to launch, and
// that failure terminates the process. Resolving starts no threads.
TEST(ThreadPoolTest, ResolveThreadCountCapsAtMaxThreads) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(ThreadPool::kMaxThreads),
            ThreadPool::kMaxThreads);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(ThreadPool::kMaxThreads + 1),
            ThreadPool::kMaxThreads);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(100000), ThreadPool::kMaxThreads);
  EXPECT_LE(ThreadPool::ResolveThreadCount(0), ThreadPool::kMaxThreads);
}

}  // namespace
}  // namespace pgivm
