// VersionedCache (exec/versioned_cache.h), the one cache behind decoded
// chunks, selections and results: one computation per key with waiters
// sharing its outcome, an entry in flight never evicted, the oldest settled
// entries shed first, a failed computation dropped when the batch ends, and
// an older version computed but never stored. Every ordering here is forced
// by the computations themselves, not by timing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>

#include "exec/versioned_cache.h"
#include "util/status.h"

namespace recomp {
namespace {

/// Values cost themselves: a budget of 10 keeps 10 worth of values.
struct IntTraits {
  using Key = uint64_t;
  using Hash = std::hash<uint64_t>;
  using Value = uint64_t;
  static uint64_t Cost(const uint64_t& value) { return value; }
  static exec::CacheCounters Counters() { return {}; }
};
using IntCache = exec::VersionedCache<IntTraits>;

/// A computation returning `value`.
auto Returns(uint64_t value) {
  return [value] { return Result<uint64_t>(value); };
}

TEST(ServiceCacheTest, ComputesOnceAndSharesTheValueWithWaiters) {
  IntCache cache(/*budget=*/100);
  std::atomic<int> computations{0};
  bool waiter_reused = false;
  IntCache::Handle waiter_value;
  std::thread waiter;
  const auto second_compute = [&] {
    ++computations;
    return Result<uint64_t>(uint64_t{99});
  };
  const auto first_compute = [&] {
    ++computations;
    // The key is in flight now: a second caller waits for this computation
    // (or finds it stored) instead of running its own.
    waiter = std::thread([&] {
      auto second = cache.GetOrCompute(1, 7, second_compute, &waiter_reused);
      ASSERT_TRUE(second.ok());
      waiter_value = *second;
    });
    return Result<uint64_t>(uint64_t{5});
  };
  bool reused = true;
  auto first = cache.GetOrCompute(1, 7, first_compute, &reused);
  waiter.join();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(reused);
  EXPECT_TRUE(waiter_reused);
  EXPECT_EQ(computations.load(), 1);
  EXPECT_EQ(**first, 5u);
  EXPECT_EQ(waiter_value, *first);  // The same object, not a copy.
  EXPECT_EQ(cache.cost(), 5u);
}

TEST(ServiceCacheTest, EntriesStayUntilTheBatchEndsAndInFlightOnesStayLonger) {
  IntCache cache(/*budget=*/0);
  // A nested computation: the outer key is in flight while the inner one
  // settles and the budget is applied.
  const auto outer_compute = [&] {
    EXPECT_TRUE(cache.GetOrCompute(1, 2, Returns(3)).ok());
    EXPECT_EQ(cache.size(), 2u);
    cache.EvictToBudget();
    EXPECT_EQ(cache.size(), 1u);  // Only the settled inner entry went.
    return Result<uint64_t>(uint64_t{4});
  };
  ASSERT_TRUE(cache.GetOrCompute(1, 1, outer_compute).ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.cost(), 4u);
  EXPECT_NE(cache.Find(1, 1), nullptr);
  cache.EvictToBudget();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.cost(), 0u);
}

TEST(ServiceCacheTest, OldestSettledEntriesAreShedFirst) {
  IntCache cache(/*budget=*/10);
  for (uint64_t key = 1; key <= 4; ++key) cache.Insert(1, key, 4);
  EXPECT_EQ(cache.cost(), 16u);
  cache.EvictToBudget();
  EXPECT_EQ(cache.cost(), 8u);
  EXPECT_EQ(cache.Find(1, 1), nullptr);
  EXPECT_EQ(cache.Find(1, 2), nullptr);
  EXPECT_NE(cache.Find(1, 3), nullptr);
  EXPECT_NE(cache.Find(1, 4), nullptr);
}

TEST(ServiceCacheTest, FailuresAreSharedWithinTheBatchThenDropped) {
  IntCache cache(/*budget=*/100);
  int computations = 0;
  const auto fail = [&] {
    ++computations;
    return Result<uint64_t>(Status::Corruption("bad chunk"));
  };
  EXPECT_FALSE(cache.GetOrCompute(1, 3, fail).ok());
  bool reused = false;
  EXPECT_FALSE(cache.GetOrCompute(1, 3, fail, &reused).ok());
  EXPECT_TRUE(reused);
  EXPECT_EQ(computations, 1);
  EXPECT_EQ(cache.Find(1, 3), nullptr);
  EXPECT_EQ(cache.cost(), 0u);
  // Well under budget, yet the failure does not outlive its batch.
  cache.EvictToBudget();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.GetOrCompute(1, 3, fail, &reused).ok());
  EXPECT_FALSE(reused);
  EXPECT_EQ(computations, 2);
}

TEST(ServiceCacheTest, AnOlderVersionIsComputedButNeverStored) {
  IntCache cache(/*budget=*/100);
  cache.Insert(2, 1, 10);
  bool reused = true;
  auto stale = cache.GetOrCompute(1, 1, Returns(20), &reused);
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(reused);
  EXPECT_EQ(**stale, 20u);
  auto current = cache.GetOrCompute(2, 1, Returns(30));
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(**current, 10u);
  EXPECT_EQ(cache.Find(1, 1), nullptr);
  EXPECT_EQ(cache.version(), 2u);

  // A newer version purges everything, including what a straggler of the
  // old version settles afterwards.
  const auto straggler_compute = [&] {
    EXPECT_EQ(cache.Find(3, 1), nullptr);
    return Result<uint64_t>(uint64_t{7});
  };
  ASSERT_TRUE(cache.GetOrCompute(2, 5, straggler_compute).ok());
  EXPECT_EQ(cache.version(), 3u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.cost(), 0u);
}

}  // namespace
}  // namespace recomp
