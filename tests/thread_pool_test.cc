// Tests for the fixed-size thread pool and ParallelFor: every index runs
// exactly once, completion is awaited, grain-size control partitions
// deterministically, and the sequential path (no pool) is byte-for-byte the
// plain loop.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <vector>

#include "util/thread_pool.h"

namespace recomp {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<uint64_t> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destruction drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPoolTest, DefaultThreadCountIsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, SingleThreadPoolStillRunsTasks) {
  std::atomic<uint64_t> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(count.load(), 10u);
}

void ExpectCoversAllIndicesOnce(const ExecContext& ctx, uint64_t n) {
  std::vector<std::atomic<uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelFor(ctx, n, [&](uint64_t i) {
    ASSERT_LT(i, n);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroThreadsRunsSubmittedTasksInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  // No workers: Submit must execute inline, not queue forever.
  uint64_t count = 0;
  std::thread::id ran_on;
  pool.Submit([&] {
    ++count;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  // And a zero-thread pool is a valid sequential ExecContext.
  EXPECT_FALSE((ExecContext{&pool, 1}).parallel());
  EXPECT_FALSE((ExecContext{&pool, 1}).async());
  ExpectCoversAllIndicesOnce(ExecContext{&pool, 1}, 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  for (const uint64_t n : {0ull, 1ull, 2ull, 7ull, 64ull, 1000ull}) {
    for (const uint64_t grain : {1ull, 3ull, 16ull, 10000ull}) {
      ExpectCoversAllIndicesOnce(ExecContext{&pool, grain}, n);
    }
  }
}

TEST(ThreadPoolTest, ParallelForWithoutPoolRunsInIndexOrder) {
  std::vector<uint64_t> order;
  ParallelFor(ExecContext{}, 10, [&](uint64_t i) { order.push_back(i); });
  std::vector<uint64_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ParallelForBlocksUntilAllWorkIsDone) {
  ThreadPool pool(4);
  // A visible (non-atomic) sum guarded only by ParallelFor's completion:
  // under TSan this also proves the latch publishes the workers' writes.
  std::vector<uint64_t> squares(512, 0);
  ParallelFor(ExecContext{&pool, 8}, squares.size(),
              [&](uint64_t i) { squares[i] = i * i; });
  uint64_t total = 0;
  for (uint64_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
    total += squares[i];
  }
  const uint64_t n = squares.size();
  EXPECT_EQ(total, (n - 1) * n * (2 * n - 1) / 6);
}

TEST(ThreadPoolTest, ExecContextParallelPredicate) {
  EXPECT_FALSE(ExecContext{}.parallel());
  EXPECT_FALSE(ExecContext{}.async());
  ThreadPool one(1);
  EXPECT_FALSE((ExecContext{&one, 1}).parallel());
  EXPECT_TRUE((ExecContext{&one, 1}).async());
  ThreadPool two(2);
  EXPECT_TRUE((ExecContext{&two, 1}).parallel());
}

TEST(TaskGroupTest, WaitBlocksUntilEveryTaskFinished) {
  ThreadPool pool(4);
  const ExecContext ctx{&pool, 1};
  TaskGroup group;
  // Non-atomic slots published only by Wait(): under TSan this also proves
  // the completion wait synchronizes with the workers' writes.
  std::vector<uint64_t> slots(256, 0);
  for (uint64_t i = 0; i < slots.size(); ++i) {
    group.Run(ctx, [&slots, i] { slots[i] = i + 1; });
  }
  group.Wait();
  EXPECT_EQ(group.pending(), 0u);
  for (uint64_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], i + 1) << "task " << i;
  }
}

TEST(TaskGroupTest, RunsInlineWithoutAPool) {
  TaskGroup group;
  uint64_t count = 0;
  group.Run(ExecContext{}, [&] { ++count; });
  EXPECT_EQ(count, 1u);  // Already ran: no pool means inline.
  EXPECT_EQ(group.pending(), 0u);
  group.Wait();  // A no-op, not a hang.
}

TEST(TaskGroupTest, ReusableAcrossWaits) {
  ThreadPool pool(2);
  const ExecContext ctx{&pool, 1};
  TaskGroup group;
  std::atomic<uint64_t> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      group.Run(ctx, [&] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
    EXPECT_EQ(count.load(), 10u * (batch + 1));
  }
}

TEST(ThreadPoolTest, LowPriorityTasksRunAfterQueuedNormalWork) {
  // With the single worker wedged, queue low-priority work first and normal
  // work second: the worker must drain the normal queue before touching the
  // low queue, regardless of submission order — the property that keeps the
  // store's recompression jobs behind live seal jobs.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.Submit([gate] { gate.wait(); });

  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    pool.Submit(
        [&mu, &order, i] {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(100 + i);  // Low batch.
        },
        TaskPriority::kLow);
  }
  for (int i = 0; i < 3; ++i) {
    pool.Submit([&mu, &order, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);  // Normal batch, submitted later.
    });
  }

  TaskGroup fence;
  release.set_value();
  fence.Run(ExecContext{&pool, 1}, [] {}, TaskPriority::kLow);
  fence.Wait();  // Low-priority fence: everything above has drained.

  std::lock_guard<std::mutex> lock(mu);
  const std::vector<int> expected = {0, 1, 2, 100, 101, 102};
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, HighPriorityTasksJumpAheadOfQueuedNormalAndLowWork) {
  // With the single worker wedged, queue normal and low work first and high
  // work last: the worker must still drain high → normal → low — the
  // property that lets the query service's batch scans overtake a burst of
  // queued seal jobs.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  // The worker must be provably wedged before the batches below are
  // queued: the gate task sits at normal priority, so a high task already
  // queued by the time the worker first dequeues would run ahead of the
  // gate and corrupt the observed order.
  std::promise<void> wedged;
  pool.Submit([gate, &wedged] {
    wedged.set_value();
    gate.wait();
  });
  wedged.get_future().wait();

  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 2; ++i) {
    pool.Submit(
        [&mu, &order, i] {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(200 + i);  // Low batch.
        },
        TaskPriority::kLow);
  }
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&mu, &order, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(100 + i);  // Normal batch.
    });
  }
  for (int i = 0; i < 2; ++i) {
    pool.Submit(
        [&mu, &order, i] {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(i);  // High batch, submitted last.
        },
        TaskPriority::kHigh);
  }

  TaskGroup fence;
  release.set_value();
  fence.Run(ExecContext{&pool, 1}, [] {}, TaskPriority::kLow);
  fence.Wait();  // Low-priority fence: everything above has drained.

  std::lock_guard<std::mutex> lock(mu);
  const std::vector<int> expected = {0, 1, 100, 101, 200, 201};
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ExecContextPriorityRoutesParallelForSubmits) {
  // A kHigh ExecContext must submit its fan-out at kHigh: wedge both
  // workers, queue a normal marker, then ParallelFor at kHigh from another
  // thread — the queued fan-out ranges must all overtake the marker.
  // Only the worker wedged on gate B is let go before the end, so it alone
  // drains the queues and things run in the order they were dequeued (two
  // draining workers could finish the last high range after the marker).
  ThreadPool pool(2);
  std::promise<void> release_a, release_b;
  std::shared_future<void> gate_a = release_a.get_future().share();
  std::shared_future<void> gate_b = release_b.get_future().share();
  // Both workers must be provably wedged before anything else is
  // submitted: a kHigh task queued while a worker is still on its way to
  // its gate task would be drained first (high beats normal), and the
  // queue-depth wait below would never be satisfied.
  std::promise<void> wedged_a, wedged_b;
  pool.Submit([gate_a, &wedged_a] {
    wedged_a.set_value();
    gate_a.wait();
  });
  pool.Submit([gate_b, &wedged_b] {
    wedged_b.set_value();
    gate_b.wait();
  });
  wedged_a.get_future().wait();
  wedged_b.get_future().wait();

  std::mutex mu;
  std::vector<int> order;
  pool.Submit([&mu, &order] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(999);  // Normal marker, queued first.
  });

  ExecContext high{&pool, 1, TaskPriority::kHigh};
  std::thread runner([&] {
    // Four indices → three submitted tasks (the runner thread takes the
    // first range itself); the submitted ranges must overtake the marker.
    ParallelFor(high, 4, [&](uint64_t i) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(static_cast<int>(i));
    });
  });
  // Wait until the fan-out is queued behind the wedge and the runner has
  // run its own range (nothing else can run yet), then release gate B.
  auto ready = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return !order.empty() && pool.queue_depth(TaskPriority::kHigh) >= 3;
  };
  while (!ready()) std::this_thread::yield();
  release_b.set_value();
  runner.join();

  TaskGroup fence;
  fence.Run(ExecContext{&pool, 1}, [] {}, TaskPriority::kLow);
  fence.Wait();
  release_a.set_value();

  std::lock_guard<std::mutex> lock(mu);
  const std::vector<int> expected = {0, 1, 2, 3, 999};
  EXPECT_EQ(order, expected)
      << "high-priority fan-out should run before the queued normal marker";
}

TEST(ThreadPoolTest, ZeroThreadsRunsLowPriorityInline) {
  ThreadPool pool(0);
  bool ran = false;
  pool.Submit([&ran] { ran = true; }, TaskPriority::kLow);
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, IntrospectionReportsQueueDepthsAndActiveWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.queue_depth(TaskPriority::kNormal), 0u);
  EXPECT_EQ(pool.queue_depth(TaskPriority::kLow), 0u);

  // Wedge the single worker: everything submitted behind it stays queued,
  // so the depths are deterministic while the gate is closed.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> entered;
  pool.Submit([gate, &entered] {
    entered.set_value();
    gate.wait();
  });
  entered.get_future().wait();  // The worker is now *running* the blocker.
  EXPECT_EQ(pool.active_workers(), 1u);

  for (int i = 0; i < 3; ++i) pool.Submit([] {});
  for (int i = 0; i < 2; ++i) pool.Submit([] {}, TaskPriority::kLow);
  EXPECT_EQ(pool.queue_depth(TaskPriority::kNormal), 3u);
  EXPECT_EQ(pool.queue_depth(TaskPriority::kLow), 2u);

  release.set_value();
  TaskGroup fence;
  fence.Run(ExecContext{&pool, 1}, [] {}, TaskPriority::kLow);
  fence.Wait();  // Low-priority fence: both queues have drained.
  EXPECT_EQ(pool.queue_depth(TaskPriority::kNormal), 0u);
  EXPECT_EQ(pool.queue_depth(TaskPriority::kLow), 0u);
}

TEST(ThreadPoolTest, ZeroThreadPoolReportsEmptyIntrospection) {
  ThreadPool pool(0);
  pool.Submit([] {});  // Runs inline; nothing ever queues.
  EXPECT_EQ(pool.queue_depth(TaskPriority::kNormal), 0u);
  EXPECT_EQ(pool.queue_depth(TaskPriority::kLow), 0u);
  EXPECT_EQ(pool.active_workers(), 0u);
}

TEST(ThreadPoolTest, DestructorDrainsPendingLowPriorityWork) {
  // Wedge the single worker, stack up low-priority work behind it, then
  // destroy the pool while that work is still queued. The destructor's
  // contract is drain-then-join — background recompression jobs already
  // submitted must run, not vanish — so every task must have executed by
  // the time the destructor returns.
  std::atomic<int> ran{0};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  {
    ThreadPool pool(1);
    pool.Submit([gate] { gate.wait(); });
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); }, TaskPriority::kLow);
    }
    release.set_value();
    // ~ThreadPool runs here with (up to) 16 low-priority tasks pending.
  }
  EXPECT_EQ(ran.load(), 16);
}

}  // namespace
}  // namespace recomp
