#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "io/thread_pool.h"
#include "testing_support.h"

namespace scishuffle {
namespace {

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { count.fetch_add(1); });
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, ConcurrencyIsBoundedBySlots) {
  constexpr int kSlots = 3;
  ThreadPool pool(kSlots);
  std::atomic<int> inFlight{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] {
      const int now = inFlight.fetch_add(1) + 1;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      inFlight.fetch_sub(1);
    });
  }
  pool.wait();
  EXPECT_LE(peak.load(), kSlots);
  EXPECT_GE(peak.load(), 2);  // it did actually run in parallel
}

TEST(ThreadPoolTest, TasksCanSubmitWorkIndirectly) {
  // Destructor drains outstanding work even without an explicit wait().
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SingleSlotIsSerial) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    pool.submit([&order, i] { order.push_back(i); });  // safe: one worker
  }
  pool.wait();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolTest, SubmitTaskReturnsResultsAndExceptions) {
  ThreadPool pool(2);
  auto ok = pool.submitTask([] { return 41 + 1; });
  auto bad = pool.submitTask([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), 42);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, AwaitReturnsTheTaskValue) {
  ThreadPool pool(2);
  auto answer = pool.submitTask([] { return 41 + 1; });
  EXPECT_EQ(pool.await(answer), 42);
}

TEST(ThreadPoolTest, AwaitRethrowsTheTaskException) {
  ThreadPool pool(2);
  auto bad = pool.submitTask([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.await(bad), std::runtime_error);
}

TEST(ThreadPoolTest, AwaitRunsQueuedTasksOnTheCallingThread) {
  // The only worker is parked, so every queued task, the awaited one and
  // the older ones ahead of it, runs on the awaiting thread.
  ThreadPool pool(1);
  testing::ParkedWorker parked(pool);
  std::vector<std::future<std::thread::id>> ran;
  for (int i = 0; i < 3; ++i) {
    ran.push_back(pool.submitTask([] { return std::this_thread::get_id(); }));
  }
  EXPECT_EQ(pool.await(ran.back()), std::this_thread::get_id());
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(ran[static_cast<std::size_t>(i)].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(ran[static_cast<std::size_t>(i)].get(), std::this_thread::get_id());
  }
  EXPECT_FALSE(parked.waitedForGate());
}

TEST(ThreadPoolTest, AwaitLeavesThePoolIdle) {
  // Tasks run inside await() retire from the same bookkeeping a worker's
  // do: wait() returns and both gauges read zero afterwards.
  ThreadPool pool(1);
  {
    testing::ParkedWorker parked(pool);
    std::vector<std::future<int>> results;
    for (int i = 0; i < 5; ++i) results.push_back(pool.submitTask([i] { return i; }));
    EXPECT_EQ(pool.await(results.back()), 4);
    EXPECT_EQ(pool.queueDepth(), 0u);
    EXPECT_EQ(pool.activeWorkers(), 1);  // the parked gate task
  }
  pool.wait();
  EXPECT_EQ(pool.queueDepth(), 0u);
  EXPECT_EQ(pool.activeWorkers(), 0);
}

}  // namespace
}  // namespace scishuffle
