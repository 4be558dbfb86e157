// ShuffleServer edge cases: zero-map jobs, publishes racing waiting
// reducers, concurrent fetchers on one queue, retained-copy refetch, a
// faulted publish leaving its segments to the retry, and abort waking
// blocked fetchers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "hadoop/runtime.h"
#include "hadoop/shuffle.h"
#include "testing/fault_injector.h"
#include "testing_support.h"

namespace scishuffle::hadoop {
namespace {

Bytes segmentFor(std::size_t map, int reducer) {
  return Bytes{static_cast<u8>('S'), static_cast<u8>(map), static_cast<u8>(reducer)};
}

std::vector<Bytes> segmentsFor(std::size_t map, int reducers) {
  std::vector<Bytes> out;
  for (int r = 0; r < reducers; ++r) out.push_back(segmentFor(map, r));
  return out;
}

TEST(ShuffleServerTest, ZeroMapsDrainsImmediately) {
  ShuffleServer server(0, 2);
  // No publishes will ever happen; fetch must return nullopt right away
  // instead of blocking forever.
  EXPECT_FALSE(server.fetch(0).has_value());
  EXPECT_FALSE(server.fetch(1).has_value());
}

TEST(ShuffleServerTest, ZeroMapJobProducesEmptyOutputsOnPipelinedPath) {
  JobConfig config;
  config.num_reducers = 3;
  const ReduceFn reduce = [](const Bytes&, std::vector<Bytes>&, const EmitFn&) {};
  const JobResult result = runJob(config, {}, reduce);
  ASSERT_EQ(result.outputs.size(), 3u);
  for (const auto& out : result.outputs) EXPECT_TRUE(out.empty());
}

TEST(ShuffleServerTest, LatePublishReachesWaitingReducer) {
  ShuffleServer server(1, 1);
  std::atomic<bool> fetched{false};
  std::thread reducer([&] {
    const auto got = server.fetch(0);  // blocks: nothing published yet
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->map_index, 0u);
    EXPECT_EQ(got->segment, segmentFor(0, 0));
    fetched.store(true);
    EXPECT_FALSE(server.fetch(0).has_value());  // drained
  });
  // Give the reducer time to actually park on the condition variable.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(fetched.load());
  server.publish(0, segmentsFor(0, 1));
  reducer.join();
  EXPECT_TRUE(fetched.load());
}

TEST(ShuffleServerTest, ConcurrentFetchersSplitOneQueueWithoutLossOrDuplication) {
  constexpr std::size_t kMaps = 64;
  ShuffleServer server(kMaps, 1);

  std::vector<std::vector<std::size_t>> taken(4);
  std::vector<std::thread> fetchers;
  for (std::size_t t = 0; t < taken.size(); ++t) {
    fetchers.emplace_back([&, t] {
      while (const auto got = server.fetch(0)) {
        EXPECT_EQ(got->segment, segmentFor(got->map_index, 0));
        taken[t].push_back(got->map_index);
      }
    });
  }
  std::thread publisher([&] {
    for (std::size_t m = 0; m < kMaps; ++m) server.publish(m, segmentsFor(m, 1));
  });
  publisher.join();
  for (auto& t : fetchers) t.join();

  std::vector<std::size_t> all;
  for (const auto& part : taken) all.insert(all.end(), part.begin(), part.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), kMaps);
  for (std::size_t m = 0; m < kMaps; ++m) EXPECT_EQ(all[m], m);
}

TEST(ShuffleServerTest, RefetchReturnsPristineCopy) {
  ShuffleServer server(2, 2, nullptr, /*retainSegments=*/true);
  server.publish(0, segmentsFor(0, 2));
  server.publish(1, segmentsFor(1, 2));

  auto fetched = server.fetch(1);
  ASSERT_TRUE(fetched.has_value());
  fetched->segment[0] ^= 0xFF;  // simulate a corrupted transfer
  const Bytes fresh = server.refetch(fetched->map_index, 1);
  EXPECT_EQ(fresh, segmentFor(fetched->map_index, 1));
  // Refetch does not consume: a second refetch still works.
  EXPECT_EQ(server.refetch(fetched->map_index, 1), fresh);
}

TEST(ShuffleServerTest, RefetchWithoutRetentionIsALogicError) {
  ShuffleServer server(1, 1);
  server.publish(0, segmentsFor(0, 1));
  EXPECT_THROW(server.refetch(0, 0), std::logic_error);
}

TEST(ShuffleServerTest, RefetchOfUnpublishedMapIsALogicError) {
  ShuffleServer server(2, 1, nullptr, /*retainSegments=*/true);
  server.publish(0, segmentsFor(0, 1));
  EXPECT_THROW(server.refetch(1, 0), std::logic_error);
}

TEST(ShuffleServerTest, AbortWakesBlockedFetchers) {
  ShuffleServer server(3, 2);
  std::atomic<int> threw{0};
  std::vector<std::thread> fetchers;
  for (int r = 0; r < 2; ++r) {
    fetchers.emplace_back([&, r] {
      try {
        server.fetch(r);
      } catch (const std::runtime_error&) {
        threw.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.abort();
  for (auto& t : fetchers) t.join();
  EXPECT_EQ(threw.load(), 2);
  // Post-abort fetches fail fast instead of hanging.
  EXPECT_THROW(server.fetch(0), std::runtime_error);
}

TEST(ShuffleServerTest, FetchAfterAllPublishesNeverBlocks) {
  ShuffleServer server(2, 1);
  server.publish(0, segmentsFor(0, 1));
  server.publish(1, segmentsFor(1, 1));
  EXPECT_TRUE(server.fetch(0).has_value());
  EXPECT_TRUE(server.fetch(0).has_value());
  EXPECT_FALSE(server.fetch(0).has_value());
}

TEST(ShuffleServerTest, EmptySegmentsFlowThrough) {
  // A reducer with no records from some map still gets that map's (empty)
  // segment — arrival accounting must not special-case zero bytes.
  ShuffleServer server(1, 2);
  std::vector<Bytes> segments(2);  // both empty
  server.publish(0, std::move(segments));
  const auto got = server.fetch(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->segment.empty());
}

// The retry loop in runJob publishes the same vector again after a publish
// throws, so a faulted publish must not have moved out of it.
TEST(ShuffleServerTest, FaultedPublishLeavesSegmentsForTheRetry) {
  scishuffle::testing::FaultPlan plan;
  plan.rules.push_back(
      {scishuffle::testing::site::kShufflePublish, scishuffle::testing::FaultKind::kThrowIo});
  scishuffle::testing::FaultInjector faults(plan);
  ShuffleServer server(1, 2, &faults);
  std::vector<Bytes> segments = segmentsFor(0, 2);
  EXPECT_THROW(server.publish(0, std::move(segments)), IoError);
  ASSERT_EQ(segments, segmentsFor(0, 2));  // NOLINT(bugprone-use-after-move)
  server.publish(0, std::move(segments));
  for (int r = 0; r < 2; ++r) {
    const auto got = server.fetch(r);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->segment, segmentFor(0, r));
    EXPECT_FALSE(server.fetch(r).has_value());
  }
}

// Regression for the lock-discipline pass (PR 5): publish() used to read the
// reducer-queue table before taking the lock when validating the segment
// count. The validation must still reject mismatches now that it runs under
// the lock, including while other publishers are racing.
TEST(ShuffleServerTest, WrongSegmentCountIsRejectedUnderConcurrentPublishes) {
  ShuffleServer server(4, 2);
  std::vector<std::thread> publishers;
  for (std::size_t m = 0; m < 3; ++m) {
    publishers.emplace_back([&, m] { server.publish(m, segmentsFor(m, 2)); });
  }
  for (auto& t : publishers) t.join();
  EXPECT_THROW(server.publish(3, segmentsFor(3, 5)), std::exception);  // 5 != 2 reducers
  server.publish(3, segmentsFor(3, 2));  // the failed publish consumed no slot
}

// Regression for the lock-discipline pass: the overlap-accounting stats must
// stay coherent while publishes and fetches race — every read goes through
// the locked accessors (TSan verifies at runtime what -Wthread-safety proves
// at compile time; this test carries the tsan label via its binary).
TEST(ShuffleServerTest, StatsReadersRaceWithPublishersAndFetchers) {
  constexpr std::size_t kMaps = 16;
  ShuffleServer server(kMaps, 1);
  std::atomic<bool> done{false};
  std::thread statsReader([&] {
    u64 lastSeenPublish = 0;
    while (!done.load()) {
      const u64 p = server.firstPublishUs();
      // firstPublishUs is written once; once nonzero it never changes.
      if (lastSeenPublish != 0) EXPECT_EQ(p, lastSeenPublish);
      if (p != 0) lastSeenPublish = p;
      server.lastFetchUs();
      std::this_thread::yield();
    }
  });
  std::thread publisher([&] {
    for (std::size_t m = 0; m < kMaps; ++m) server.publish(m, segmentsFor(m, 1));
  });
  std::size_t fetchedCount = 0;
  while (server.fetch(0).has_value()) ++fetchedCount;
  publisher.join();
  done.store(true);
  statsReader.join();
  EXPECT_EQ(fetchedCount, kMaps);
  EXPECT_GE(server.lastFetchUs(), server.firstPublishUs());
  EXPECT_NE(server.firstPublishUs(), 0u);
}

}  // namespace
}  // namespace scishuffle::hadoop
