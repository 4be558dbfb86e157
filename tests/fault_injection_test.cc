// Unit tests for the deterministic fault injector: trigger controls
// (skip_calls / max_triggers / probability), the hit/mutate phase split,
// seed determinism, and thread safety.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "io/common.h"
#include "testing/fault_injector.h"
#include "testing_support.h"

namespace scishuffle::testing {
namespace {

// Sites are plain strings, so the generic cases use one of their own.
constexpr const char* kTestSite = "test.site";

FaultPlan onePlan(FaultRule rule, u64 seed = 7) {
  FaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back(std::move(rule));
  return plan;
}

TEST(FaultInjectorTest, ThrowIoFiresOnceThenDisarms) {
  FaultInjector faults(onePlan({site::kShuffleFetch, FaultKind::kThrowIo}));
  EXPECT_THROW(faults.hit(site::kShuffleFetch), IoError);
  // max_triggers defaults to 1: subsequent calls pass.
  faults.hit(site::kShuffleFetch);
  faults.hit(site::kShuffleFetch);
  EXPECT_EQ(faults.triggered(site::kShuffleFetch), 1u);
  EXPECT_EQ(faults.totalTriggered(), 1u);
}

TEST(FaultInjectorTest, SiteMismatchNeverFires) {
  FaultInjector faults(onePlan({site::kShuffleFetch, FaultKind::kThrowIo}));
  faults.hit(kTestSite);
  faults.hit(site::kShufflePublish);
  Bytes buf{1, 2, 3};
  faults.mutate(kTestSite, buf);
  EXPECT_EQ(buf, (Bytes{1, 2, 3}));
  EXPECT_EQ(faults.totalTriggered(), 0u);
}

TEST(FaultInjectorTest, SkipCallsDelaysEligibility) {
  FaultRule rule{kTestSite, FaultKind::kThrowIo};
  rule.skip_calls = 2;
  FaultInjector faults(onePlan(rule));
  faults.hit(kTestSite);  // call 1: skipped
  faults.hit(kTestSite);  // call 2: skipped
  EXPECT_EQ(faults.triggered(kTestSite), 0u);
  EXPECT_THROW(faults.hit(kTestSite), IoError);  // call 3 fires
  EXPECT_EQ(faults.triggered(kTestSite), 1u);
}

TEST(FaultInjectorTest, MaxTriggersBoundsFiring) {
  FaultRule rule{kTestSite, FaultKind::kThrowIo};
  rule.max_triggers = 3;
  FaultInjector faults(onePlan(rule));
  for (int i = 0; i < 3; ++i) EXPECT_THROW(faults.hit(kTestSite), IoError);
  for (int i = 0; i < 10; ++i) faults.hit(kTestSite);  // disarmed
  EXPECT_EQ(faults.triggered(kTestSite), 3u);
}

TEST(FaultInjectorTest, ZeroMaxTriggersMeansUnlimited) {
  FaultRule rule{kTestSite, FaultKind::kThrowIo};
  rule.max_triggers = 0;
  FaultInjector faults(onePlan(rule));
  for (int i = 0; i < 25; ++i) EXPECT_THROW(faults.hit(kTestSite), IoError);
  EXPECT_EQ(faults.triggered(kTestSite), 25u);
}

TEST(FaultInjectorTest, ProbabilityIsSeedDeterministic) {
  FaultRule rule{kTestSite, FaultKind::kThrowIo};
  rule.probability = 0.5;
  rule.max_triggers = 0;

  auto firingPattern = [&](u64 seed) {
    FaultInjector faults(onePlan(rule, seed));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      try {
        faults.hit(kTestSite);
        fired.push_back(false);
      } catch (const IoError&) {
        fired.push_back(true);
      }
    }
    return fired;
  };

  const auto a = firingPattern(42);
  const auto b = firingPattern(42);
  EXPECT_EQ(a, b) << "same seed must replay the same trigger sequence";

  // And the coin is actually being flipped: with p=0.5 over 64 calls, both
  // outcomes must appear (probability of this failing is 2^-63).
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 64);
}

TEST(FaultInjectorTest, CorruptBytesFlipsExactlyOneBit) {
  FaultRule rule{site::kBlockDecode, FaultKind::kCorruptBytes};
  FaultInjector faults(onePlan(rule));
  const Bytes original = randomBytes(512, 9);
  Bytes buf = original;
  faults.mutate(site::kBlockDecode, buf);
  ASSERT_EQ(buf.size(), original.size());
  int diffBits = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    diffBits += __builtin_popcount(static_cast<unsigned>(buf[i] ^ original[i]));
  }
  EXPECT_EQ(diffBits, 1);
  EXPECT_EQ(faults.triggered(site::kBlockDecode), 1u);
}

TEST(FaultInjectorTest, TruncateShortensBuffer) {
  FaultRule rule{site::kShuffleFetch, FaultKind::kTruncate};
  FaultInjector faults(onePlan(rule));
  const Bytes original = randomBytes(512, 10);
  Bytes buf = original;
  faults.mutate(site::kShuffleFetch, buf);
  ASSERT_LT(buf.size(), original.size());
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), original.begin()));
}

TEST(FaultInjectorTest, MutateSkipsEmptyBuffers) {
  FaultRule rule{site::kShuffleFetch, FaultKind::kCorruptBytes};
  FaultInjector faults(onePlan(rule));
  Bytes empty;
  faults.mutate(site::kShuffleFetch, empty);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(faults.totalTriggered(), 0u);
}

TEST(FaultInjectorTest, PhasesAreDisjoint) {
  // A corrupt rule must never fire in the hit phase and a throw rule must
  // never fire in the mutate phase — otherwise a rule double-counts.
  FaultPlan plan;
  plan.rules.push_back({site::kShuffleFetch, FaultKind::kCorruptBytes});
  FaultRule throwRule{site::kShuffleFetch, FaultKind::kThrowIo};
  throwRule.skip_calls = 100;  // keep it armed but quiet
  plan.rules.push_back(throwRule);
  FaultInjector faults(plan);

  faults.hit(site::kShuffleFetch);  // corrupt rule must not fire here
  EXPECT_EQ(faults.totalTriggered(), 0u);

  Bytes buf = randomBytes(64, 11);
  const Bytes before = buf;
  faults.mutate(site::kShuffleFetch, buf);  // corrupt fires, throw does not
  EXPECT_NE(buf, before);
  EXPECT_EQ(faults.totalTriggered(), 1u);
}

TEST(FaultInjectorTest, DelayDoesNotThrow) {
  FaultRule rule{site::kShufflePublish, FaultKind::kDelay};
  rule.delay_us = 100;
  FaultInjector faults(onePlan(rule));
  EXPECT_NO_THROW(faults.hit(site::kShufflePublish));
  EXPECT_EQ(faults.triggered(site::kShufflePublish), 1u);
}

TEST(FaultInjectorTest, ThreadSafeUnderConcurrentHits) {
  FaultRule rule{site::kShuffleFetch, FaultKind::kThrowIo};
  rule.max_triggers = 8;
  FaultInjector faults(onePlan(rule));
  std::vector<std::thread> threads;
  std::atomic<int> thrown{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        try {
          faults.hit(site::kShuffleFetch);
        } catch (const IoError&) {
          thrown.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(thrown.load(), 8);
  EXPECT_EQ(faults.triggered(site::kShuffleFetch), 8u);
}

}  // namespace
}  // namespace scishuffle::testing
