// Deterministic schedule exploration (ctest label: modelcheck). Only built
// when -DSCISHUFFLE_MODEL_CHECK=ON routes io/annotations.h and
// scishuffle::Thread through the cooperative scheduler; tests/CMakeLists.txt
// gates registration on the same flag.
//
// The harness tests come first — a seeded racy struct proves the explorer
// finds schedule-dependent assertion failures and that a printed seed
// replays the exact failing interleaving. Then the real subsystems: the
// shuffle server's publish/fetch/teardown and abort and a thread pool's
// await() under bounded-exhaustive DFS, and 500 PCT schedules of the
// telemetry sampler's stop() racing a gauge registration.
#include <gtest/gtest.h>

#ifndef SCISHUFFLE_MODEL_CHECK

TEST(ModelCheckTest, RequiresModelCheckBuild) {
  GTEST_SKIP() << "built without SCISHUFFLE_MODEL_CHECK";
}

#else  // SCISHUFFLE_MODEL_CHECK

#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "hadoop/shuffle.h"
#include "io/annotations.h"
#include "io/thread.h"
#include "io/thread_pool.h"
#include "obs/sampler.h"
#include "testing/schedule.h"

namespace scishuffle {
namespace {

using testing::ExploreOptions;
using testing::ExploreResult;
using testing::explore;
using testing::replaySeed;

// ---------------------------------------------------------------------------
// Harness: the explorer itself.

/// Deliberately racy claim: the decision ("nobody claimed yet") and the
/// commit happen under two separate critical sections, so a schedule that
/// interleaves two claimants between them double-claims. This is the classic
/// check-then-act race, invisible to any single run that happens to
/// serialize — exactly what the explorer exists to find.
struct RacyOnce {
  Mutex mu;  // test-local: unranked
  bool claimed = false;
  int winners = 0;

  void claim() {
    bool mine = false;
    {
      MutexLock lock(mu);
      mine = !claimed;
    }
    if (mine) {
      MutexLock lock(mu);
      claimed = true;
      ++winners;
    }
  }
};

void racyBody() {
  RacyOnce once;
  Thread a([&once] { once.claim(); });
  Thread b([&once] { once.claim(); });
  a.join();
  b.join();
  if (once.winners != 1) {
    throw std::logic_error("double claim: winners=" + std::to_string(once.winners));
  }
}

TEST(ModelCheckTest, ExhaustiveSearchFindsTheRace) {
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 5000;
  const ExploreResult result = explore(racyBody, opts);
  ASSERT_TRUE(result.failed) << "exhaustive DFS missed a schedule-dependent bug ("
                             << result.schedules_run << " schedules)";
  EXPECT_GE(result.failing_schedule, 0);
  EXPECT_NE(result.failure.find("double claim"), std::string::npos) << result.failure;
}

TEST(ModelCheckTest, FailingSeedReplaysDeterministically) {
  ExploreOptions opts;
  opts.max_schedules = 500;
  opts.seed = 7;
  const ExploreResult result = explore(racyBody, opts);
  ASSERT_TRUE(result.failed) << "randomized explorer missed the race in "
                             << result.schedules_run << " schedules";
  // The acceptance contract: the printed seed reproduces the failure, every
  // time, with the identical report.
  const std::string first = replaySeed(racyBody, result.failing_seed, opts);
  const std::string second = replaySeed(racyBody, result.failing_seed, opts);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("double claim"), std::string::npos) << first;
}

TEST(ModelCheckTest, CorrectProgramExhaustsItsScheduleSpace) {
  // The fixed version of RacyOnce: decision and commit share one critical
  // section. DFS must enumerate the whole (small) tree without a failure.
  auto body = [] {
    Mutex mu;
    bool claimed = false;
    int winners = 0;
    auto claim = [&] {
      MutexLock lock(mu);
      if (!claimed) {
        claimed = true;
        ++winners;
      }
    };
    Thread a(claim);
    Thread b(claim);
    a.join();
    b.join();
    if (winners != 1) throw std::logic_error("double claim");
  };
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 20000;
  const ExploreResult result = explore(body, opts);
  EXPECT_FALSE(result.failed) << result.failure;
  EXPECT_TRUE(result.exhausted) << "space not exhausted in " << result.schedules_run
                                << " schedules";
  EXPECT_GT(result.schedules_run, 1);
}

TEST(ModelCheckTest, DeadlockIsDetectedNotHung) {
  // Classic AB/BA inversion on *unranked* (test-local) mutexes — exempt from
  // the lock-order checker's rank rule, so only the scheduler can see it.
  // The explorer must find the interleaving where both threads hold one lock
  // and report a deadlock instead of hanging the test binary.
  auto body = [] {
    Mutex a;
    Mutex b;
    Thread t1([&] {
      MutexLock la(a);
      MutexLock lb(b);
    });
    Thread t2([&] {
      MutexLock lb(b);
      MutexLock la(a);
    });
    t1.join();
    t2.join();
  };
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 5000;
  const ExploreResult result = explore(body, opts);
  ASSERT_TRUE(result.failed);
  EXPECT_NE(result.failure.find("deadlock"), std::string::npos) << result.failure;
}

TEST(ModelCheckTest, LostWakeupIsFound) {
  // Signal-before-wait: the waiter samples the flag, drops the lock, and
  // only then decides to wait. A schedule where the signaler sets the flag
  // and notifies inside that window sends the notify to nobody and the
  // waiter parks forever; the scheduler reports the hang as a deadlock and
  // the explorer pins the interleaving.
  auto body = [] {
    Mutex mu;
    CondVar cv;
    bool ready = false;
    Thread waiter([&] {
      bool sawReady = false;
      {
        MutexLock lock(mu);
        sawReady = ready;
      }
      if (!sawReady) {  // BUG: decision made outside the wait's critical section
        MutexLock lock(mu);
        cv.wait(lock);
      }
    });
    {
      MutexLock lock(mu);
      ready = true;
    }
    cv.notify_one();
    waiter.join();
  };
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 5000;
  const ExploreResult result = explore(body, opts);
  ASSERT_TRUE(result.failed);
  EXPECT_NE(result.failure.find("deadlock"), std::string::npos) << result.failure;
}

// ---------------------------------------------------------------------------
// Subsystems under exploration.

Bytes bytesOf(const std::string& s) {
  return Bytes(reinterpret_cast<const u8*>(s.data()),
               reinterpret_cast<const u8*>(s.data()) + s.size());
}

TEST(ModelCheckShuffleTest, PublishFetchTeardownExhaustive) {
  // Two concurrent publishers race one fetching consumer; every schedule
  // must deliver both segments exactly once, then signal end-of-stream. The
  // server is then destroyed with a third, unfetched publish still queued —
  // the teardown drain path — under every interleaving DFS can reach.
  auto body = [] {
    hadoop::ShuffleServer server(/*numMaps=*/3, /*numReducers=*/1);
    Thread p0([&server] { server.publish(0, {bytesOf("alpha")}); });
    Thread p1([&server] { server.publish(1, {bytesOf("beta")}); });
    std::multiset<std::string> got;
    for (int i = 0; i < 2; ++i) {
      std::optional<hadoop::ShuffleServer::Fetched> f = server.fetch(0);
      if (!f.has_value()) throw std::logic_error("premature end of stream");
      got.insert(std::string(f->segment.begin(), f->segment.end()));
    }
    p0.join();
    p1.join();
    if (got != std::multiset<std::string>{"alpha", "beta"}) {
      throw std::logic_error("fetch lost or duplicated a segment");
    }
    // Map 2 publishes but is never fetched: ~ShuffleServer must drain it.
    server.publish(2, {bytesOf("gamma")});
  };
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 4000;
  const ExploreResult result = explore(body, opts);
  EXPECT_FALSE(result.failed) << result.failure;
  EXPECT_GT(result.schedules_run, 1);
}

TEST(ModelCheckShuffleTest, AbortWakesBlockedFetcher) {
  // A fetcher parked on an empty queue races abort(); every schedule must
  // end with the fetcher thrown out (or observing the abort on entry) —
  // never a hang, never a silent nullopt.
  auto body = [] {
    hadoop::ShuffleServer server(/*numMaps=*/1, /*numReducers=*/1);
    bool threw = false;
    Thread fetcher([&server, &threw] {
      try {
        (void)server.fetch(0);
      } catch (const std::runtime_error&) {
        threw = true;
      }
    });
    server.abort();
    fetcher.join();
    if (!threw) throw std::logic_error("aborted fetch did not throw");
  };
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 2000;
  const ExploreResult result = explore(body, opts);
  EXPECT_FALSE(result.failed) << result.failure;
}

TEST(ModelCheckThreadPoolTest, AwaitRunsEachTaskOnceExhaustive) {
  // A one-worker pool and two tasks: the main thread awaits the second
  // through await(), running queued tasks itself, while the worker may take
  // the first (or both, or neither). Every schedule must run each task
  // exactly once, hand back both results, and tear the pool down.
  auto body = [] {
    std::atomic<int> runs[2] = {0, 0};
    {
      ThreadPool pool(1);
      auto first = pool.submitTask([&runs] { return ++runs[0] * 10 + 1; });
      auto second = pool.submitTask([&runs] { return ++runs[1] * 10 + 2; });
      if (pool.await(second) != 12) throw std::logic_error("await returned a wrong result");
      if (awaitFuture(first) != 11) throw std::logic_error("first task returned a wrong result");
    }
    if (runs[0] != 1 || runs[1] != 1) throw std::logic_error("a task ran other than once");
  };
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 100000;  // the whole space is 47,554 schedules
  const ExploreResult result = explore(body, opts);
  EXPECT_FALSE(result.failed) << result.failure;
  EXPECT_TRUE(result.exhausted) << "space not exhausted in " << result.schedules_run
                                << " schedules";
  EXPECT_GT(result.schedules_run, 1);
}

/// Parks the calling thread in a timed wait. Under model check a timed wait
/// ends only once no thread can run, so every parked thread, the sampler's
/// tick wait included, wakes at the same point and the schedule then
/// interleaves them.
void parkUntilNothingRuns() {
  Mutex mu;  // test-local: unranked
  CondVar cv;
  MutexLock lock(mu);
  cv.wait_for(lock, std::chrono::milliseconds(1));
}

TEST(ModelCheckObsTest, SamplerStopRacesGaugeRegistration) {
  // 500 seeded PCT schedules of sampler teardown: a 1 ms sampler tick,
  // stop() (join, then the final sample) and another Thread dropping a
  // gauge registration all wake together, so stop() can begin while a tick
  // is sampling the registry and the registry can change under either.
  // start() and stop() each owe a sample, and once stop() returns no sample
  // may land.
  auto body = [] {
    obs::GaugeRegistry registry;
    obs::GaugeRegistration base = registry.add("test.base", [] { return u64{1}; });
    obs::Sampler sampler(/*intervalMs=*/1, registry, /*recorder=*/nullptr, /*stream=*/nullptr);
    sampler.start();
    Thread churn([&registry] {
      obs::GaugeRegistration transient = registry.add("test.churn", [] { return u64{2}; });
      parkUntilNothingRuns();
    });
    parkUntilNothingRuns();
    sampler.stop();
    const u64 samples = sampler.sampleCount();
    churn.join();
    if (samples < 2) throw std::logic_error("start() and stop() each owe a sample");
    if (sampler.sampleCount() != samples) throw std::logic_error("sampled after stop()");
  };
  ExploreOptions opts;
  opts.max_schedules = 500;
  opts.seed = 4321;
  const ExploreResult result = explore(body, opts);
  EXPECT_FALSE(result.failed) << "seed " << result.failing_seed << ": " << result.failure;
  EXPECT_EQ(result.schedules_run, 500);
}

}  // namespace
}  // namespace scishuffle

#endif  // SCISHUFFLE_MODEL_CHECK
