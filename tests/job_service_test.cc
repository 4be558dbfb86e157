// Job-service scheduler tests (ctest label: tsan): lifecycle against the
// standalone runtime, the priority-then-FIFO admission order as a seeded
// property, graceful shutdown with jobs in flight, queue-full rejection, the
// socket front-end round trip, and a job cancelled mid-shuffle reaching a
// terminal state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "hadoop/runtime.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "proptest.h"
#include "service/job_service.h"
#include "service/service_socket.h"
#include "testing_support.h"

namespace scishuffle::service {
namespace {

using scishuffle::testing::TempDir;

Bytes toBytes(const std::string& s) {
  return Bytes(reinterpret_cast<const u8*>(s.data()),
               reinterpret_cast<const u8*>(s.data()) + s.size());
}

Bytes encodeI64(i64 v) {
  Bytes out;
  MemorySink sink(out);
  writeI64(sink, v);
  return out;
}

i64 decodeI64(const Bytes& b) {
  MemorySource src(b);
  return readI64(src);
}

const hadoop::ReduceFn kSumReduce = [](const Bytes& key, std::vector<Bytes>& values,
                                       const hadoop::EmitFn& emit) {
  i64 sum = 0;
  for (const auto& v : values) sum += decodeI64(v);
  emit(key, encodeI64(sum));
};

/// The canonical word-count workload; closures capture everything by value so
/// the spec outlives the scope that built it (the service contract).
JobSpec wordcountSpec(const std::string& name, int maps, int words,
                      const std::string& codec = "gzipish") {
  JobSpec spec;
  spec.name = name;
  spec.config.num_reducers = 3;
  spec.config.intermediate_codec = codec;
  const std::vector<std::string> vocab = {"the", "windspeed", "grid", "key",
                                          "map", "reduce",    "sci", "curve"};
  for (int m = 0; m < maps; ++m) {
    spec.map_tasks.push_back(hadoop::MapTask{[m, words, vocab](const hadoop::EmitFn& emit) {
      for (int i = 0; i < words; ++i) {
        emit(toBytes(vocab[static_cast<std::size_t>((i * 7 + m) % 8)]), encodeI64(1));
      }
    }});
  }
  spec.reduce = kSumReduce;
  return spec;
}

/// A shared barrier the plug jobs block on: holds the single runner slot
/// open while the test stacks up the admission queue.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
  }
};

/// A job whose single map task parks on `gate` (after flagging `started`)
/// until the test releases it.
JobSpec plugSpec(Gate* gate, std::atomic<bool>* started) {
  JobSpec spec;
  spec.name = "plug";
  spec.priority = Priority::kInteractive;
  spec.config.intermediate_codec = "null";
  spec.map_tasks.push_back(hadoop::MapTask{[gate, started](const hadoop::EmitFn& emit) {
    started->store(true);
    gate->wait();
    emit(toBytes("plug"), encodeI64(1));
  }});
  spec.reduce = kSumReduce;
  return spec;
}

void awaitTrue(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::yield();
}

TEST(JobServiceTest, LifecycleMatchesStandaloneRuntime) {
  const JobSpec reference = wordcountSpec("ref", 4, 300);
  const hadoop::JobResult baseline =
      hadoop::runJob(reference.config, reference.map_tasks, reference.reduce);

  ServiceConfig config;
  config.max_concurrent_jobs = 2;
  JobService service(config);
  const SubmitResult r = service.submit(wordcountSpec("svc", 4, 300));
  ASSERT_TRUE(r.accepted);

  const hadoop::JobResult result = service.takeResult(r.id);
  EXPECT_EQ(result.outputs, baseline.outputs);

  const JobStatus status = service.wait(r.id);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_GE(status.start_us, status.submit_us);
  EXPECT_GE(status.finish_us, status.start_us);
  // The result moves out exactly once.
  EXPECT_THROW(service.takeResult(r.id), std::exception);
  service.shutdown();
}

TEST(JobServiceTest, RunOneJobConvenienceMatchesRuntime) {
  const JobSpec reference = wordcountSpec("one", 3, 200);
  const hadoop::JobResult baseline =
      hadoop::runJob(reference.config, reference.map_tasks, reference.reduce);
  const hadoop::JobResult result = runOneJob(wordcountSpec("one", 3, 200));
  EXPECT_EQ(result.outputs, baseline.outputs);
}

// The admission-order property: with one runner slot held open by a plug
// job, a randomized batch of queued jobs must execute in priority class
// order, FIFO within each class. Seeded via SCISHUFFLE_PROP_SEED.
TEST(JobServiceTest, AdmissionOrderIsPriorityThenFifo) {
  const u64 seed = scishuffle::testing::propertySeed();
  const auto gen = [](std::mt19937_64& rng) {
    std::vector<int> priorities(2 + rng() % 9);
    for (auto& p : priorities) p = static_cast<int>(rng() % 3);
    return priorities;
  };
  const auto prop = [](const std::vector<int>& priorities) {
    ServiceConfig config;
    config.max_concurrent_jobs = 1;
    config.queue_capacity = priorities.size() + 1;
    JobService service(config);

    Gate gate;
    std::atomic<bool> plugStarted{false};
    const SubmitResult plug = service.submit(plugSpec(&gate, &plugStarted));
    if (!plug.accepted) return false;
    awaitTrue(plugStarted);  // the plug owns the only slot; all else queues

    std::mutex orderMu;
    std::vector<int> order;
    std::vector<u64> ids;
    for (std::size_t i = 0; i < priorities.size(); ++i) {
      JobSpec spec;
      spec.name = "job" + std::to_string(i);
      spec.priority = static_cast<Priority>(priorities[i]);
      spec.config.intermediate_codec = "null";
      const int index = static_cast<int>(i);
      spec.map_tasks.push_back(
          hadoop::MapTask{[index, &orderMu, &order](const hadoop::EmitFn& emit) {
            {
              std::lock_guard<std::mutex> lock(orderMu);
              order.push_back(index);
            }
            emit(toBytes("k"), encodeI64(1));
          }});
      spec.reduce = kSumReduce;
      const SubmitResult r = service.submit(std::move(spec));
      if (!r.accepted) return false;
      ids.push_back(r.id);
    }

    gate.release();
    for (const u64 id : ids) {
      if (service.wait(id).state != JobState::kDone) return false;
    }
    service.shutdown();

    // Expected: stable sort of submission order by priority class.
    std::vector<int> expected(priorities.size());
    std::iota(expected.begin(), expected.end(), 0);
    std::stable_sort(expected.begin(), expected.end(), [&](int a, int b) {
      return priorities[static_cast<std::size_t>(a)] < priorities[static_cast<std::size_t>(b)];
    });
    std::lock_guard<std::mutex> lock(orderMu);
    return order == expected;
  };
  scishuffle::testing::forAll("priority-then-fifo admission", seed, 10, gen, prop);
}

TEST(JobServiceTest, ConcurrencyNeverExceedsRunnerSlots) {
  ServiceConfig config;
  config.max_concurrent_jobs = 2;
  config.queue_capacity = 16;
  JobService service(config);

  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  std::vector<u64> ids;
  for (int i = 0; i < 8; ++i) {
    JobSpec spec;
    spec.name = "load" + std::to_string(i);
    spec.config.intermediate_codec = "null";
    spec.map_tasks.push_back(hadoop::MapTask{[&active, &peak](const hadoop::EmitFn& emit) {
      const int now = active.fetch_add(1) + 1;
      int seen = peak.load();
      while (seen < now && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      active.fetch_sub(1);
      emit(toBytes("k"), encodeI64(1));
    }});
    spec.reduce = kSumReduce;
    const SubmitResult r = service.submit(std::move(spec));
    ASSERT_TRUE(r.accepted);
    ids.push_back(r.id);
  }
  for (const u64 id : ids) EXPECT_EQ(service.wait(id).state, JobState::kDone);
  EXPECT_LE(peak.load(), 2);
  service.shutdown();
}

TEST(JobServiceTest, GracefulShutdownDrainsJobsInFlight) {
  ServiceConfig config;
  config.max_concurrent_jobs = 2;
  JobService service(config);
  std::vector<u64> ids;
  for (int i = 0; i < 6; ++i) {
    const SubmitResult r = service.submit(wordcountSpec("drain" + std::to_string(i), 2, 120));
    ASSERT_TRUE(r.accepted);
    ids.push_back(r.id);
  }
  // Shutdown with most of those jobs still queued or running: drain mode
  // must complete every one of them before returning.
  service.shutdown(JobService::Shutdown::kDrainQueued);
  for (const u64 id : ids) {
    EXPECT_EQ(service.wait(id).state, JobState::kDone) << "job " << id;
  }
  // Post-shutdown submissions are rejected, not lost.
  const SubmitResult late = service.submit(wordcountSpec("late", 1, 10));
  EXPECT_FALSE(late.accepted);
  const auto status = service.status(late.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kRejected);
}

TEST(JobServiceTest, ShutdownCancelQueuedCancelsTheQueue) {
  ServiceConfig config;
  config.max_concurrent_jobs = 1;
  JobService service(config);

  Gate gate;
  std::atomic<bool> plugStarted{false};
  const SubmitResult plug = service.submit(plugSpec(&gate, &plugStarted));
  ASSERT_TRUE(plug.accepted);
  awaitTrue(plugStarted);

  const SubmitResult queued = service.submit(wordcountSpec("queued", 2, 50));
  ASSERT_TRUE(queued.accepted);

  gate.release();
  service.shutdown(JobService::Shutdown::kCancelQueued);
  EXPECT_EQ(service.wait(plug.id).state, JobState::kDone);
  const JobStatus status = service.wait(queued.id);
  // Either the dispatcher beat the shutdown to it (done) or it was cancelled
  // in the queue; it must not be left hanging.
  EXPECT_TRUE(status.state == JobState::kCancelled || status.state == JobState::kDone);
}

TEST(JobServiceTest, QueueFullRejectsWithReason) {
  ServiceConfig config;
  config.max_concurrent_jobs = 1;
  config.queue_capacity = 2;
  JobService service(config);

  Gate gate;
  std::atomic<bool> plugStarted{false};
  const SubmitResult plug = service.submit(plugSpec(&gate, &plugStarted));
  ASSERT_TRUE(plug.accepted);
  awaitTrue(plugStarted);

  const SubmitResult a = service.submit(wordcountSpec("a", 1, 10));
  const SubmitResult b = service.submit(wordcountSpec("b", 1, 10));
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);
  EXPECT_EQ(service.queuedJobs(), 2u);

  const SubmitResult overflow = service.submit(wordcountSpec("overflow", 1, 10));
  EXPECT_FALSE(overflow.accepted);
  const auto status = service.status(overflow.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kRejected);
  EXPECT_NE(status->error.find("queue full"), std::string::npos) << status->error;
  EXPECT_THROW(service.takeResult(overflow.id), std::runtime_error);

  gate.release();
  service.shutdown(JobService::Shutdown::kDrainQueued);
  EXPECT_EQ(service.wait(a.id).state, JobState::kDone);
  EXPECT_EQ(service.wait(b.id).state, JobState::kDone);
}

// A job cancelled with segments pending in the shuffle reaches a terminal
// state and yields no result (the shuffle drains on abort; LeakSanitizer
// builds check that its buffers are freed).
TEST(JobServiceTest, CancelMidShuffleReachesTerminalState) {
  ServiceConfig config;
  config.max_concurrent_jobs = 1;
  JobService service(config);

  Gate gate;
  std::atomic<bool> started{false};
  JobSpec spec;
  spec.name = "cancelme";
  spec.config.intermediate_codec = "gzipish";
  spec.config.num_reducers = 2;
  // Map 0 publishes a real segment immediately; map 1 parks so the job is
  // mid-shuffle (bytes pending in the server) when the cancel lands.
  spec.map_tasks.push_back(hadoop::MapTask{[](const hadoop::EmitFn& emit) {
    for (int i = 0; i < 400; ++i) emit(toBytes("word" + std::to_string(i % 7)), encodeI64(1));
  }});
  spec.map_tasks.push_back(hadoop::MapTask{[&gate, &started](const hadoop::EmitFn& emit) {
    started.store(true);
    gate.wait();
    emit(toBytes("late"), encodeI64(1));
  }});
  spec.config.map_slots = 2;
  spec.reduce = kSumReduce;

  const SubmitResult r = service.submit(std::move(spec));
  ASSERT_TRUE(r.accepted);
  awaitTrue(started);
  EXPECT_TRUE(service.cancel(r.id));
  gate.release();

  const JobStatus status = service.wait(r.id);
  EXPECT_TRUE(status.state == JobState::kCancelled || status.state == JobState::kDone)
      << jobStateName(status.state);
  EXPECT_THROW(service.takeResult(r.id), std::exception);
  service.shutdown();
}

// Governor-driven backpressure end to end: a pending-bytes limit of one byte
// forces every publish through the spill-to-disk overflow path, and the
// output must still match an unconstrained run bit for bit.
TEST(JobServiceTest, OverflowSpillPreservesOutput) {
  const JobSpec reference = wordcountSpec("ovf", 4, 400);
  const hadoop::JobResult baseline =
      hadoop::runJob(reference.config, reference.map_tasks, reference.reduce);

  TempDir dir("svc_overflow");
  ServiceConfig config;
  config.max_concurrent_jobs = 1;
  config.overflow_dir = dir.path();
  config.shuffle_pending_limit_bytes = 1;
  JobService service(config);
  const SubmitResult r = service.submit(wordcountSpec("ovf", 4, 400));
  ASSERT_TRUE(r.accepted);
  const hadoop::JobResult result = service.takeResult(r.id);
  EXPECT_EQ(result.outputs, baseline.outputs);
  EXPECT_GT(result.counters.get(hadoop::counter::kShuffleSegmentsOverflowed), 0u);
  service.shutdown();
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));  // spill files cleaned up
}

TEST(JobServiceTest, SocketFrontEndRoundTrip) {
  TempDir dir("svc_sock");
  ServiceConfig config;
  config.max_concurrent_jobs = 2;
  JobService service(config);

  const SpecBuilder builder = [](const std::vector<std::string>& args, JobSpec& spec,
                                 std::string& error) {
    if (args.size() != 2 || args[0] != "wc") {
      error = "usage: wc <maps>";
      return false;
    }
    // Fill, don't overwrite: the endpoint already parsed the priority in.
    const Priority priority = spec.priority;
    spec = wordcountSpec("wc", std::stoi(args[1]), 100);
    spec.priority = priority;
    return true;
  };
  ServiceEndpoint endpoint(service, dir.file("svc.sock"), builder);

  const std::string submitted =
      ServiceEndpoint::request(endpoint.socketPath(), "submit interactive wc 3");
  ASSERT_EQ(submitted.rfind("ok id=", 0), 0u) << submitted;
  const std::string id = submitted.substr(6);

  const std::string finalLine = ServiceEndpoint::request(endpoint.socketPath(), "wait " + id);
  EXPECT_NE(finalLine.find(" done "), std::string::npos) << finalLine;
  EXPECT_NE(finalLine.find("interactive"), std::string::npos) << finalLine;

  const std::string listing = ServiceEndpoint::request(endpoint.socketPath(), "list");
  EXPECT_NE(listing.find("wc"), std::string::npos);
  EXPECT_NE(listing.find("end"), std::string::npos);

  EXPECT_EQ(ServiceEndpoint::request(endpoint.socketPath(), "submit normal bogus"),
            "error usage: wc <maps>");
  EXPECT_NE(ServiceEndpoint::request(endpoint.socketPath(), "cancel 4242"), "ok");
  EXPECT_EQ(ServiceEndpoint::request(endpoint.socketPath(), "shutdown"), "ok");
  endpoint.waitUntilShutdownRequested();
  endpoint.stop();
  service.shutdown();
}

TEST(JobServiceTest, PriorityNamesRoundTrip) {
  EXPECT_EQ(parsePriority("interactive"), Priority::kInteractive);
  EXPECT_EQ(parsePriority("normal"), Priority::kNormal);
  EXPECT_EQ(parsePriority("batch"), Priority::kBatch);
  EXPECT_THROW(parsePriority("bogus"), std::invalid_argument);
  EXPECT_STREQ(priorityName(Priority::kBatch), "batch");
  EXPECT_STREQ(jobStateName(JobState::kCancelled), "cancelled");
}

}  // namespace
}  // namespace scishuffle::service
