// Job-service scheduler tests (ctest label: tsan): lifecycle against the
// standalone runtime, the priority-then-FIFO admission order as a seeded
// property, graceful shutdown with jobs in flight, queue-full rejection, the
// socket front-end round trip (and its survival of abandoned and malformed
// requests), a job cancelled mid-shuffle reaching a terminal state, and the
// memory governor's control law.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "hadoop/runtime.h"
#include "hadoop/shuffle.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "proptest.h"
#include "service/governor.h"
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

// A client that sends `wait` and disconnects before the job ends: the reply
// then goes to a closed peer, which must cost that connection only. (A write
// without MSG_NOSIGNAL raises SIGPIPE there and kills the whole server.)
TEST(JobServiceTest, AbandonedWaitLeavesTheServerUp) {
  TempDir dir("svc_abandon");
  ServiceConfig config;
  config.max_concurrent_jobs = 1;
  JobService service(config);
  Gate gate;
  std::atomic<bool> started{false};
  const SpecBuilder builder = [&gate, &started](const std::vector<std::string>&, JobSpec& spec,
                                                std::string&) {
    spec = plugSpec(&gate, &started);
    return true;
  };
  ServiceEndpoint endpoint(service, dir.file("svc.sock"), builder);

  const std::string submitted =
      ServiceEndpoint::request(endpoint.socketPath(), "submit normal plug");
  ASSERT_EQ(submitted.rfind("ok id=", 0), 0u) << submitted;
  const std::string id = submitted.substr(6);
  awaitTrue(started);
  {
    net::Connection abandoned = net::connectUnix(endpoint.socketPath());
    abandoned.sendFrame(net::ServiceRequestMsg{"wait " + id}.encode());
  }  // closed while the job is still parked on the gate
  gate.release();
  EXPECT_EQ(service.wait(std::stoull(id)).state, JobState::kDone);

  const std::string listing = ServiceEndpoint::request(endpoint.socketPath(), "list");
  EXPECT_NE(listing.find(id + " done"), std::string::npos) << listing;
  EXPECT_EQ(ServiceEndpoint::request(endpoint.socketPath(), "shutdown"), "ok");
  endpoint.waitUntilShutdownRequested();
  endpoint.stop();  // joins the abandoned connection: its reply write is behind us
  service.shutdown();
}

/// Writes `wire` verbatim to the endpoint on a fresh connection, then
/// half-closes it (the client sends nothing more). True when the endpoint
/// answered with a frame before closing the connection.
bool endpointAnswers(const std::filesystem::path& socketPath, const Bytes& wire) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  net::Connection conn(fd);  // owns the descriptor from here on
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socketPath.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) != static_cast<ssize_t>(wire.size()) ||
      ::shutdown(fd, SHUT_WR) != 0) {
    throw IoError("cannot deliver raw bytes to " + socketPath.string());
  }
  net::Frame reply;
  return conn.recvFrame(reply);
}

TEST(JobServiceTest, MalformedRequestFrameIsDropped) {
  TempDir dir("svc_malformed");
  JobService service(ServiceConfig{});
  ServiceEndpoint endpoint(service, dir.file("svc.sock"),
                           [](const std::vector<std::string>&, JobSpec&, std::string& error) {
                             error = "no specs here";
                             return false;
                           });
  const std::filesystem::path& path = endpoint.socketPath();

  const Bytes valid = net::encodeFrame(net::ServiceRequestMsg{"status 1"}.encode());
  Bytes flipped = valid;
  // "status" -> "rtatus": a request that would still parse, so only the
  // frame CRC can refuse it.
  flipped[net::kFrameHeaderBytes + 1] ^= 0x01;
  const Bytes truncated(valid.begin(), valid.end() - 1);
  EXPECT_TRUE(endpointAnswers(path, valid));
  EXPECT_FALSE(endpointAnswers(path, net::encodeFrame(net::HelloMsg{}.encode())))
      << "wrong frame type";
  EXPECT_FALSE(endpointAnswers(path, flipped)) << "flipped payload bit";
  EXPECT_FALSE(endpointAnswers(path, truncated)) << "frame that never completes";
  EXPECT_FALSE(endpointAnswers(path, Bytes{})) << "no frame at all";

  EXPECT_EQ(ServiceEndpoint::request(path, "status 1"), "error unknown job id");
  endpoint.stop();
  service.shutdown();
}

// The governor's control law, driven through the hook its sampler calls with
// synthetic readings: no real RSS, no sampling thread.
TEST(MemoryGovernorTest, ControlLawFollowsSampledRss) {
  constexpr u64 kMiB = 1ull << 20;
  MemoryGovernor::Config cfg;
  cfg.budget_bytes = 100 * kMiB;  // soft watermark 0.8: throttles above 80 MiB
  cfg.job_reserve_bytes = 10 * kMiB;
  cfg.min_pending_limit_bytes = 1;
  obs::GaugeRegistry registry;
  MemoryGovernor governor(cfg, &registry, /*stream=*/nullptr);
  int wakes = 0;
  governor.setWakeCallback([&wakes] { ++wakes; });
  const auto sample = [&governor](u64 rss) {
    governor.onSample({{obs::gauge::kProcessRssBytes, rss}});
  };

  TempDir dir("governor_law");
  hadoop::ShuffleServer server(/*numMaps=*/2, /*numReducers=*/1);
  server.setOverflowDir(dir.path());
  governor.attach(server);

  // Not throttled: admissionOk(n) is exactly lastRss + reserve * (n + 1) <= budget.
  sample(60 * kMiB);
  EXPECT_TRUE(governor.admissionOk(3));  // 60 + 40 == 100 MiB
  sample(60 * kMiB + 1);
  EXPECT_FALSE(governor.admissionOk(3));  // one byte past the budget
  EXPECT_TRUE(governor.admissionOk(2));

  // Crossing the watermark throttles once; admission closes and the squeezed
  // server spills its next publish to the overflow directory.
  sample(81 * kMiB);
  sample(90 * kMiB);
  EXPECT_TRUE(governor.throttled());
  EXPECT_EQ(governor.throttleEvents(), 1u);
  EXPECT_FALSE(governor.admissionOk(0));
  server.publish(0, {toBytes("squeezed")});
  EXPECT_EQ(server.overflowSegments(), 1u);

  // Falling back below it wakes the dispatcher exactly once and reopens
  // admission; the next publish stays in memory.
  sample(70 * kMiB);
  sample(70 * kMiB);
  EXPECT_FALSE(governor.throttled());
  EXPECT_EQ(wakes, 1);
  EXPECT_TRUE(governor.admissionOk(0));
  server.publish(1, {toBytes("resident")});
  EXPECT_EQ(server.overflowSegments(), 1u);
  EXPECT_EQ(server.pendingBytes(), toBytes("resident").size());

  EXPECT_EQ(governor.lastRssBytes(), 70 * kMiB);
  EXPECT_EQ(governor.peakRssBytes(), 90 * kMiB);
  governor.detach(server);

  // At interval 0 its sampler would never sample: rejected up front.
  cfg.interval_ms = 0;
  EXPECT_THROW({ MemoryGovernor rejected(cfg, &registry, /*stream=*/nullptr); }, std::logic_error);
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
