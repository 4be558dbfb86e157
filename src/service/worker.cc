#include "service/worker.h"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "compress/codec.h"
#include "io/annotations.h"
#include "io/thread_pool.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/session.h"
#include "service/workload.h"

namespace scishuffle::service {

namespace {

/// Materialized map outputs awaiting fetch, keyed by map index. The data
/// plane serves from here; segments stay resident until the process exits
/// (the coordinator owns eviction by shutting the worker down).
class SegmentStore {
 public:
  void put(u32 mapIndex, std::vector<Bytes> segments) {
    MutexLock lock(mu_);
    store_[mapIndex] = std::move(segments);
  }

  /// Copies the segment out (a re-fetch after a dropped connection must see
  /// the same bytes).
  bool get(u32 mapIndex, u32 reducer, Bytes& out) const {
    MutexLock lock(mu_);
    const auto it = store_.find(mapIndex);
    if (it == store_.end() || reducer >= it->second.size()) return false;
    out = it->second[reducer];
    return true;
  }

 private:
  mutable Mutex mu_{lock_rank::kSegmentStore};
  std::map<u32, std::vector<Bytes>> store_ GUARDED_BY(mu_);
};

/// Serves FetchRequest/FetchResponse exchanges on one reducer connection
/// until the peer hangs up. Transport errors just end the connection — the
/// reducer's retry policy redials.
void serveFetchConnection(net::Connection& conn, const SegmentStore& store,
                          const std::atomic<bool>& hung) {
  try {
    net::Frame frame;
    while (conn.recvFrame(frame)) {
      if (hung.load(std::memory_order_relaxed)) return;  // stalled worker: go dark
      const net::FetchRequestMsg req = net::FetchRequestMsg::decode(frame);
      Bytes segment;
      if (store.get(req.map_index, req.reducer, segment)) {
        net::FetchResponseMsg resp;
        resp.map_index = req.map_index;
        resp.reducer = req.reducer;
        resp.segment = std::move(segment);
        conn.sendFrame(resp.encode());
      } else {
        net::FetchErrorMsg err;
        err.map_index = req.map_index;
        err.reducer = req.reducer;
        err.error = "segment not materialized on this worker";
        conn.sendFrame(err.encode());
      }
    }
  } catch (const std::exception&) {
    // Peer reset / injected fault mid-exchange; the connection is done.
  }
}

/// Liveness beacon on the shared control connection. Going "hung" silences
/// it without closing the socket, so the coordinator's only signal is the
/// missing heartbeat (the timeout path, not the EOF path).
class HeartbeatThread {
 public:
  HeartbeatThread(net::Connection& control, u32 workerId, u64 intervalMs,
                  const std::atomic<bool>& hung)
      : control_(control), workerId_(workerId), intervalMs_(intervalMs), hung_(hung) {
    thread_ = std::thread([this] { loop(); });
  }

  ~HeartbeatThread() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    u64 seq = 0;
    for (;;) {
      {
        MutexLock lock(mu_);
        if (!stop_) wake_.wait_for(lock, std::chrono::milliseconds(intervalMs_));
        if (stop_) return;
      }
      if (hung_.load(std::memory_order_relaxed)) continue;
      try {
        net::HeartbeatMsg beat;
        beat.worker_id = workerId_;
        beat.seq = ++seq;
        control_.sendFrame(beat.encode());
      } catch (const std::exception&) {
        return;  // control plane gone; the main loop is exiting too
      }
    }
  }

  net::Connection& control_;
  const u32 workerId_;
  const u64 intervalMs_;
  const std::atomic<bool>& hung_;
  Mutex mu_{lock_rank::kHeartbeat};
  CondVar wake_;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace

int runWorkerMain(const WorkerOptions& options) {
  Workload workload = buildWorkload(options.workload, options.workload_args);
  const auto codec = hadoop::intermediateCodec(workload.config.intermediate_codec);

  obs::TelemetrySession telemetry(/*tracePath=*/{}, /*collectHistograms=*/false,
                                  options.metrics_path, options.sample_interval_ms,
                                  obs::TelemetrySession::Install::kGlobal);

  std::atomic<bool> hung{false};
  SegmentStore store;
  net::Server dataPlane(options.data_socket,
                        [&store, &hung](const std::shared_ptr<net::Connection>& conn) {
                          serveFetchConnection(*conn, store, hung);
                        });
  ThreadPool codecPool(hadoop::codecPoolThreads(workload.config.codec_threads));

  net::Connection control = net::connectUnix(options.control_socket);
  {
    net::HelloMsg hello;
    hello.worker_id = options.worker_id;
    hello.data_socket = options.data_socket.string();
    control.sendFrame(hello.encode());
  }
  HeartbeatThread heartbeat(control, options.worker_id, options.heartbeat_interval_ms, hung);

  i64 completed = 0;
  int exitCode = 0;
  net::Frame frame;
  for (;;) {
    try {
      if (!control.recvFrame(frame)) break;  // coordinator gone
    } catch (const std::exception&) {
      break;
    }
    if (frame.type == net::FrameType::kShutdown) break;
    if (frame.type == net::FrameType::kHeartbeat) continue;  // coordinator echo; ignore
    if (frame.type != net::FrameType::kAssign) {
      exitCode = 2;  // protocol violation; bail out loudly
      break;
    }
    const net::AssignMsg assign = net::AssignMsg::decode(frame);
    if (options.exit_after_tasks >= 0 && completed >= options.exit_after_tasks) {
      // Crash dummy: die exactly like SIGKILL would — no unwinding, no
      // goodbye on the control plane, segments lost with the process.
      std::_Exit(137);
    }
    if (options.hang_after_tasks >= 0 && completed >= options.hang_after_tasks) {
      // Stall dummy: stop heartbeating and responding but keep the process
      // and its sockets alive, so only the heartbeat timeout can catch it.
      hung.store(true, std::memory_order_relaxed);
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    check(assign.map_index < workload.map_tasks.size(), "assigned map index out of range");
    try {
      hadoop::MapTaskExecution exec =
          hadoop::executeMapTask(workload.config, codec.get(), &codecPool,
                                 workload.map_tasks[assign.map_index], assign.map_index);
      net::TaskDoneMsg done;
      done.map_index = assign.map_index;
      done.cpu_us = exec.stats.cpu_us;
      done.segment_bytes = exec.stats.segment_bytes;
      for (const auto& [name, value] : exec.counters.snapshot()) done.counters[name] = value;
      store.put(assign.map_index, std::move(exec.output.segments));
      control.sendFrame(done.encode());
    } catch (const std::exception& e) {
      net::TaskFailedMsg failed;
      failed.map_index = assign.map_index;
      failed.error = e.what();
      try {
        control.sendFrame(failed.encode());
      } catch (const std::exception&) {
        break;
      }
    }
    ++completed;
  }

  obs::JobTelemetry unused;
  telemetry.finish(unused);  // the summary line; a crash dummy's _Exit skips it
  return exitCode;
}

int workerMainFromArgs(const std::vector<std::string>& args) {
  WorkerOptions options;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      auto next = [&]() -> const std::string& {
        check(i + 1 < args.size(), "worker flag needs a value");
        return args[++i];
      };
      if (args[i] == "--control") {
        options.control_socket = next();
      } else if (args[i] == "--data") {
        options.data_socket = next();
      } else if (args[i] == "--id") {
        options.worker_id = static_cast<u32>(std::stoul(next()));
      } else if (args[i] == "--workload") {
        options.workload = next();
      } else if (args[i] == "--workload-arg") {
        options.workload_args.push_back(next());
      } else if (args[i] == "--heartbeat-ms") {
        options.heartbeat_interval_ms = std::stoull(next());
      } else if (args[i] == "--exit-after-tasks") {
        options.exit_after_tasks = std::stol(next());
      } else if (args[i] == "--hang-after-tasks") {
        options.hang_after_tasks = std::stol(next());
      } else if (args[i] == "--metrics-out") {
        options.metrics_path = next();
      } else if (args[i] == "--sample-ms") {
        options.sample_interval_ms = std::stoull(next());
      } else {
        std::cerr << "worker: unknown flag " << args[i] << "\n";
        return 2;
      }
    }
    if (options.control_socket.empty() || options.data_socket.empty()) {
      std::cerr << "worker requires --control <socket> and --data <socket>\n";
      return 2;
    }
    return runWorkerMain(options);
  } catch (const std::exception& e) {
    std::cerr << "worker failed: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace scishuffle::service
