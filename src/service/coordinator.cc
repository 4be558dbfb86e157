#include "service/coordinator.h"

#if defined(__unix__) || defined(__APPLE__)
#define SCISHUFFLE_HAVE_DISTRIBUTED 1
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <cerrno>
#endif

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compress/codec.h"
#include "hadoop/shuffle.h"
#include "io/annotations.h"
#include "io/clock.h"
#include "io/thread_pool.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics_stream.h"
#include "obs/sampler.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "service/workload.h"

namespace scishuffle::service {

#if defined(SCISHUFFLE_HAVE_DISTRIBUTED)

namespace {

using hadoop::Counters;
namespace counter = hadoop::counter;

/// Map-task lifecycle on the coordinator. kWorkerDone means the owner
/// reported success but the segments are still only in its process; only
/// kPublished (segments safely in the local ShuffleServer) survives the
/// owner's death.
enum class TaskPhase { kPending, kAssigned, kWorkerDone, kPublished };

struct TaskState {
  TaskPhase phase = TaskPhase::kPending;
  u32 owner = 0;       // valid while phase is kAssigned / kWorkerDone
  u64 generation = 0;  // bumped on requeue; stale fetch results are dropped
  u64 requeue_us = 0;  // when a death requeued this task (recovery latency)
  net::TaskDoneMsg done;
};

struct WorkerProc {
  u32 id = 0;
  pid_t pid = -1;
  std::shared_ptr<net::Connection> control;
  std::string data_socket;
  u64 last_heartbeat_us = 0;
  bool hello_seen = false;
  bool alive = true;
  bool busy = false;  // has an assigned task in flight
};

pid_t spawnProcess(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& s : argv) cargv.push_back(const_cast<char*>(s.c_str()));
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::execv(cargv[0], cargv.data());
    std::_Exit(127);
  }
  check(pid > 0, "fork() failed spawning a worker");
  return pid;
}

class Coordinator {
 public:
  Coordinator(std::string workloadName, std::vector<std::string> workloadArgs,
              const DistributedConfig& config)
      : config_(config),
        workloadName_(std::move(workloadName)),
        workloadArgs_(std::move(workloadArgs)),
        workload_(buildWorkload(workloadName_, workloadArgs_)) {}

  DistributedResult run();

 private:
  void spawnWorker(u32 id);
  void serveControl(const std::shared_ptr<net::Connection>& conn);
  void onTaskDone(u32 wid, net::TaskDoneMsg msg);
  void fetchTask(u32 m, u64 gen, u32 wid);
  void publishFetched(u32 m, u64 gen, std::vector<Bytes> segments);
  void markWorkerDead(u32 wid, const char* reason, bool kill);
  void setFatal(std::exception_ptr e);
  void schedulerLoop();
  bool findAssignmentLocked(u32& taskOut, u32& workerOut,
                            std::shared_ptr<net::Connection>& connOut) REQUIRES(mu_);
  void monitorLoop();
  void teardown();
  void reapChildren();

  const DistributedConfig& config_;
  const std::string workloadName_;
  const std::vector<std::string> workloadArgs_;
  Workload workload_;
  std::filesystem::path controlSocketPath_;

  DistributedResult result_;

  mutable Mutex mu_{lock_rank::kCoordinator};
  CondVar schedWake_;
  std::vector<TaskState> tasks_ GUARDED_BY(mu_);
  std::map<u32, WorkerProc> workers_ GUARDED_BY(mu_);
  std::size_t published_ GUARDED_BY(mu_) = 0;
  bool shuttingDown_ GUARDED_BY(mu_) = false;
  std::exception_ptr fatal_ GUARDED_BY(mu_);
  u64 recoveryLatencyUs_ GUARDED_BY(mu_) = 0;

  Mutex monMu_{lock_rank::kCoordinatorMonitor};
  CondVar monWake_;
  bool monStop_ GUARDED_BY(monMu_) = false;

  // Destruction order matters: the control server (declared last) joins its
  // handlers, which submit to fetchPool_ and abort server_; fetchPool_ then
  // joins its stale fetch tasks before server_ / codecPool_ go away.
  std::optional<ThreadPool> codecPool_;
  std::optional<hadoop::ShuffleServer> server_;
  std::optional<ThreadPool> fetchPool_;
  std::optional<net::Server> control_;

  std::thread monitorThread_;
  std::thread schedulerThread_;
};

void Coordinator::spawnWorker(u32 id) {
  const std::filesystem::path dataSocket =
      config_.work_dir / ("data-" + std::to_string(id) + ".sock");
  std::vector<std::string> argv = config_.worker_command;
  argv.insert(argv.end(), {"--control", controlSocketPath_.string(),  //
                           "--data", dataSocket.string(),             //
                           "--id", std::to_string(id),                //
                           "--workload", workloadName_});
  for (const std::string& a : workloadArgs_) {
    argv.push_back("--workload-arg");
    argv.push_back(a);
  }
  argv.push_back("--heartbeat-ms");
  argv.push_back(std::to_string(config_.heartbeat_interval_ms));
  if (!config_.worker_metrics_dir.empty()) {
    argv.push_back("--metrics-out");
    argv.push_back(
        (config_.worker_metrics_dir / ("worker-" + std::to_string(id) + ".jsonl")).string());
    argv.push_back("--sample-ms");
    argv.push_back(std::to_string(config_.sample_interval_ms));
  }
  if (id < config_.extra_worker_args.size()) {
    const auto& extra = config_.extra_worker_args[id];
    argv.insert(argv.end(), extra.begin(), extra.end());
  }
  const pid_t pid = spawnProcess(argv);
  {
    MutexLock lock(mu_);
    WorkerProc& w = workers_[id];
    w.id = id;
    w.pid = pid;
    // Never-hello'd workers (exec failure, crash at startup) fall to the
    // heartbeat timeout from their spawn time.
    w.last_heartbeat_us = steadyNowUs();
  }
  ++result_.workers_spawned;
  obs::emitEvent(obs::event::kWorkerSpawned, "coordinator", id);
}

void Coordinator::serveControl(const std::shared_ptr<net::Connection>& conn) {
  u32 wid = 0;
  bool registered = false;
  const char* reason = "control_eof";
  try {
    net::Frame frame;
    if (!conn->recvFrame(frame)) return;
    const net::HelloMsg hello = net::HelloMsg::decode(frame);
    wid = hello.worker_id;
    {
      MutexLock lock(mu_);
      const auto it = workers_.find(wid);
      if (it == workers_.end() || !it->second.alive) return;  // unknown or stale peer
      it->second.control = conn;
      it->second.data_socket = hello.data_socket;
      it->second.hello_seen = true;
      it->second.last_heartbeat_us = steadyNowUs();
      registered = true;
    }
    schedWake_.notify_all();
    for (;;) {
      if (!conn->recvFrame(frame)) break;  // worker exited (SIGKILL lands here)
      if (frame.type == net::FrameType::kHeartbeat) {
        net::HeartbeatMsg::decode(frame);  // validate before trusting liveness
        MutexLock lock(mu_);
        const auto it = workers_.find(wid);
        if (it != workers_.end()) it->second.last_heartbeat_us = steadyNowUs();
        continue;
      }
      if (frame.type == net::FrameType::kTaskDone) {
        onTaskDone(wid, net::TaskDoneMsg::decode(frame));
        continue;
      }
      if (frame.type == net::FrameType::kTaskFailed) {
        const net::TaskFailedMsg failed = net::TaskFailedMsg::decode(frame);
        setFatal(std::make_exception_ptr(std::runtime_error(
            "map task " + std::to_string(failed.map_index) + " failed permanently on worker " +
            std::to_string(wid) + ": " + failed.error)));
        continue;
      }
      reason = "protocol_violation";
      break;
    }
  } catch (const std::exception&) {
    // Transport error on the control plane: same as an EOF.
  }
  if (registered) markWorkerDead(wid, reason, /*kill=*/false);
}

void Coordinator::onTaskDone(u32 wid, net::TaskDoneMsg msg) {
  const u32 m = msg.map_index;
  u64 gen = 0;
  bool schedule = false;
  {
    MutexLock lock(mu_);
    const auto it = workers_.find(wid);
    if (it != workers_.end()) it->second.busy = false;
    if (m < tasks_.size()) {
      TaskState& t = tasks_[m];
      // A Done racing the owner's death (task already requeued) or from a
      // superseded assignment is stale: the segments may vanish any moment,
      // so only the current generation's completion counts.
      if (t.phase == TaskPhase::kAssigned && t.owner == wid) {
        t.phase = TaskPhase::kWorkerDone;
        t.done = std::move(msg);
        gen = t.generation;
        schedule = true;
      }
    }
  }
  schedWake_.notify_all();  // the now-idle worker can take the next task
  if (schedule) {
    fetchPool_->submit([this, m, gen, wid] { fetchTask(m, gen, wid); });
  }
}

void Coordinator::fetchTask(u32 m, u64 gen, u32 wid) {
  std::string dataSocket;
  {
    MutexLock lock(mu_);
    TaskState& t = tasks_[m];
    if (t.generation != gen || t.phase != TaskPhase::kWorkerDone) return;
    const auto it = workers_.find(wid);
    if (it == workers_.end() || !it->second.alive) return;
    dataSocket = it->second.data_socket;
  }
  const int reducers = workload_.config.num_reducers;
  std::vector<Bytes> segments(static_cast<std::size_t>(reducers));
  try {
    obs::ScopedSpan span("net_fetch", "shuffle");
    span.arg("map", static_cast<u64>(m));
    u64 bytes = 0;
    for (int r = 0; r < reducers; ++r) {
      // Every attempt is a fresh dial: connect, request, response. A retry
      // after a reset/stall/corrupt frame is therefore a real reconnect.
      segments[static_cast<std::size_t>(r)] = hadoop::retryWithPolicy(
          config_.transport_retry, net::site::kNetFetch,
          [&]() -> Bytes {
            net::Connection conn = net::connectUnix(dataSocket, config_.fault_injector);
            if (config_.fetch_recv_timeout_ms != 0) {
              conn.setRecvTimeout(config_.fetch_recv_timeout_ms);
            }
            net::FetchRequestMsg req;
            req.map_index = m;
            req.reducer = static_cast<u32>(r);
            conn.sendFrame(req.encode());
            net::Frame frame;
            if (!conn.recvFrame(frame)) {
              throw IoError("data connection closed before fetch response");
            }
            if (frame.type == net::FrameType::kFetchError) {
              throw IoError("fetch refused: " + net::FetchErrorMsg::decode(frame).error);
            }
            net::FetchResponseMsg resp = net::FetchResponseMsg::decode(frame);
            checkFormat(resp.map_index == m && resp.reducer == static_cast<u32>(r),
                        "fetch response for the wrong segment");
            return std::move(resp.segment);
          },
          [&](int attempt, const std::string&) {
            result_.job.counters.add(counter::kShuffleFetchRetries, 1);
            obs::emitEvent(obs::event::kShuffleFetchRetry, net::site::kNetFetch,
                           static_cast<u64>(attempt));
          });
      bytes += segments[static_cast<std::size_t>(r)].size();
    }
    span.arg("bytes", bytes);
  } catch (const std::exception&) {
    // Retry budget exhausted: the worker's data plane is unusable even
    // though its control plane may look fine. Declare it dead — the requeue
    // re-executes this task on a survivor and the fetch redirects there.
    markWorkerDead(wid, "fetch_exhausted", /*kill=*/true);
    return;
  }
  publishFetched(m, gen, std::move(segments));
}

void Coordinator::publishFetched(u32 m, u64 gen, std::vector<Bytes> segments) {
  net::TaskDoneMsg done;
  {
    MutexLock lock(mu_);
    TaskState& t = tasks_[m];
    if (t.generation != gen || t.phase != TaskPhase::kWorkerDone) return;  // stale fetch
    t.phase = TaskPhase::kPublished;
    ++published_;
    done = std::move(t.done);
    if (t.requeue_us != 0) {
      recoveryLatencyUs_ = std::max(recoveryLatencyUs_, steadyNowUs() - t.requeue_us);
    }
  }
  // Fold the owner's stats and counter deltas exactly once, here: a task
  // that ran twice because its first owner died must not double-count.
  result_.job.map_tasks[m].cpu_us = done.cpu_us;
  result_.job.map_tasks[m].segment_bytes = done.segment_bytes;
  for (const auto& [name, value] : done.counters) result_.job.counters.add(name, value);
  try {
    server_->publish(m, std::move(segments));
  } catch (...) {
    setFatal(std::current_exception());
  }
  schedWake_.notify_all();
}

void Coordinator::markWorkerDead(u32 wid, const char* reason, bool kill) {
  pid_t pid = -1;
  std::shared_ptr<net::Connection> conn;
  std::vector<u32> requeued;
  bool counted = false;
  int aliveLeft = 0;
  {
    MutexLock lock(mu_);
    const auto it = workers_.find(wid);
    if (it == workers_.end() || !it->second.alive) return;  // idempotent
    WorkerProc& w = it->second;
    w.alive = false;
    w.busy = false;
    pid = w.pid;
    conn = w.control;
    if (!shuttingDown_) {
      counted = true;
      ++result_.worker_deaths;
      result_.job.counters.add(counter::kWorkerDeathsDetected, 1);
      const u64 now = steadyNowUs();
      for (u32 m = 0; m < tasks_.size(); ++m) {
        TaskState& t = tasks_[m];
        if (t.phase != TaskPhase::kAssigned && t.phase != TaskPhase::kWorkerDone) continue;
        if (t.owner != wid) continue;
        t.phase = TaskPhase::kPending;
        ++t.generation;  // invalidates in-flight fetches of the lost copy
        t.requeue_us = now;
        ++result_.tasks_reexecuted;
        result_.job.counters.add(counter::kMapTasksReexecuted, 1);
        requeued.push_back(m);
      }
      for (const auto& [id, other] : workers_) aliveLeft += other.alive ? 1 : 0;
    }
  }
  if (counted) {
    obs::emitEvent(obs::event::kWorkerLost, reason, wid);
    for (const u32 m : requeued) obs::emitEvent(obs::event::kDistTaskReexec, reason, m);
  }
  if (kill && pid > 0) ::kill(pid, SIGKILL);
  // Shutting down our end unblocks the handler thread's recvFrame; it
  // re-enters markWorkerDead, which is now a no-op. The fd itself closes
  // when the last shared_ptr drops (close here could recycle the descriptor
  // under the still-blocked reader).
  if (conn) conn->shutdownNow();
  schedWake_.notify_all();
  if (counted && aliveLeft == 0) {
    setFatal(std::make_exception_ptr(std::runtime_error(
        "all workers lost; cannot re-execute outstanding map tasks")));
  }
}

void Coordinator::setFatal(std::exception_ptr e) {
  {
    MutexLock lock(mu_);
    if (!fatal_) fatal_ = std::move(e);
  }
  schedWake_.notify_all();
  // Wake blocked reducers; their errors land in the reduce ErrorSlot but the
  // fatal error wins at rethrow time.
  if (server_) server_->abort();
}

bool Coordinator::findAssignmentLocked(u32& taskOut, u32& workerOut,
                                       std::shared_ptr<net::Connection>& connOut) {
  for (u32 m = 0; m < tasks_.size(); ++m) {
    if (tasks_[m].phase != TaskPhase::kPending) continue;
    for (auto& [id, w] : workers_) {
      if (!w.alive || !w.hello_seen || w.busy || !w.control) continue;
      tasks_[m].phase = TaskPhase::kAssigned;
      tasks_[m].owner = id;
      w.busy = true;
      ++result_.tasks_assigned[id];
      taskOut = m;
      workerOut = id;
      connOut = w.control;
      return true;
    }
    return false;  // pending work but every live worker is busy: wait
  }
  return false;
}

void Coordinator::schedulerLoop() {
  for (;;) {
    u32 taskIdx = 0;
    u32 workerId = 0;
    std::shared_ptr<net::Connection> conn;
    {
      MutexLock lock(mu_);
      for (;;) {
        if (fatal_ || published_ == tasks_.size()) return;
        if (findAssignmentLocked(taskIdx, workerId, conn)) break;
        schedWake_.wait(lock);
      }
    }
    net::AssignMsg assign;
    assign.map_index = taskIdx;
    try {
      conn->sendFrame(assign.encode());
    } catch (const std::exception&) {
      // The send failure is itself the death signal; the requeue puts the
      // task we just assigned back on the pending list.
      markWorkerDead(workerId, "assign_send_failed", /*kill=*/true);
    }
  }
}

void Coordinator::monitorLoop() {
  const u64 intervalMs = std::max<u64>(config_.heartbeat_interval_ms, 5);
  for (;;) {
    {
      MutexLock lock(monMu_);
      if (!monStop_) monWake_.wait_for(lock, std::chrono::milliseconds(intervalMs));
      if (monStop_) return;
    }
    const u64 now = steadyNowUs();
    std::vector<u32> timedOut;
    {
      MutexLock lock(mu_);
      if (shuttingDown_) continue;
      for (auto& [id, w] : workers_) {
        if (!w.alive) {
          // Reap SIGKILLed children as they exit so they never linger as
          // zombies across a long job.
          if (w.pid > 0) {
            int status = 0;
            const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
            if (r == w.pid || (r < 0 && errno == ECHILD)) w.pid = -1;
          }
          continue;
        }
        // A heartbeat can land between reading `now` and taking mu_, putting
        // last_heartbeat_us *ahead* of now — that worker is maximally alive,
        // not wrapped-around-u64 dead.
        if (w.last_heartbeat_us < now &&
            now - w.last_heartbeat_us > config_.heartbeat_timeout_ms * 1000) {
          timedOut.push_back(id);
        }
      }
    }
    // A hung worker never EOFs its control socket — this timeout is the only
    // way it gets caught.
    for (const u32 id : timedOut) markWorkerDead(id, "heartbeat_timeout", /*kill=*/true);
  }
}

void Coordinator::reapChildren() {
  std::vector<std::pair<u32, pid_t>> pids;
  {
    MutexLock lock(mu_);
    for (const auto& [id, w] : workers_) {
      if (w.pid > 0) pids.emplace_back(id, w.pid);
    }
  }
  for (const auto& [id, pid] : pids) {
    int status = 0;
    bool reaped = false;
    // Grace window for a clean exit after the Shutdown frame, then SIGKILL —
    // a hung worker sleeps forever and only dies this way.
    for (int i = 0; i < 100 && !reaped; ++i) {
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid || (r < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!reaped) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
    }
    MutexLock lock(mu_);
    workers_[id].pid = -1;
  }
}

void Coordinator::teardown() {
  std::vector<std::shared_ptr<net::Connection>> conns;
  {
    MutexLock lock(mu_);
    shuttingDown_ = true;
    for (const auto& [id, w] : workers_) {
      if (w.control) conns.push_back(w.control);
    }
  }
  for (const auto& c : conns) {
    try {
      c->sendFrame(net::shutdownFrame());
    } catch (const std::exception&) {
      // Peer already gone; the reap below handles it.
    }
  }
  // The Shutdown frames are already queued at the workers. stop() shuts the
  // read side of every control connection, which wakes each handler parked
  // in recvFrame (one on a hung worker too), and joins them.
  control_->stop();
  {
    MutexLock lock(monMu_);
    monStop_ = true;
  }
  monWake_.notify_all();
  if (monitorThread_.joinable()) monitorThread_.join();
  reapChildren();
}

DistributedResult Coordinator::run() {
  check(!config_.worker_command.empty(), "distributed run needs a worker command");
  check(config_.num_workers >= 1, "need at least one worker");
  check(!config_.work_dir.empty(), "distributed run needs a work directory");
  std::filesystem::create_directories(config_.work_dir);
  if (!config_.worker_metrics_dir.empty()) {
    std::filesystem::create_directories(config_.worker_metrics_dir);
  }
  controlSocketPath_ = config_.work_dir / "coord.sock";

  const std::size_t numTasks = workload_.map_tasks.size();
  const int numReducers = workload_.config.num_reducers;
  check(numTasks > 0, "workload has no map tasks");
  result_.job.map_tasks.resize(numTasks);
  result_.job.reduce_tasks.resize(static_cast<std::size_t>(numReducers));
  result_.job.outputs.resize(static_cast<std::size_t>(numReducers));
  {
    MutexLock lock(mu_);
    tasks_.resize(numTasks);
    result_.tasks_assigned.assign(static_cast<std::size_t>(config_.num_workers), 0);
  }

  obs::GaugeRegistration aliveGauge =
      obs::processGauges().add(obs::gauge::kDistWorkersAlive, [this] {
        MutexLock lock(mu_);
        u64 n = 0;
        for (const auto& [id, w] : workers_) n += w.alive ? 1 : 0;
        return n;
      });
  obs::GaugeRegistration pendingGauge =
      obs::processGauges().add(obs::gauge::kDistTasksPending, [this] {
        MutexLock lock(mu_);
        u64 n = 0;
        for (const TaskState& t : tasks_) n += t.phase != TaskPhase::kPublished ? 1 : 0;
        return n;
      });
  // After the dist.* gauges: the first and last samples see them.
  obs::TelemetrySession telemetry(/*tracePath=*/{}, /*collectHistograms=*/false,
                                  config_.metrics_path, config_.sample_interval_ms,
                                  obs::TelemetrySession::Install::kGlobal);

  const auto codec = hadoop::intermediateCodec(workload_.config.intermediate_codec);
  codecPool_.emplace(hadoop::codecPoolThreads(workload_.config.codec_threads));
  server_.emplace(numTasks, numReducers);
  fetchPool_.emplace(std::max(2, config_.num_workers));
  control_.emplace(controlSocketPath_,
                   [this](const std::shared_ptr<net::Connection>& conn) { serveControl(conn); });

  for (int i = 0; i < config_.num_workers; ++i) spawnWorker(static_cast<u32>(i));

  const u64 jobStart = steadyNowUs();
  hadoop::ErrorSlot reduceErrors;
  Mutex outputsMutex{lock_rank::kJobOutputs};
  u64 mapEnd = 0;
  u64 jobEnd = 0;
  try {
    monitorThread_ = std::thread([this] { monitorLoop(); });
    schedulerThread_ = std::thread([this] { schedulerLoop(); });

    // Reduce side runs in-process against the local ShuffleServer the fetch
    // pump fills — the same routine the in-process runtime's reducers run.
    ThreadPool reducePool(workload_.config.reduce_slots);
    for (int r = 0; r < numReducers; ++r) {
      reducePool.submit([&, r] {
        hadoop::fetchAndReduce(workload_.config, codec.get(), &*codecPool_, workload_.reduce,
                               *server_, numTasks, r, result_.job, outputsMutex, reduceErrors);
      });
    }

    schedulerThread_.join();
    mapEnd = steadyNowUs();
    bool fatalNow = false;
    {
      MutexLock lock(mu_);
      fatalNow = static_cast<bool>(fatal_);
    }
    if (fatalNow) server_->abort();  // unblock reducers waiting on lost publishes
    fetchPool_->wait();
    reducePool.wait();
    jobEnd = steadyNowUs();
  } catch (...) {
    teardown();
    throw;
  }
  teardown();

  {
    MutexLock lock(mu_);
    if (fatal_) std::rethrow_exception(fatal_);
  }
  reduceErrors.rethrowIfSet();
  hadoop::foldJobEnd(*server_, jobStart, mapEnd, jobEnd, result_.job);

  telemetry.finish(result_.job.telemetry);
  result_.job.telemetry.counters = result_.job.counters.snapshot();
  {
    MutexLock lock(mu_);
    result_.recovery_latency_us = recoveryLatencyUs_;
  }
  return std::move(result_);
}

}  // namespace

DistributedResult runDistributedJob(const std::string& workloadName,
                                    const std::vector<std::string>& workloadArgs,
                                    const DistributedConfig& config) {
  Coordinator coordinator(workloadName, workloadArgs, config);
  return coordinator.run();
}

#else  // !SCISHUFFLE_HAVE_DISTRIBUTED

DistributedResult runDistributedJob(const std::string&, const std::vector<std::string>&,
                                    const DistributedConfig&) {
  throw IoError("distributed runs need POSIX fork/exec and UNIX sockets");
}

#endif

}  // namespace scishuffle::service
