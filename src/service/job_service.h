// Long-running job service: a scheduler that owns the shared infrastructure
// (codec thread pool, memory governor, service-level metrics stream) and runs
// many MapReduce jobs concurrently against it — the multi-tenant layer the
// single-job runtime never had.
//
//   submit(JobSpec) --> bounded admission queue (priority class, then FIFO)
//        |                                  queue full / shutting down -> kRejected
//        v
//   dispatcher thread: starts the next job when a runner slot is free AND the
//        governor says aggregate RSS leaves headroom for one more job
//        (running==0 escapes the governor so a budget can never deadlock the
//        service outright)
//        v
//   runner (ThreadPool, max_concurrent_jobs slots): calls hadoop::runJob with
//        a JobContext — shared codec pool, the job id as task tag
//        (io/task_tag.h) so per-job trace/metrics route by tag, cooperative
//        cancel, governor-managed shuffle backpressure (docs/SERVICE.md).
//
// Thread model: every Job record and the queue live behind one service mutex
// (annotated; -Wthread-safety proves the discipline). Lock order:
// registry -> service.mutex_ (gauge callbacks), service.mutex_ ->
// governor.mu_ -> server.mutex_ — acyclic, see governor.h.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hadoop/runtime.h"
#include "io/annotations.h"
#include "io/thread_pool.h"
#include "obs/sampler.h"
#include "service/governor.h"

namespace scishuffle::obs {
class MetricsStream;
}

namespace scishuffle::service {

/// Admission priority class. Lower value dispatches first; within a class,
/// FIFO by submission order.
enum class Priority { kInteractive = 0, kNormal = 1, kBatch = 2 };

const char* priorityName(Priority p);
/// Parses "interactive" / "normal" / "batch"; throws std::invalid_argument.
Priority parsePriority(const std::string& name);

/// Everything one job needs: the standalone runJob inputs plus a name and a
/// priority class. The closures must stay valid until the job reaches a
/// terminal state — the service runs them asynchronously.
struct JobSpec {
  std::string name;
  Priority priority = Priority::kNormal;
  hadoop::JobConfig config;
  std::vector<hadoop::MapTask> map_tasks;
  hadoop::ReduceFn reduce;
};

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled, kRejected };

const char* jobStateName(JobState s);

constexpr bool isTerminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed || s == JobState::kCancelled ||
         s == JobState::kRejected;
}

/// Point-in-time snapshot of one job's lifecycle (timestamps are service
/// steady-clock microseconds; 0 = never happened).
struct JobStatus {
  u64 id = 0;
  std::string name;
  Priority priority = Priority::kNormal;
  JobState state = JobState::kQueued;
  u64 submit_us = 0;
  u64 start_us = 0;
  u64 finish_us = 0;
  std::string error;  // kFailed / kRejected detail

  /// Time spent in the admission queue; 0 until dispatched.
  u64 queueWaitUs() const { return start_us >= submit_us ? start_us - submit_us : 0; }
};

struct ServiceConfig {
  int max_concurrent_jobs = 2;
  std::size_t queue_capacity = 16;
  /// Aggregate RSS budget for the whole service; 0 = no governor
  /// (admission gated on slots only, shuffles unbounded).
  u64 memory_budget_bytes = 0;
  u64 governor_interval_ms = 5;
  u64 job_reserve_bytes = 64ull << 20;
  /// Codec pool shared by every job; 0 = hardware concurrency.
  int codec_threads = 0;
  /// Per-job slot quotas clamped onto each JobConfig; 0 = no cap.
  int max_map_slots_per_job = 0;
  int max_reduce_slots_per_job = 0;
  /// Where governor-evicted shuffle segments spill; required for the
  /// governor's backpressure to have anywhere to push bytes.
  std::filesystem::path overflow_dir;
  /// Steady-state per-shuffle pending-bytes limit; 0 = unbounded until the
  /// governor throttles.
  u64 shuffle_pending_limit_bytes = 0;
  /// Service-level scishuffle.metrics.v1 export (governor samples, every
  /// job's events, shutdown summary); empty = no stream.
  std::filesystem::path metrics_path;
  /// Test-only: admission faults at site "service.admit" (docs/FAULTS.md).
  testing::FaultInjector* fault_injector = nullptr;
};

struct SubmitResult {
  u64 id = 0;
  bool accepted = false;
};

class JobService {
 public:
  enum class Shutdown {
    kDrainQueued,   // run everything already admitted, then stop
    kCancelQueued,  // cancel the queue, finish only the running jobs
  };

  explicit JobService(ServiceConfig config);
  /// Equivalent to shutdown(kCancelQueued).
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Thread-safe. Every submission gets an id, including rejected ones
  /// (their JobStatus records kRejected and the reason).
  SubmitResult submit(JobSpec spec);

  /// Queued job: removed from the queue, terminal kCancelled. Running job:
  /// cooperative cancel flag + immediate abort of its live shuffle; it
  /// reaches kCancelled when the runner unwinds (unless it raced completion
  /// and finished first). Returns false for unknown ids and jobs already
  /// terminal.
  bool cancel(u64 id);

  /// Cancels every job still waiting in the admission queue (running jobs
  /// keep going). Returns the number cancelled. The serve loop's
  /// second-signal escalation: drain becomes "finish only what is running".
  std::size_t cancelAllQueued();

  /// Blocks until the job reaches a terminal state.
  JobStatus wait(u64 id);

  std::optional<JobStatus> status(u64 id) const;
  std::vector<JobStatus> list() const;

  /// wait(id), then: kDone -> moves the result out (once); kFailed ->
  /// rethrows the job's error; kCancelled -> throws JobCancelledError;
  /// kRejected -> throws std::runtime_error.
  hadoop::JobResult takeResult(u64 id);

  /// Stops admission, drains or cancels the queue, joins the dispatcher,
  /// waits for running jobs, stops the governor, writes the metrics summary.
  /// Idempotent; call from one thread (the destructor calls it too).
  void shutdown(Shutdown mode = Shutdown::kDrainQueued);

  std::size_t runningJobs() const;
  std::size_t queuedJobs() const;
  const MemoryGovernor* governor() const { return governor_.get(); }
  obs::MetricsStream* metrics() { return metrics_.get(); }

 private:
  /// One job's lifecycle record. Every field except `cancel` is written
  /// under the service mutex_; `cancel` is an atomic so runJob's hot path
  /// polls it lock-free.
  struct Job {
    u64 id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    u64 submit_us = 0;
    u64 start_us = 0;
    u64 finish_us = 0;
    std::string error;
    std::exception_ptr failure;
    std::optional<hadoop::JobResult> result;
    hadoop::ShuffleServer* live_server = nullptr;
    std::atomic<bool> cancel{false};
  };

  void dispatcherLoop();
  void execute(const std::shared_ptr<Job>& job);
  JobStatus statusLocked(const Job& job) const REQUIRES(mutex_);
  std::shared_ptr<Job> popNextLocked() REQUIRES(mutex_);

  // Teardown order (reverse of declaration) is load-bearing: the gauge
  // registrations (last) unregister first, then the dispatcher/runner pool
  // (already quiesced by shutdown()) die, then the governor, codec pool and
  // metrics stream — nothing samples or schedules against torn-down state.
  const ServiceConfig config_;
  std::unique_ptr<obs::MetricsStream> metrics_;
  std::unique_ptr<ThreadPool> codecPool_;
  std::unique_ptr<MemoryGovernor> governor_;

  mutable Mutex mutex_{lock_rank::kJobService};
  CondVar dispatchWake_;
  CondVar stateChanged_;
  std::map<u64, std::shared_ptr<Job>> jobs_ GUARDED_BY(mutex_);
  std::vector<u64> queue_ GUARDED_BY(mutex_);  // job ids awaiting dispatch
  u64 nextId_ GUARDED_BY(mutex_) = 0;
  std::size_t running_ GUARDED_BY(mutex_) = 0;
  bool acceptingSubmits_ GUARDED_BY(mutex_) = true;
  bool stopping_ GUARDED_BY(mutex_) = false;
  bool drainQueued_ GUARDED_BY(mutex_) = true;
  bool shutdownDone_ GUARDED_BY(mutex_) = false;

  std::unique_ptr<ThreadPool> runnerPool_;
  Thread dispatcher_;

  obs::GaugeRegistration jobsRunningGauge_;
  obs::GaugeRegistration jobsQueuedGauge_;
  obs::GaugeRegistration codecQueueGauge_;
  obs::GaugeRegistration codecActiveGauge_;
};

/// One-shot convenience: construct a service, run one job through it, shut
/// down. The single-job CLI paths are thin clients of the scheduler via this
/// (same code path as the multi-tenant service, fleet of one).
hadoop::JobResult runOneJob(JobSpec spec, ServiceConfig config = {});

}  // namespace scishuffle::service
