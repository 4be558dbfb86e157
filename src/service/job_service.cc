#include "service/job_service.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "hadoop/shuffle.h"
#include "io/clock.h"
#include "obs/metrics_stream.h"
#include "testing/fault_injector.h"

namespace scishuffle::service {

const char* priorityName(Priority p) {
  switch (p) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kNormal:
      return "normal";
    case Priority::kBatch:
      return "batch";
  }
  return "unknown";
}

Priority parsePriority(const std::string& name) {
  if (name == "interactive") return Priority::kInteractive;
  if (name == "normal") return Priority::kNormal;
  if (name == "batch") return Priority::kBatch;
  throw std::invalid_argument("unknown priority class: " + name);
}

const char* jobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kRejected:
      return "rejected";
  }
  return "unknown";
}

JobService::JobService(ServiceConfig config) : config_(std::move(config)) {
  check(config_.max_concurrent_jobs >= 1, "need at least one concurrent job slot");
  if (!config_.metrics_path.empty()) {
    metrics_ =
        std::make_unique<obs::MetricsStream>(config_.metrics_path, config_.governor_interval_ms);
    // Service-level export: untagged threads (dispatcher, governor) and the
    // service copy of every tagged job event land here. One service per
    // process — the global metrics slot does not nest.
    obs::setActiveMetrics(metrics_.get());
  }
  codecPool_ = std::make_unique<ThreadPool>(hadoop::codecPoolThreads(config_.codec_threads));
  if (config_.memory_budget_bytes != 0) {
    MemoryGovernor::Config g;
    g.budget_bytes = config_.memory_budget_bytes;
    g.interval_ms = config_.governor_interval_ms;
    g.job_reserve_bytes = config_.job_reserve_bytes;
    g.base_pending_limit_bytes = config_.shuffle_pending_limit_bytes;
    governor_ = std::make_unique<MemoryGovernor>(g, &obs::processGauges(), metrics_.get());
    governor_->setWakeCallback([this] { dispatchWake_.notify_all(); });
    governor_->start();
  }
  runnerPool_ = std::make_unique<ThreadPool>(config_.max_concurrent_jobs);
  dispatcher_ = Thread([this] { dispatcherLoop(); });

  // Gauge registrations last (they read state declared above; see the
  // teardown-order note in the header).
  jobsRunningGauge_ = obs::processGauges().add(obs::gauge::kServiceJobsRunning, [this] {
    MutexLock lock(mutex_);
    return static_cast<u64>(running_);
  });
  jobsQueuedGauge_ = obs::processGauges().add(obs::gauge::kServiceJobsQueued, [this] {
    MutexLock lock(mutex_);
    return static_cast<u64>(queue_.size());
  });
  ThreadPool& codecPool = *codecPool_;
  codecQueueGauge_ = obs::processGauges().add(
      obs::gauge::kThreadPoolQueueDepth,
      [&codecPool] { return static_cast<u64>(codecPool.queueDepth()); });
  codecActiveGauge_ = obs::processGauges().add(
      obs::gauge::kThreadPoolActiveWorkers,
      [&codecPool] { return static_cast<u64>(std::max(0, codecPool.activeWorkers())); });
}

JobService::~JobService() { shutdown(Shutdown::kCancelQueued); }

SubmitResult JobService::submit(JobSpec spec) {
  const u64 submitUs = steadyNowUs();
  bool rejected = false;
  std::string reason;
  if (config_.fault_injector != nullptr) {
    try {
      config_.fault_injector->hit(testing::site::kServiceAdmit);
    } catch (const std::exception& e) {
      rejected = true;
      reason = e.what();
    }
  }
  u64 id = 0;
  {
    MutexLock lock(mutex_);
    id = ++nextId_;
    auto job = std::make_shared<Job>();
    job->id = id;
    job->submit_us = submitUs;
    job->spec = std::move(spec);
    if (!rejected && !acceptingSubmits_) {
      rejected = true;
      reason = "service is shutting down";
    }
    if (!rejected && queue_.size() >= config_.queue_capacity) {
      rejected = true;
      reason = "admission queue full";
    }
    if (rejected) {
      // Rejected submissions still get a record: status()/list() report the
      // rejection and its reason instead of an unknown id.
      job->state = JobState::kRejected;
      job->error = reason;
      job->finish_us = submitUs;
      jobs_.emplace(id, std::move(job));
    } else {
      jobs_.emplace(id, job);
      queue_.push_back(id);
    }
  }
  obs::emitEvent(rejected ? obs::event::kServiceJobReject : obs::event::kServiceJobAdmit,
                 testing::site::kServiceAdmit, id);
  if (rejected) {
    stateChanged_.notify_all();  // kRejected is terminal; wake any wait(id)
  } else {
    dispatchWake_.notify_all();
  }
  return SubmitResult{id, !rejected};
}

bool JobService::cancel(u64 id) {
  bool cancelledQueued = false;
  {
    MutexLock lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    Job& job = *it->second;
    if (job.state == JobState::kQueued) {
      queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
      job.state = JobState::kCancelled;
      job.finish_us = steadyNowUs();
      cancelledQueued = true;
    } else if (job.state == JobState::kRunning) {
      job.cancel.store(true, std::memory_order_relaxed);
      // Abort the live shuffle while holding mutex_ — the detach hook also
      // takes mutex_ before clearing live_server, so the server cannot be
      // destroyed under us (lock order: mutex_ -> server.mutex_).
      if (job.live_server != nullptr) job.live_server->abort();
    } else {
      return false;  // already terminal
    }
  }
  if (cancelledQueued) {
    obs::emitEvent(obs::event::kServiceJobCancel, "service", id);
    stateChanged_.notify_all();
  }
  return true;
}

std::size_t JobService::cancelAllQueued() {
  std::vector<u64> queued;
  {
    MutexLock lock(mutex_);
    queued = queue_;
  }
  // cancel(id) re-checks state under the lock, so a job dispatched between
  // the snapshot and the cancel is simply skipped (it is no longer kQueued —
  // cancel() then flips its cooperative flag instead, which is stricter than
  // needed; take the queued-only path by filtering on the snapshot).
  std::size_t cancelled = 0;
  for (const u64 id : queued) {
    {
      MutexLock lock(mutex_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second->state != JobState::kQueued) continue;
    }
    if (cancel(id)) ++cancelled;
  }
  return cancelled;
}

JobStatus JobService::wait(u64 id) {
  MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  check(it != jobs_.end(), "wait on unknown job id");
  while (!isTerminal(it->second->state)) stateChanged_.wait(lock);
  return statusLocked(*it->second);
}

std::optional<JobStatus> JobService::status(u64 id) const {
  MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return statusLocked(*it->second);
}

std::vector<JobStatus> JobService::list() const {
  MutexLock lock(mutex_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(statusLocked(*job));
  return out;
}

hadoop::JobResult JobService::takeResult(u64 id) {
  MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  check(it != jobs_.end(), "takeResult on unknown job id");
  Job& job = *it->second;
  while (!isTerminal(job.state)) stateChanged_.wait(lock);
  switch (job.state) {
    case JobState::kDone: {
      check(job.result.has_value(), "job result already taken");
      hadoop::JobResult out = std::move(*job.result);
      job.result.reset();
      return out;
    }
    case JobState::kFailed: {
      const std::exception_ptr failure = job.failure;
      const std::string error = job.error;
      lock.unlock();
      if (failure) std::rethrow_exception(failure);
      throw std::runtime_error("job failed: " + error);
    }
    case JobState::kCancelled:
      throw hadoop::JobCancelledError();
    default:
      throw std::runtime_error("job rejected: " + job.error);
  }
}

void JobService::shutdown(Shutdown mode) {
  std::vector<u64> cancelledQueued;
  {
    MutexLock lock(mutex_);
    if (shutdownDone_) return;
    shutdownDone_ = true;
    acceptingSubmits_ = false;
    stopping_ = true;
    drainQueued_ = mode == Shutdown::kDrainQueued;
    if (!drainQueued_) {
      for (const u64 id : queue_) {
        Job& job = *jobs_.at(id);
        job.state = JobState::kCancelled;
        job.error = "cancelled at shutdown";
        job.finish_us = steadyNowUs();
        cancelledQueued.push_back(id);
      }
      queue_.clear();
    }
  }
  dispatchWake_.notify_all();
  stateChanged_.notify_all();
  for (const u64 id : cancelledQueued) obs::emitEvent(obs::event::kServiceJobCancel, "service", id);
  if (dispatcher_.joinable()) dispatcher_.join();
  runnerPool_->wait();  // running (and drain-dispatched) jobs finish
  if (governor_ != nullptr) governor_->stop();
  if (metrics_ != nullptr) {
    metrics_->writeSummary(governor_ != nullptr ? governor_->rollups()
                                                : std::map<std::string, obs::GaugeRollup>{});
    obs::setActiveMetrics(nullptr);
  }
}

std::size_t JobService::runningJobs() const {
  MutexLock lock(mutex_);
  return running_;
}

std::size_t JobService::queuedJobs() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

JobStatus JobService::statusLocked(const Job& job) const {
  JobStatus s;
  s.id = job.id;
  s.name = job.spec.name;
  s.priority = job.spec.priority;
  s.state = job.state;
  s.submit_us = job.submit_us;
  s.start_us = job.start_us;
  s.finish_us = job.finish_us;
  s.error = job.error;
  return s;
}

std::shared_ptr<JobService::Job> JobService::popNextLocked() {
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const Job& a = *jobs_.at(queue_[i]);
    const Job& b = *jobs_.at(queue_[best]);
    // Priority class first, then FIFO by id (ids are submission-ordered).
    if (a.spec.priority < b.spec.priority ||
        (a.spec.priority == b.spec.priority && a.id < b.id)) {
      best = i;
    }
  }
  std::shared_ptr<Job> job = jobs_.at(queue_[best]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
  return job;
}

void JobService::dispatcherLoop() {
  MutexLock lock(mutex_);
  for (;;) {
    while (!queue_.empty() && running_ < static_cast<std::size_t>(config_.max_concurrent_jobs) &&
           (governor_ == nullptr || running_ == 0 || governor_->admissionOk(running_))) {
      // running==0 escapes the governor: with nothing in flight, waiting for
      // RSS to drop can wait forever — one job must always be able to run.
      std::shared_ptr<Job> job = popNextLocked();
      job->state = JobState::kRunning;
      job->start_us = steadyNowUs();
      ++running_;
      lock.unlock();
      runnerPool_->submit([this, job] { execute(job); });
      lock.lock();
    }
    if (stopping_ && (queue_.empty() || !drainQueued_)) return;
    // Timed wait: governor headroom appearing has a wake callback, but a
    // 10ms poll also bounds the window for any wake we might not model.
    dispatchWake_.wait_for(lock, std::chrono::milliseconds(10));
  }
}

void JobService::execute(const std::shared_ptr<Job>& job) {
  Job* jobPtr = job.get();

  hadoop::JobContext ctx;
  ctx.codec_pool = codecPool_.get();
  // runJob tags its call tree with the job id: every span/metric event
  // emitted on the job's behalf (pool hops included) resolves to this job.
  ctx.job_tag = job->id;
  ctx.cancelled = &job->cancel;
  ctx.attach_shuffle = [this, jobPtr](hadoop::ShuffleServer& server) {
    // Backpressure seeds first: the governor's attach may tighten the limit.
    if (!config_.overflow_dir.empty()) server.setOverflowDir(config_.overflow_dir);
    if (config_.shuffle_pending_limit_bytes != 0) {
      server.setPendingBytesLimit(config_.shuffle_pending_limit_bytes);
    }
    bool abortNow = false;
    {
      MutexLock lock(mutex_);
      jobPtr->live_server = &server;
      abortNow = jobPtr->cancel.load(std::memory_order_relaxed);
    }
    if (governor_ != nullptr) governor_->attach(server);
    // Cancelled between dispatch and server construction: cancel() found no
    // live server to abort, so abort it here.
    if (abortNow) server.abort();
  };
  ctx.detach_shuffle = [this, jobPtr](hadoop::ShuffleServer& server) {
    {
      MutexLock lock(mutex_);
      jobPtr->live_server = nullptr;
    }
    if (governor_ != nullptr) governor_->detach(server);
  };

  hadoop::JobConfig cfg = job->spec.config;  // copy: clamp service quotas on
  if (config_.max_map_slots_per_job > 0) {
    cfg.map_slots = std::min(cfg.map_slots, config_.max_map_slots_per_job);
  }
  if (config_.max_reduce_slots_per_job > 0) {
    cfg.reduce_slots = std::min(cfg.reduce_slots, config_.max_reduce_slots_per_job);
  }

  JobState finalState = JobState::kDone;
  std::optional<hadoop::JobResult> result;
  std::exception_ptr failure;
  std::string error;
  try {
    result = hadoop::runJob(cfg, job->spec.map_tasks, job->spec.reduce, &ctx);
  } catch (const hadoop::JobCancelledError&) {
    finalState = JobState::kCancelled;
  } catch (const std::exception& e) {
    finalState = JobState::kFailed;
    failure = std::current_exception();
    error = e.what();
  } catch (...) {
    finalState = JobState::kFailed;
    failure = std::current_exception();
    error = "unknown error";
  }
  {
    MutexLock lock(mutex_);
    job->state = finalState;
    job->finish_us = steadyNowUs();
    job->result = std::move(result);
    job->failure = failure;
    job->error = std::move(error);
    --running_;
  }
  if (finalState == JobState::kCancelled) {
    obs::emitEvent(obs::event::kServiceJobCancel, "service", job->id);
  }
  stateChanged_.notify_all();
  dispatchWake_.notify_all();  // a runner slot freed
}

hadoop::JobResult runOneJob(JobSpec spec, ServiceConfig config) {
  config.max_concurrent_jobs = std::max(config.max_concurrent_jobs, 1);
  JobService service(std::move(config));
  const SubmitResult submitted = service.submit(std::move(spec));
  check(submitted.accepted, "single-job submission rejected");
  hadoop::JobResult result = service.takeResult(submitted.id);
  service.shutdown(JobService::Shutdown::kDrainQueued);
  return result;
}

}  // namespace scishuffle::service
