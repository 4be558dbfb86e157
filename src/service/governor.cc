#include "service/governor.h"

#include <chrono>
#include <utility>

#include "hadoop/shuffle.h"
#include "io/clock.h"
#include "obs/metrics_stream.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace scishuffle::service {

MemoryGovernor::MemoryGovernor(Config config, obs::GaugeRegistry* registry,
                               obs::MetricsStream* stream)
    : config_(config), registry_(registry), stream_(stream), epochUs_(steadyNowUs()) {
  check(registry_ != nullptr, "governor needs a gauge registry");
  check(config_.min_pending_limit_bytes != 0,
        "min pending limit must be nonzero (0 means unbounded to the server)");
}

MemoryGovernor::~MemoryGovernor() { stop(); }

void MemoryGovernor::setWakeCallback(std::function<void()> callback) {
  MutexLock lock(mu_);
  check(!running_, "set the wake callback before start()");
  wakeCallback_ = std::move(callback);
}

void MemoryGovernor::start() {
  {
    MutexLock lock(mu_);
    check(!running_, "governor already running");
    running_ = true;
    stopRequested_ = false;
  }
  // Synchronous t≈0 sample before the thread exists: the dispatcher's first
  // admission decision must never see lastRss == 0 and wave a burst through.
  tick();
  MutexLock lock(mu_);
  thread_ = Thread([this] { loop(); });
}

void MemoryGovernor::stop() {
  Thread toJoin;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    running_ = false;
    stopRequested_ = true;
    toJoin = std::move(thread_);
  }
  wake_.notify_all();
  if (toJoin.joinable()) toJoin.join();
  tick();  // final sample: shutdown state lands in the stream and rollups
}

void MemoryGovernor::attach(hadoop::ShuffleServer& server) {
  u64 limit = 0;
  {
    MutexLock lock(mu_);
    fleet_.push_back(&server);
    if (config_.budget_bytes != 0) {
      limit = throttled_ ? config_.min_pending_limit_bytes : config_.base_pending_limit_bytes;
    }
  }
  if (limit != 0) server.setPendingBytesLimit(limit);
}

void MemoryGovernor::detach(hadoop::ShuffleServer& server) {
  MutexLock lock(mu_);
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    if (fleet_[i] == &server) {
      fleet_.erase(fleet_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

bool MemoryGovernor::admissionOk(std::size_t runningJobs) const {
  if (config_.budget_bytes == 0) return true;
  MutexLock lock(mu_);
  if (throttled_) return false;
  // Each in-flight job may still grow toward its reserve; count all of them
  // plus the candidate, or a burst of dispatches between two samples lands
  // the fleet far past the budget before control can react.
  const u64 claimed = config_.job_reserve_bytes * (static_cast<u64>(runningJobs) + 1);
  return lastRss_ + claimed <= config_.budget_bytes;
}

u64 MemoryGovernor::lastRssBytes() const {
  MutexLock lock(mu_);
  return lastRss_;
}

u64 MemoryGovernor::peakRssBytes() const {
  MutexLock lock(mu_);
  return peakRss_;
}

u64 MemoryGovernor::throttleEvents() const {
  MutexLock lock(mu_);
  return throttles_;
}

u64 MemoryGovernor::sampleCount() const {
  MutexLock lock(mu_);
  return samples_;
}

bool MemoryGovernor::throttled() const {
  MutexLock lock(mu_);
  return throttled_;
}

std::map<std::string, obs::GaugeRollup> MemoryGovernor::rollups() const {
  MutexLock lock(mu_);
  return rollups_;
}

void MemoryGovernor::loop() {
  tick();  // t≈0 baseline
  MutexLock lock(mu_);
  while (!stopRequested_) {
    wake_.wait_for(lock, std::chrono::milliseconds(config_.interval_ms));
    if (stopRequested_) break;
    lock.unlock();
    tick();
    lock.lock();
  }
}

void MemoryGovernor::tick() {
  // Sample before locking mu_: gauge callbacks take component locks of their
  // own (registry -> component), and mu_ must stay out of that chain.
  std::map<std::string, u64> gauges = registry_->sample();
  const u64 rss = obs::currentRssBytes();
  gauges[obs::gauge::kProcessRssBytes] = rss;

  u64 ts = 0;
  if (stream_ != nullptr) {
    ts = stream_->writeSample(gauges);
  } else {
    const u64 now = steadyNowUs();
    ts = now >= epochUs_ ? now - epochUs_ : 0;
  }

  bool startedThrottling = false;
  bool clearedThrottling = false;
  {
    MutexLock lock(mu_);
    ++samples_;
    lastRss_ = rss;
    if (rss > peakRss_) peakRss_ = rss;
    for (const auto& [name, value] : gauges) {
      obs::GaugeRollup& r = rollups_[name];
      r.sum += value;
      ++r.samples;
      if (r.samples == 1 || value > r.max) {
        r.max = value;
        r.peak_ts_us = ts;
      }
    }
    if (config_.budget_bytes != 0) {
      const bool over =
          static_cast<double>(rss) >
          static_cast<double>(config_.budget_bytes) * config_.soft_watermark;
      startedThrottling = over && !throttled_;
      clearedThrottling = !over && throttled_;
      if (startedThrottling) ++throttles_;
      throttled_ = over;
      // Applied every tick (idempotent), not just on transitions: a server
      // attached between ticks already got the current limit from attach(),
      // and re-asserting costs one short leaf lock per job.
      const u64 limit =
          throttled_ ? config_.min_pending_limit_bytes : config_.base_pending_limit_bytes;
      for (hadoop::ShuffleServer* server : fleet_) server->setPendingBytesLimit(limit);
    }
  }
  if (startedThrottling) {
    obs::emitEvent(obs::event::kServiceGovernorThrottle, "governor", rss);
#if defined(__GLIBC__)
    // Spilled and freed memory helps nothing while glibc hoards the pages;
    // hand freed arenas back so the next RSS sample reflects the relief.
    ::malloc_trim(0);
#endif
  }
  if (clearedThrottling && wakeCallback_) wakeCallback_();
}

}  // namespace scishuffle::service
