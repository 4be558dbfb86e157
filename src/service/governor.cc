#include "service/governor.h"

#include <utility>

#include "hadoop/shuffle.h"
#include "obs/metrics_stream.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace scishuffle::service {

namespace {

obs::GaugeRegistry& checkedRegistry(obs::GaugeRegistry* registry) {
  check(registry != nullptr, "governor needs a gauge registry");
  return *registry;
}

}  // namespace

MemoryGovernor::MemoryGovernor(Config config, obs::GaugeRegistry* registry,
                               obs::MetricsStream* stream)
    : config_(config),
      sampler_(config.interval_ms, checkedRegistry(registry), /*recorder=*/nullptr, stream,
               [this](const std::map<std::string, u64>& gauges) { onSample(gauges); }) {
  // At interval 0 the sampler never samples, and a governor without
  // readings would admit blindly.
  check(config_.interval_ms != 0, "governor interval must be nonzero");
  check(config_.min_pending_limit_bytes != 0,
        "min pending limit must be nonzero (0 means unbounded to the server)");
}

void MemoryGovernor::setWakeCallback(std::function<void()> callback) {
  check(!sampler_.running(), "set the wake callback before start()");
  wakeCallback_ = std::move(callback);
}

void MemoryGovernor::start() { sampler_.start(); }

void MemoryGovernor::stop() { sampler_.stop(); }

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

bool MemoryGovernor::throttled() const {
  MutexLock lock(mu_);
  return throttled_;
}

void MemoryGovernor::onSample(const std::map<std::string, u64>& gauges) {
  const auto rssIt = gauges.find(obs::gauge::kProcessRssBytes);
  const u64 rss = rssIt != gauges.end() ? rssIt->second : 0;
  bool startedThrottling = false;
  bool clearedThrottling = false;
  {
    MutexLock lock(mu_);
    lastRss_ = rss;
    if (rss > peakRss_) peakRss_ = rss;
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
