// Memory governor for the job service: a background thread that samples the
// process gauge registry (RSS, shuffle backlogs) on a fixed cadence and turns
// the readings into *control*, not just telemetry —
// the actuator half of the PR 7 observability substrate:
//   * admission — the dispatcher asks admissionOk() before starting another
//     job; a process whose RSS leaves no headroom for one more job's reserve
//     stops admitting until pressure clears,
//   * backpressure — every attached ShuffleServer's pending-bytes limit is
//     squeezed to the floor while RSS sits above the soft watermark, which
//     forces new publishes to spill to the overflow directory instead of
//     growing resident memory (docs/SERVICE.md).
// Each sample is also written to the service-level metrics stream, so the
// soak test and bench can audit "sampled RSS never exceeded the budget" from
// the JSONL export alone.
//
// Thread model: the tick samples the registry *before* taking the governor
// lock; lock order is governor.mu_ -> server.mutex_ (setPendingBytesLimit),
// and the service acquires its own mutex before calling attach/detach —
// service.mutex_ -> governor.mu_ -> server.mutex_, acyclic. The wake
// callback is invoked without holding mu_.
#pragma once

#include <functional>
#include <map>
#include <thread>

#include "io/thread.h"
#include <vector>

#include "io/annotations.h"
#include "io/common.h"
#include "obs/sampler.h"

namespace scishuffle::hadoop {
class ShuffleServer;
}
namespace scishuffle::obs {
class MetricsStream;
}

namespace scishuffle::service {

class MemoryGovernor {
 public:
  struct Config {
    /// Aggregate RSS budget. 0 disables control entirely: admissionOk() is
    /// always true and attached servers are left unbounded.
    u64 budget_bytes = 0;
    u64 interval_ms = 5;
    /// Headroom one more job is assumed to need; admission stops when
    /// lastRss + reserve would pass the budget.
    u64 job_reserve_bytes = 64ull << 20;
    /// Pending-bytes floor forced onto every attached server while
    /// throttled (must stay nonzero: 0 means "unbounded" to the server).
    u64 min_pending_limit_bytes = 1ull << 20;
    /// Steady-state limit applied when pressure clears; 0 = unbounded.
    u64 base_pending_limit_bytes = 0;
    /// Throttling starts at budget * soft_watermark — before the budget is
    /// breached, not after.
    double soft_watermark = 0.8;
  };

  /// `registry` is sampled every tick; `stream` (optional) receives one
  /// sample line per tick — the service-level scishuffle.metrics.v1 export.
  MemoryGovernor(Config config, obs::GaugeRegistry* registry, obs::MetricsStream* stream);
  ~MemoryGovernor();

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  /// Called when throttling clears — the dispatcher re-checks admission.
  /// Set before start(); invoked from the governor thread without mu_ held.
  void setWakeCallback(std::function<void()> callback);

  void start();
  void stop();  // joins the thread; idempotent

  /// Fleet membership, driven by JobContext::attach_shuffle/detach_shuffle.
  /// Attach applies the current limit immediately, so a job admitted while
  /// throttled starts life spilling instead of enjoying one unbounded tick.
  void attach(hadoop::ShuffleServer& server);
  void detach(hadoop::ShuffleServer& server);

  /// True when the last sampled RSS leaves headroom for one more job under
  /// the budget (always true with no budget). `runningJobs` scales the
  /// reserve: jobs already dispatched but still ramping claim their reserve
  /// too, so a burst of admissions at a low-RSS instant cannot overshoot the
  /// budget before the next sample lands. Always false while throttled. The
  /// dispatcher's running==0 escape, not this accessor, prevents deadlock.
  bool admissionOk(std::size_t runningJobs = 0) const;

  u64 lastRssBytes() const;
  u64 peakRssBytes() const;
  u64 throttleEvents() const;
  u64 sampleCount() const;
  bool throttled() const;

  /// Per-gauge rollups over the governor's lifetime, same shape the obs
  /// Sampler produces — written to the service metrics summary at shutdown.
  std::map<std::string, obs::GaugeRollup> rollups() const;

 private:
  void loop();
  void tick();

  const Config config_;
  obs::GaugeRegistry* registry_;
  obs::MetricsStream* stream_;
  std::function<void()> wakeCallback_;  // const after start()
  const u64 epochUs_;                   // rollup timestamp fallback

  mutable Mutex mu_{lock_rank::kGovernor};
  CondVar wake_;
  bool running_ GUARDED_BY(mu_) = false;
  bool stopRequested_ GUARDED_BY(mu_) = false;
  Thread thread_ GUARDED_BY(mu_);
  std::vector<hadoop::ShuffleServer*> fleet_ GUARDED_BY(mu_);
  u64 lastRss_ GUARDED_BY(mu_) = 0;
  u64 peakRss_ GUARDED_BY(mu_) = 0;
  u64 throttles_ GUARDED_BY(mu_) = 0;
  bool throttled_ GUARDED_BY(mu_) = false;
  u64 samples_ GUARDED_BY(mu_) = 0;
  std::map<std::string, obs::GaugeRollup> rollups_ GUARDED_BY(mu_);
};

}  // namespace scishuffle::service
