// Memory governor for the job service: an obs::Sampler of its own reads the
// process gauge registry (RSS, shuffle backlogs) on a fixed cadence, and the
// governor turns each reading into *control*, not just telemetry —
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
// Thread model: the sampler reads the registry and updates its rollups
// before it calls onSample(), with no lock held; lock order is
// governor.mu_ -> server.mutex_ (setPendingBytesLimit), and the service
// acquires its own mutex before calling attach/detach — service.mutex_ ->
// governor.mu_ -> server.mutex_, acyclic. The wake callback is invoked
// without holding mu_.
#pragma once

#include <functional>
#include <map>
#include <string>
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
    /// Aggregate RSS budget; must be nonzero (the service runs without a
    /// governor when it has no budget).
    u64 budget_bytes = 0;
    /// Sampling cadence; must be nonzero.
    u64 interval_ms = 5;
    /// Headroom one more job is assumed to need; admission stops when
    /// lastRss + reserve would pass the budget.
    u64 job_reserve_bytes = 64ull << 20;
    /// Pending-bytes floor forced onto every attached server while
    /// throttled (must stay nonzero: 0 means "unbounded" to the server).
    u64 min_pending_limit_bytes = 1ull << 20;
    /// Steady-state limit applied when pressure clears; 0 = unbounded.
    u64 base_pending_limit_bytes = 0;
  };

  /// Throttling starts at budget * kSoftWatermark — before the budget is
  /// breached, not after.
  static constexpr double kSoftWatermark = 0.8;

  /// `registry` is sampled every tick; `stream` (optional) receives one
  /// sample line per tick — the service-level scishuffle.metrics.v1 export.
  MemoryGovernor(Config config, obs::GaugeRegistry* registry, obs::MetricsStream* stream);

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  /// Called when throttling clears — the dispatcher re-checks admission.
  /// Set before start(); invoked from the sampling thread without mu_ held.
  void setWakeCallback(std::function<void()> callback);

  /// Takes the first sample before returning (so the first admissionOk()
  /// sees a real reading), then samples every interval_ms.
  void start();
  /// Joins the sampling thread and takes a final sample; idempotent.
  void stop();

  /// Fleet membership, driven by JobContext::attach_shuffle/detach_shuffle.
  /// Attach applies the current limit immediately, so a job admitted while
  /// throttled starts life spilling instead of enjoying one unbounded tick.
  void attach(hadoop::ShuffleServer& server);
  void detach(hadoop::ShuffleServer& server);

  /// True when the last sampled RSS leaves headroom for one more job under
  /// the budget. `runningJobs` scales the reserve: jobs already dispatched
  /// but still ramping claim their reserve too, so a burst of admissions at
  /// a low-RSS instant cannot overshoot the budget before the next sample
  /// lands. Always false while throttled. The dispatcher's running==0
  /// escape, not this accessor, prevents deadlock.
  bool admissionOk(std::size_t runningJobs = 0) const;

  /// The control law, run once per sample: the hook the governor's sampler
  /// calls with each gauge map (obs::SampleFn). Records process.rss_bytes,
  /// enters or leaves throttling at budget * kSoftWatermark, and re-asserts
  /// the matching pending-bytes limit on every attached server. Public so a
  /// test can drive the law with synthetic readings.
  void onSample(const std::map<std::string, u64>& gauges);

  u64 lastRssBytes() const;
  u64 peakRssBytes() const;
  u64 throttleEvents() const;
  u64 sampleCount() const { return sampler_.sampleCount(); }
  bool throttled() const;

  /// Per-gauge rollups over the governor's lifetime, same shape the obs
  /// Sampler produces — written to the service metrics summary at shutdown.
  std::map<std::string, obs::GaugeRollup> rollups() const { return sampler_.rollups(); }

 private:
  const Config config_;
  std::function<void()> wakeCallback_;  // const after start()

  mutable Mutex mu_{lock_rank::kGovernor};
  std::vector<hadoop::ShuffleServer*> fleet_ GUARDED_BY(mu_);
  u64 lastRss_ GUARDED_BY(mu_) = 0;
  u64 peakRss_ GUARDED_BY(mu_) = 0;
  u64 throttles_ GUARDED_BY(mu_) = 0;
  bool throttled_ GUARDED_BY(mu_) = false;

  // Last member: destroyed first, so its destructor joins the sampling
  // thread (and takes the final sample) while everything onSample() touches
  // is still alive.
  obs::Sampler sampler_;
};

}  // namespace scishuffle::service
