// Event-driven shuffle hand-off, the in-memory stand-in for Hadoop's
// ShuffleHandler: each map task publishes its per-reducer segments the moment
// it materializes them, and reducers block-fetch segments as they arrive —
// so reduce-side fetch and first-block decode overlap the tail of the map
// phase instead of waiting behind a map barrier (PhaseTimings records how
// much shuffle wall-time hid under the map phase as shuffle_overlap_us).
//
// All queue/stat state is GUARDED_BY(mutex_); Clang's -Wthread-safety proves
// the discipline at compile time (docs/STATIC_ANALYSIS.md).
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "hadoop/types.h"
#include "io/annotations.h"

namespace scishuffle::testing {
class FaultInjector;
}

namespace scishuffle::hadoop {

class ShuffleServer {
 public:
  /// `faults` (optional, test-only) injects shuffle.publish / shuffle.fetch
  /// faults. `retainSegments` keeps a pristine copy of every published
  /// segment so refetch() can heal a corrupt transfer — the in-memory
  /// equivalent of the mapper's on-disk output surviving a bad copy.
  ShuffleServer(std::size_t numMaps, int numReducers,
                testing::FaultInjector* faults = nullptr, bool retainSegments = false);

  /// Teardown frees every unfetched segment.
  ~ShuffleServer();

  ShuffleServer(const ShuffleServer&) = delete;
  ShuffleServer& operator=(const ShuffleServer&) = delete;

  /// Publishes map task `mapIndex`'s materialized output, one segment per
  /// reducer. Thread-safe; each map publishes exactly once (a retried map
  /// attempt publishes only after it succeeds). Moves out of `segments` only
  /// after the shuffle.publish fault and the checks have passed, so a publish
  /// that throws leaves the caller's segments intact to publish again.
  void publish(std::size_t mapIndex, std::vector<Bytes>&& segments);

  struct Fetched {
    std::size_t map_index = 0;
    Bytes segment;
  };

  /// Blocks until a segment for `reducer` is available; returns nullopt once
  /// every map has published and this reducer drained its queue. Throws
  /// std::runtime_error after abort().
  std::optional<Fetched> fetch(int reducer);

  /// Re-reads the pristine retained copy of one published segment (no fault
  /// injection — models re-reading the mapper's surviving local output).
  /// Requires retainSegments; throws std::logic_error otherwise or when map
  /// `mapIndex` has not published.
  Bytes refetch(std::size_t mapIndex, int reducer) const;

  bool retainsSegments() const { return retain_; }

  /// Wakes every fetcher with an error — called when a map task fails
  /// permanently and its segments will never arrive.
  void abort();

  /// Steady-clock microsecond timestamps for overlap accounting; 0 if the
  /// event never happened.
  u64 firstPublishUs() const;
  u64 lastFetchUs() const;

  /// Segments published but not yet fetched, summed over reducer queues —
  /// the shuffle's in-flight backlog — and their bytes. Gauge accessors for
  /// the telemetry sampler (`shuffle.inflight_segments` /
  /// `shuffle.pending_bytes`).
  std::size_t pendingSegments() const;
  u64 pendingBytes() const;

 private:
  /// Frees queued and retained segments.
  void drainLocked() REQUIRES(mutex_);

  mutable Mutex mutex_{lock_rank::kShuffleServer};
  CondVar arrived_;
  std::vector<std::deque<Fetched>> queues_ GUARDED_BY(mutex_);  // per reducer
  // Per map: pristine copies (retain mode) for refetch().
  std::vector<std::vector<Bytes>> store_ GUARDED_BY(mutex_);
  std::size_t pendingSegments_ GUARDED_BY(mutex_) = 0;
  u64 pendingBytes_ GUARDED_BY(mutex_) = 0;
  std::size_t published_ GUARDED_BY(mutex_) = 0;
  bool aborted_ GUARDED_BY(mutex_) = false;
  u64 firstPublishUs_ GUARDED_BY(mutex_) = 0;
  u64 lastFetchUs_ GUARDED_BY(mutex_) = 0;
  testing::FaultInjector* faults_;  // const after construction
  bool retain_;                     // const after construction
  std::size_t numMaps_;             // const after construction
};

}  // namespace scishuffle::hadoop
