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
#include <filesystem>
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

  /// Teardown frees every unfetched segment and deletes the overflow files
  /// this server wrote.
  ~ShuffleServer();

  ShuffleServer(const ShuffleServer&) = delete;
  ShuffleServer& operator=(const ShuffleServer&) = delete;

  /// Memory-governor backpressure: when a publish would push the in-memory
  /// backlog past `limitBytes` (0 = unbounded) and an overflow directory is
  /// set, the segments spill to disk instead — the queue entry carries a file
  /// path, fetchers read it back at merge time. Adjustable at any point; the
  /// governor shrinks the limit when aggregate RSS nears the budget and
  /// restores it when pressure clears (docs/SERVICE.md).
  void setPendingBytesLimit(u64 limitBytes);
  void setOverflowDir(std::filesystem::path dir);

  /// Publishes map task `mapIndex`'s materialized output, one segment per
  /// reducer. Thread-safe; each map publishes exactly once (a retried map
  /// attempt publishes only after it succeeds).
  void publish(std::size_t mapIndex, std::vector<Bytes> segments);

  struct Fetched {
    std::size_t map_index = 0;
    Bytes segment;
    /// Overflowed segment: `segment` is empty, the bytes live in this file
    /// (owned by the server — readers must not delete it) and
    /// `overflow_bytes` is its size.
    std::filesystem::path overflow_file;
    u64 overflow_bytes = 0;
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
  /// the shuffle's in-flight backlog. Gauge accessors for the telemetry
  /// sampler (`shuffle.inflight_segments` / `shuffle.pending_bytes`);
  /// pendingBytes counts in-memory bytes only — overflowed segments are on
  /// disk, which is the point of the limit.
  std::size_t pendingSegments() const;
  u64 pendingBytes() const;

  /// Segments/bytes spilled to the overflow directory so far (monotonic;
  /// `shuffle.overflow_bytes` gauge, SHUFFLE_SEGMENTS_OVERFLOWED counter).
  std::size_t overflowSegments() const;
  u64 overflowBytes() const;

 private:
  /// Frees queued and retained in-memory segments and deletes this server's
  /// overflow files.
  void drainLocked() REQUIRES(mutex_);

  mutable Mutex mutex_{lock_rank::kShuffleServer};
  CondVar arrived_;
  std::vector<std::deque<Fetched>> queues_ GUARDED_BY(mutex_);  // per reducer
  // Per map: pristine copies (retain mode). An overflowed publish retains
  // per-reducer file paths in storeFiles_ instead; refetch() re-reads them.
  std::vector<std::vector<Bytes>> store_ GUARDED_BY(mutex_);
  std::vector<std::vector<std::filesystem::path>> storeFiles_ GUARDED_BY(mutex_);
  std::vector<std::filesystem::path> overflowFiles_ GUARDED_BY(mutex_);
  std::size_t pendingSegments_ GUARDED_BY(mutex_) = 0;
  u64 pendingBytes_ GUARDED_BY(mutex_) = 0;
  u64 pendingLimitBytes_ GUARDED_BY(mutex_) = 0;  // 0 = unbounded
  std::filesystem::path overflowDir_ GUARDED_BY(mutex_);
  std::size_t overflowSegments_ GUARDED_BY(mutex_) = 0;
  u64 overflowBytes_ GUARDED_BY(mutex_) = 0;
  std::size_t published_ GUARDED_BY(mutex_) = 0;
  bool aborted_ GUARDED_BY(mutex_) = false;
  u64 firstPublishUs_ GUARDED_BY(mutex_) = 0;
  u64 lastFetchUs_ GUARDED_BY(mutex_) = 0;
  testing::FaultInjector* faults_;  // const after construction
  bool retain_;                     // const after construction
  std::size_t numMaps_;             // const after construction
  u64 serverId_;                    // const after construction; makes overflow
                                    // filenames unique when concurrent jobs
                                    // share one overflow directory
};

/// Reads an overflowed segment (Fetched::overflow_file) back into memory.
Bytes readSegmentFile(const std::filesystem::path& p);

}  // namespace scishuffle::hadoop
