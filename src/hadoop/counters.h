// Thread-safe named counters, mirroring Hadoop's job counters. The paper's
// headline metric is the "Map output materialized bytes" counter; we keep
// the same name.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "io/annotations.h"
#include "io/common.h"

namespace scishuffle::hadoop {

/// Canonical counter names (Hadoop's spelling where one exists). Every
/// constant here must be referenced by the runtime and documented in
/// docs/OBSERVABILITY.md — `tools/lint` enforces both, so a counter cannot
/// silently go dead or undocumented.
namespace counter {
inline constexpr const char* kMapOutputRecords = "MAP_OUTPUT_RECORDS";
inline constexpr const char* kMapOutputBytes = "MAP_OUTPUT_BYTES";
inline constexpr const char* kMapOutputMaterializedBytes = "MAP_OUTPUT_MATERIALIZED_BYTES";
inline constexpr const char* kSpilledRecords = "SPILLED_RECORDS";
inline constexpr const char* kCombineInputRecords = "COMBINE_INPUT_RECORDS";
inline constexpr const char* kCombineOutputRecords = "COMBINE_OUTPUT_RECORDS";
inline constexpr const char* kReduceShuffleBytes = "REDUCE_SHUFFLE_BYTES";
inline constexpr const char* kReduceMergePasses = "REDUCE_MERGE_PASSES";
inline constexpr const char* kReduceMergeMaterializedBytes = "REDUCE_MERGE_MATERIALIZED_BYTES";
// Upper bound on decoded bytes resident during the streaming merge: the sum,
// over segment readers, of each reader's decoded-block high-water mark:
// O(segments x block size), not whole-segment materialization. At the job
// level this is the MAX over reduce tasks (the largest single merge), not
// the sum — summing per-task peaks would overstate concurrent residency
// whenever reduce_slots < reduce tasks; per-task values are in
// ReduceTaskStats.
inline constexpr const char* kReduceMergeResidentPeakBytes = "REDUCE_MERGE_RESIDENT_PEAK_BYTES";
inline constexpr const char* kReduceInputRecords = "REDUCE_INPUT_RECORDS";
inline constexpr const char* kReduceInputGroups = "REDUCE_INPUT_GROUPS";
inline constexpr const char* kReduceOutputRecords = "REDUCE_OUTPUT_RECORDS";
// Recovery path (fault injection + shuffle retry; see docs/FAULTS.md).
inline constexpr const char* kShuffleFetchRetries = "SHUFFLE_FETCH_RETRIES";
inline constexpr const char* kBlocksCorruptDetected = "BLOCKS_CORRUPT_DETECTED";
inline constexpr const char* kSegmentsRefetched = "SEGMENTS_REFETCHED";
inline constexpr const char* kKeySplitsRouting = "KEY_SPLITS_ROUTING";
inline constexpr const char* kKeySplitsOverlap = "KEY_SPLITS_OVERLAP";
inline constexpr const char* kAggregateFlushes = "AGGREGATE_FLUSHES";
// Distributed runtime (src/service/coordinator.h): workers the coordinator
// declared dead (heartbeat timeout, control-plane EOF, or exhausted fetch
// retries) and map tasks re-executed on a survivor because their owner died
// before their output was safely fetched.
inline constexpr const char* kWorkerDeathsDetected = "WORKER_DEATHS_DETECTED";
inline constexpr const char* kMapTasksReexecuted = "MAP_TASKS_REEXECUTED";
// CPU accounting for the cluster cost model (microseconds).
inline constexpr const char* kMapCpuUs = "MAP_CPU_US";
inline constexpr const char* kCodecCompressCpuUs = "CODEC_COMPRESS_CPU_US";
inline constexpr const char* kCodecDecompressCpuUs = "CODEC_DECOMPRESS_CPU_US";
inline constexpr const char* kSortCpuUs = "SORT_CPU_US";
inline constexpr const char* kReduceCpuUs = "REDUCE_CPU_US";
}  // namespace counter

class Counters {
 public:
  Counters() = default;
  Counters(const Counters& other);
  Counters& operator=(const Counters& other);

  // Lookups build no std::string; only the first add/set of a name
  // allocates.
  void add(std::string_view name, u64 delta);
  u64 get(std::string_view name) const;

  /// Overwrites a counter (used for job-level values that are a max over
  /// tasks rather than a sum, e.g. REDUCE_MERGE_RESIDENT_PEAK_BYTES).
  void set(std::string_view name, u64 value);

  /// Adds every counter from `other` into this.
  void merge(const Counters& other);

  std::map<std::string, u64> snapshot() const;
  std::string toString() const;

 private:
  using Values = std::map<std::string, u64, std::less<>>;

  Values values() const;
  /// The counter named `name`, inserted at 0 if absent.
  u64& slot(std::string_view name) REQUIRES(mutex_);

  mutable Mutex mutex_{lock_rank::kCounters};
  Values values_ GUARDED_BY(mutex_);
};

}  // namespace scishuffle::hadoop
