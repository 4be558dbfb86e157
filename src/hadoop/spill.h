// Map-side output collection: buffer, sort, (combine), spill to IFile
// segments, and final merge of spills — steps 2-3 of the paper's Fig. 1.
//
// The buffer is Hadoop's MapOutputBuffer design: collect() copies each
// record's key and value bytes into one per-task byte arena and appends a
// 16-byte index entry (offset, key length, value length) to its partition's
// index. A spill stable-sorts each partition's index by key bytes and
// streams the arena spans it points at into a block-framed segment, so
// nothing is allocated or moved per record after the copy in. The spill
// threshold counts arena plus index bytes, which bounds map-side memory by
// spill_buffer_bytes even for zero-length records.
//
// Segments are block-framed codec containers, and per-block compression fans
// out across the shared codec pool; CODEC_COMPRESS_CPU_US sums per-block CPU
// so the codec's CPU is counted whichever thread ran it.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "compress/codec.h"
#include "hadoop/counters.h"
#include "hadoop/ifile.h"
#include "hadoop/job.h"
#include "io/thread_pool.h"
#include "obs/sampler.h"

namespace scishuffle::hadoop {

/// Output of one map task: one materialized IFile segment per reducer.
struct MapOutput {
  std::vector<Bytes> segments;  // indexed by partition
};

class MapOutputBuffer {
 public:
  /// `codecPool` (may be null) parallelizes per-block compression; it is
  /// shared across concurrent map tasks.
  MapOutputBuffer(const JobConfig& config, const Codec* codec, Counters& counters,
                  ThreadPool* codecPool = nullptr);

  /// Copies a record already routed to `partition` into the buffer.
  void collect(int partition, ByteSpan key, ByteSpan value);

  /// Flushes remaining records, merges spills into final segments and adds
  /// the task's map-output tallies to its counters.
  MapOutput finish();

 private:
  /// One record in an arena: its key starts at `offset`, its value follows.
  struct IndexEntry {
    u64 offset;
    u32 key_len;
    u32 value_len;

    /// Copies a record to the end of `arena` and returns its entry.
    static IndexEntry append(Bytes& arena, ByteSpan key, ByteSpan value);
    ByteSpan key(ByteSpan arena) const { return arena.subspan(offset, key_len); }
    ByteSpan value(ByteSpan arena) const { return arena.subspan(offset + key_len, value_len); }
  };
  static_assert(sizeof(IndexEntry) == 16);

  void spill();
  /// Sorts `index` by key bytes and runs the combiner over equal keys.
  /// Returns the arena `index` then points into: `arena`, or `combined`
  /// when the combiner rewrote the records.
  ByteSpan sortAndCombine(ByteSpan arena, std::vector<IndexEntry>& index, Bytes& combined);
  /// Serializes sorted records into a block-framed segment.
  Bytes writeSegment(ByteSpan arena, const std::vector<IndexEntry>& index);
  /// Copies every record of a segment, as the reader lends it, to the end
  /// of `arena` and `index`.
  void readSegmentRecords(const Bytes& segment, Bytes& arena, std::vector<IndexEntry>& index);

  const JobConfig* config_;
  const Codec* codec_;
  Counters* counters_;
  ThreadPool* codecPool_;
  Bytes arena_;                                 // buffered key and value bytes
  std::vector<std::vector<IndexEntry>> index_;  // per partition, in collect order
  std::vector<std::vector<Bytes>> spills_;      // per spill, per partition: IFile segment
  // Task-local tallies, added to the counters once by finish().
  u64 outputRecords_ = 0;
  u64 outputBytes_ = 0;
  u64 spilledRecords_ = 0;
  u64 sortCpuUs_ = 0;
  u64 combineInputRecords_ = 0;
  u64 combineOutputRecords_ = 0;
  // Arena plus index bytes toward the next spill. Atomic (relaxed) because
  // the telemetry sampler reads it from its own thread while collect() and
  // spill() update it on the task thread.
  std::atomic<std::size_t> bufferedBytes_{0};
  // Declared last: unregisters first on destruction, so the sampler can
  // never read bufferedBytes_ after (or while) the buffer is torn down.
  obs::GaugeRegistration bufferedGauge_;
};

}  // namespace scishuffle::hadoop
