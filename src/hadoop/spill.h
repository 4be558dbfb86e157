// Map-side output collection: buffer, sort, (combine), spill to IFile
// segments, and final merge of spills — steps 2-3 of the paper's Fig. 1.
//
// Segments are materialized as block-framed codec containers, and per-block
// compression fans out across the shared codec pool;
// CODEC_COMPRESS_CPU_US sums per-block CPU so the cluster cost model stays
// honest.
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

  /// Collects a record already routed to `partition`.
  void collect(int partition, KeyValue kv);

  /// Flushes remaining records and merges spills into final segments.
  MapOutput finish();

 private:
  void spill();
  /// Serializes sorted records into a block-framed segment.
  Bytes writeSegment(const std::vector<KeyValue>& records);
  /// Parses every record back out of a segment.
  std::vector<KeyValue> readSegmentRecords(const Bytes& segment);
  /// Sorts records of one partition and runs the combiner over equal keys.
  std::vector<KeyValue> sortAndCombine(std::vector<KeyValue>&& records, bool useCombiner);

  const JobConfig* config_;
  const Codec* codec_;
  Counters* counters_;
  ThreadPool* codecPool_;
  std::vector<std::vector<KeyValue>> buffer_;  // per partition
  // Atomic (relaxed) because the telemetry sampler reads it from its own
  // thread while collect()/spill() update it on the task thread.
  std::atomic<std::size_t> bufferedBytes_{0};
  std::vector<std::vector<Bytes>> spills_;  // per spill, per partition: IFile segment
  // Declared last: unregisters first on destruction, so the sampler can
  // never read bufferedBytes_ after (or while) the buffer is torn down.
  obs::GaugeRegistration bufferedGauge_;
};

}  // namespace scishuffle::hadoop
