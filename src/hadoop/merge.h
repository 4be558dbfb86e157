// Reduce-side merge: k-way merge of the IFile segments fetched from every
// mapper, with multi-pass "on-disk" merging when the segment count exceeds
// the merge factor (step 5 of Fig. 1: "possibly requiring multiple on-disk
// sort phases"). Intermediate passes re-materialize segments through the
// codec so their byte and CPU costs are accounted.
//
// Segments are block-framed containers read through BlockDecodeSources that
// hold only the current block per segment plus its decode-ahead blocks (two
// with a codec, one with the null codec) filled by the codec pool and by the
// reducer itself while it waits: peak decoded-bytes residency is
// O(num_segments x block size), not O(total shuffled bytes), reported via
// REDUCE_MERGE_RESIDENT_PEAK_BYTES. Records are never copied here: each head
// lends its record in place in its decoded block, and the stream passes that
// view on until its next call.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "compress/block_format.h"
#include "compress/codec.h"
#include "hadoop/counters.h"
#include "hadoop/ifile.h"
#include "hadoop/job.h"
#include "io/thread_pool.h"
#include "obs/sampler.h"

namespace scishuffle::hadoop {

/// KVStream over a merged set of sorted IFile segments.
class MergedSegmentStream final : public KVStream {
 public:
  /// `codecPool` (may be null) feeds block decode-ahead.
  MergedSegmentStream(std::vector<Bytes> segments, const Codec* codec, const JobConfig& config,
                      Counters& counters, ThreadPool* codecPool = nullptr);

  /// The view stays valid until the next call.
  std::optional<RecordView> next() override;

 private:
  /// Block-at-a-time record stream over one segment, holding its next record.
  struct Head {
    std::unique_ptr<BlockDecodeSource> source;
    std::unique_ptr<IFileStreamReader> records;
    RecordView record;  // lent by `records` until it advances
  };

  /// The heads of one k-way merge and the one whose record was lent last.
  struct Heads {
    std::vector<Head> open;
    std::optional<std::size_t> lent;
  };

  /// Merges the `merge_factor` smallest segments into one (an extra pass).
  void reduceSegmentCount(std::vector<Bytes>& segments, const Codec* codec);
  /// Heads over segments[0, count) that hold at least one record; the heads
  /// borrow the segments' bytes.
  Heads openHeads(const std::vector<Bytes>& segments, std::size_t count, const Codec* codec);
  /// Advances the head that lent the previous record (not before: its view
  /// points into its current block), then lends the smallest record across
  /// the heads; the lowest index wins key ties, which keeps every merge
  /// stable. nullopt once all heads are exhausted; an exhausted head folds
  /// its decode stats and is erased.
  std::optional<RecordView> popSmallest(Heads& heads);
  void foldStats(const Head& head);

  const JobConfig* config_;
  Counters* counters_;
  ThreadPool* codecPool_;
  std::vector<Bytes> segments_;  // owns the bytes the heads borrow
  Heads heads_;
  u64 residentPeakBytes_ = 0;  // accumulated from exhausted heads
  bool peakReported_ = false;
  // Compressed segment bytes this live stream pins (the decoded-block
  // residency is the separate REDUCE_MERGE_RESIDENT_PEAK_BYTES counter).
  // Atomic (relaxed): read by the telemetry sampler's thread.
  std::atomic<u64> residentSegmentBytes_{0};
  // Declared last: unregisters first, before any state the callback reads.
  obs::GaugeRegistration residentGauge_;
};

}  // namespace scishuffle::hadoop
