#include "hadoop/merge.h"

#include <algorithm>

#include "obs/trace.h"

namespace scishuffle::hadoop {

MergedSegmentStream::MergedSegmentStream(std::vector<Bytes> segments, const Codec* codec,
                                         const JobConfig& config, Counters& counters,
                                         ThreadPool* codecPool)
    : config_(&config),
      counters_(&counters),
      codecPool_(codecPool),
      residentGauge_(obs::processGauges().add(obs::gauge::kMergeResidentBytes, [this] {
        return residentSegmentBytes_.load(std::memory_order_relaxed);
      })) {
  obs::ScopedSpan span("merge_open", "merge");
  span.arg("segments", segments.size());
  // Multi-pass merging: while too many segments, merge the smallest
  // merge_factor of them into one re-materialized segment.
  while (static_cast<int>(segments.size()) > config.merge_factor) {
    counters.add(counter::kReduceMergePasses, 1);
    reduceSegmentCount(segments, codec);
  }

  // Heads borrow spans of segments_; keep the bytes alive for the stream's
  // lifetime and hold only the current decoded block per segment.
  segments_ = std::move(segments);
  u64 pinned = 0;
  for (const Bytes& segment : segments_) pinned += segment.size();
  residentSegmentBytes_.store(pinned, std::memory_order_relaxed);
  heads_ = openHeads(segments_, segments_.size(), codec);
}

void MergedSegmentStream::reduceSegmentCount(std::vector<Bytes>& segments, const Codec* codec) {
  // Pick the merge_factor smallest segments (Hadoop merges small ones first).
  std::stable_sort(segments.begin(), segments.end(),
                   [](const Bytes& a, const Bytes& b) { return a.size() < b.size(); });
  const std::size_t take = std::min<std::size_t>(static_cast<std::size_t>(config_->merge_factor),
                                                 segments.size());
  obs::ScopedSpan span("merge_pass", "merge");
  span.arg("segments_in", take);

  // Stream the pass: k-way merge through block-at-a-time readers into a
  // block-framed writer, never materializing the decoded records wholesale.
  Heads heads = openHeads(segments, take, codec);
  IFileBlockWriter writer(codec, config_->shuffle_block_bytes, codecPool_);
  while (const auto record = popSmallest(heads)) writer.append(record->key, record->value);
  Bytes merged = writer.close();
  counters_->add(counter::kCodecCompressCpuUs, writer.compressCpuUs());
  counters_->add(counter::kReduceMergeMaterializedBytes, merged.size());
  span.arg("materialized_bytes", merged.size());

  segments.erase(segments.begin(), segments.begin() + static_cast<std::ptrdiff_t>(take));
  segments.push_back(std::move(merged));
}

MergedSegmentStream::Heads MergedSegmentStream::openHeads(const std::vector<Bytes>& segments,
                                                          std::size_t count, const Codec* codec) {
  Heads heads;
  for (std::size_t i = 0; i < count; ++i) {
    Head head;
    head.source = std::make_unique<BlockDecodeSource>(segments[i], codec, codecPool_,
                                                      config_->fault_injector);
    head.records = std::make_unique<IFileStreamReader>(*head.source);
    if (const auto record = head.records->next()) {
      head.record = *record;
      heads.open.push_back(std::move(head));
    } else {
      foldStats(head);
    }
  }
  return heads;
}

std::optional<RecordView> MergedSegmentStream::popSmallest(Heads& heads) {
  std::vector<Head>& open = heads.open;
  if (heads.lent) {
    Head& head = open[*heads.lent];
    if (const auto record = head.records->next()) {
      head.record = *record;
    } else {
      foldStats(head);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(*heads.lent));
    }
    heads.lent.reset();
  }
  if (open.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t i = 1; i < open.size(); ++i) {
    if (lexicographicLess(open[i].record.key, open[best].record.key)) best = i;
  }
  heads.lent = best;
  return open[best].record;
}

void MergedSegmentStream::foldStats(const Head& head) {
  counters_->add(counter::kCodecDecompressCpuUs, head.source->decompressCpuUs());
  residentPeakBytes_ += head.source->residentPeakBytes();
}

std::optional<RecordView> MergedSegmentStream::next() {
  const std::optional<RecordView> out = popSmallest(heads_);
  if (!out && !peakReported_) {
    peakReported_ = true;
    counters_->add(counter::kReduceMergeResidentPeakBytes, residentPeakBytes_);
  }
  return out;
}

}  // namespace scishuffle::hadoop
