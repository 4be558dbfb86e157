#include "hadoop/spill.h"

#include <algorithm>

#include "io/clock.h"
#include "obs/trace.h"

namespace scishuffle::hadoop {

MapOutputBuffer::MapOutputBuffer(const JobConfig& config, const Codec* codec, Counters& counters,
                                 ThreadPool* codecPool)
    : config_(&config),
      codec_(codec),
      counters_(&counters),
      codecPool_(codecPool),
      bufferedGauge_(obs::processGauges().add(obs::gauge::kSpillBufferedBytes, [this] {
        return static_cast<u64>(bufferedBytes_.load(std::memory_order_relaxed));
      })) {
  buffer_.resize(static_cast<std::size_t>(config.num_reducers));
}

Bytes MapOutputBuffer::writeSegment(const std::vector<KeyValue>& records) {
  IFileBlockWriter writer(codec_, config_->shuffle_block_bytes, codecPool_);
  for (const KeyValue& kv : records) writer.append(kv.key, kv.value);
  Bytes segment = writer.close();
  counters_->add(counter::kCodecCompressCpuUs, writer.compressCpuUs());
  return segment;
}

std::vector<KeyValue> MapOutputBuffer::readSegmentRecords(const Bytes& segment) {
  std::vector<KeyValue> records;
  BlockDecodeSource source(segment, codec_, codecPool_);
  IFileStreamReader reader(source);
  while (auto kv = reader.next()) records.push_back(std::move(*kv));
  counters_->add(counter::kCodecDecompressCpuUs, source.decompressCpuUs());
  return records;
}

void MapOutputBuffer::collect(int partition, KeyValue kv) {
  check(partition >= 0 && partition < config_->num_reducers, "partition out of range");
  counters_->add(counter::kMapOutputRecords, 1);
  counters_->add(counter::kMapOutputBytes, kv.key.size() + kv.value.size());
  bufferedBytes_.fetch_add(kv.key.size() + kv.value.size(), std::memory_order_relaxed);
  buffer_[static_cast<std::size_t>(partition)].push_back(std::move(kv));
  if (bufferedBytes_.load(std::memory_order_relaxed) >= config_->spill_buffer_bytes) spill();
}

std::vector<KeyValue> MapOutputBuffer::sortAndCombine(std::vector<KeyValue>&& records,
                                                      bool useCombiner) {
  obs::ScopedSpan span("sort", "spill");
  span.arg("records", records.size());
  const u64 sortStart = steadyNowUs();
  std::stable_sort(records.begin(), records.end(), [&](const KeyValue& a, const KeyValue& b) {
    return config_->key_less(a.key, b.key);
  });
  counters_->add(counter::kSortCpuUs, steadyNowUs() - sortStart);
  if (!useCombiner || !config_->combiner) return std::move(records);

  std::vector<KeyValue> combined;
  const EmitFn emit = [&](Bytes key, Bytes value) {
    counters_->add(counter::kCombineOutputRecords, 1);
    combined.push_back(KeyValue{std::move(key), std::move(value)});
  };
  std::size_t i = 0;
  while (i < records.size()) {
    std::size_t j = i + 1;
    while (j < records.size() && records[j].key == records[i].key) ++j;
    std::vector<Bytes> values;
    values.reserve(j - i);
    for (std::size_t k = i; k < j; ++k) values.push_back(std::move(records[k].value));
    counters_->add(counter::kCombineInputRecords, values.size());
    config_->combiner(records[i].key, values, emit);
    i = j;
  }
  // The combiner may emit out of order; restore the segment invariant.
  std::stable_sort(combined.begin(), combined.end(), [&](const KeyValue& a, const KeyValue& b) {
    return config_->key_less(a.key, b.key);
  });
  return combined;
}

void MapOutputBuffer::spill() {
  obs::ScopedSpan span("spill", "spill");
  span.arg("buffered_bytes", bufferedBytes_.load(std::memory_order_relaxed));
  std::vector<Bytes> segments(buffer_.size());
  for (std::size_t p = 0; p < buffer_.size(); ++p) {
    auto records = sortAndCombine(std::move(buffer_[p]), /*useCombiner=*/true);
    buffer_[p].clear();
    counters_->add(counter::kSpilledRecords, records.size());
    segments[p] = writeSegment(records);
  }
  spills_.push_back(std::move(segments));
  bufferedBytes_.store(0, std::memory_order_relaxed);
}

MapOutput MapOutputBuffer::finish() {
  spill();  // flush the tail (Hadoop always spills at least once)

  obs::ScopedSpan span("spill_merge", "spill");
  span.arg("spills", spills_.size());
  MapOutput out;
  out.segments.resize(buffer_.size());
  for (std::size_t p = 0; p < buffer_.size(); ++p) {
    if (spills_.size() == 1) {
      out.segments[p] = std::move(spills_[0][p]);
    } else {
      // Merge the sorted spill segments for this partition; rerun the
      // combiner across spill boundaries as Hadoop does for >= 2 spills.
      std::vector<KeyValue> all;
      for (const auto& segments : spills_) {
        for (auto& kv : readSegmentRecords(segments[p])) all.push_back(std::move(kv));
      }
      auto records = sortAndCombine(std::move(all), /*useCombiner=*/true);
      out.segments[p] = writeSegment(records);
    }
    counters_->add(counter::kMapOutputMaterializedBytes, out.segments[p].size());
  }
  spills_.clear();
  return out;
}

}  // namespace scishuffle::hadoop
