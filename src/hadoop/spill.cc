#include "hadoop/spill.h"

#include <algorithm>
#include <limits>

#include "io/clock.h"
#include "obs/trace.h"

namespace scishuffle::hadoop {

namespace {

/// IFile frames both lengths as a signed 32-bit vint.
constexpr std::size_t kMaxFieldBytes = std::numeric_limits<i32>::max();

}  // namespace

MapOutputBuffer::IndexEntry MapOutputBuffer::IndexEntry::append(Bytes& arena, ByteSpan key,
                                                                ByteSpan value) {
  check(key.size() <= kMaxFieldBytes && value.size() <= kMaxFieldBytes,
        "record key or value exceeds the IFile length limit");
  const IndexEntry entry{arena.size(), static_cast<u32>(key.size()),
                         static_cast<u32>(value.size())};
  arena.insert(arena.end(), key.begin(), key.end());
  arena.insert(arena.end(), value.begin(), value.end());
  return entry;
}

MapOutputBuffer::MapOutputBuffer(const JobConfig& config, const Codec* codec, Counters& counters,
                                 ThreadPool* codecPool)
    : config_(&config),
      codec_(codec),
      counters_(&counters),
      codecPool_(codecPool),
      index_(static_cast<std::size_t>(config.num_reducers)),
      bufferedGauge_(obs::processGauges().add(obs::gauge::kSpillBufferedBytes, [this] {
        return static_cast<u64>(bufferedBytes_.load(std::memory_order_relaxed));
      })) {}

Bytes MapOutputBuffer::writeSegment(ByteSpan arena, const std::vector<IndexEntry>& index) {
  IFileBlockWriter writer(codec_, config_->shuffle_block_bytes, codecPool_);
  for (const IndexEntry& entry : index) writer.append(entry.key(arena), entry.value(arena));
  Bytes segment = writer.close();
  counters_->add(counter::kCodecCompressCpuUs, writer.compressCpuUs());
  return segment;
}

void MapOutputBuffer::readSegmentRecords(const Bytes& segment, Bytes& arena,
                                         std::vector<IndexEntry>& index) {
  BlockDecodeSource source(segment, codec_, codecPool_);
  IFileStreamReader reader(source);
  while (const auto record = reader.next()) {
    index.push_back(IndexEntry::append(arena, record->key, record->value));
  }
  counters_->add(counter::kCodecDecompressCpuUs, source.decompressCpuUs());
}

void MapOutputBuffer::collect(int partition, ByteSpan key, ByteSpan value) {
  check(partition >= 0 && partition < config_->num_reducers, "partition out of range");
  index_[static_cast<std::size_t>(partition)].push_back(IndexEntry::append(arena_, key, value));
  ++outputRecords_;
  outputBytes_ += key.size() + value.size();
  const std::size_t buffered = bufferedBytes_.load(std::memory_order_relaxed) + key.size() +
                               value.size() + sizeof(IndexEntry);
  bufferedBytes_.store(buffered, std::memory_order_relaxed);
  if (buffered >= config_->spill_buffer_bytes) spill();
}

ByteSpan MapOutputBuffer::sortAndCombine(ByteSpan arena, std::vector<IndexEntry>& index,
                                         Bytes& combined) {
  const auto sortByKey = [](ByteSpan records, std::vector<IndexEntry>& entries) {
    std::stable_sort(entries.begin(), entries.end(),
                     [records](const IndexEntry& a, const IndexEntry& b) {
                       return lexicographicLess(a.key(records), b.key(records));
                     });
  };
  obs::ScopedSpan span("sort", "spill");
  span.arg("records", index.size());
  const u64 sortStart = threadCpuUs();
  sortByKey(arena, index);
  sortCpuUs_ += threadCpuUs() - sortStart;
  if (!config_->combiner) return arena;

  // ReduceFn takes owned values, so only a job with a combiner copies them.
  combined.clear();
  std::vector<IndexEntry> out;
  const EmitFn emit = [&](Bytes key, Bytes value) {
    out.push_back(IndexEntry::append(combined, key, value));
  };
  std::vector<Bytes> values;
  std::size_t i = 0;
  while (i < index.size()) {
    const ByteSpan key = index[i].key(arena);
    std::size_t j = i + 1;
    while (j < index.size() && std::ranges::equal(index[j].key(arena), key)) ++j;
    values.clear();
    for (std::size_t k = i; k < j; ++k) {
      const ByteSpan value = index[k].value(arena);
      values.emplace_back(value.begin(), value.end());
    }
    combineInputRecords_ += j - i;
    config_->combiner(Bytes(key.begin(), key.end()), values, emit);
    i = j;
  }
  combineOutputRecords_ += out.size();
  // The combiner may emit out of order; restore the segment invariant.
  sortByKey(combined, out);
  index = std::move(out);
  return combined;
}

void MapOutputBuffer::spill() {
  obs::ScopedSpan span("spill", "spill");
  span.arg("buffered_bytes", bufferedBytes_.load(std::memory_order_relaxed));
  std::vector<Bytes> segments(index_.size());
  Bytes combined;
  for (std::size_t p = 0; p < index_.size(); ++p) {
    const ByteSpan records = sortAndCombine(arena_, index_[p], combined);
    spilledRecords_ += index_[p].size();
    segments[p] = writeSegment(records, index_[p]);
    index_[p].clear();
  }
  spills_.push_back(std::move(segments));
  arena_.clear();
  bufferedBytes_.store(0, std::memory_order_relaxed);
}

MapOutput MapOutputBuffer::finish() {
  spill();  // flush the tail (Hadoop always spills at least once)
  // Collection is over: free the buffer before the merge builds its own.
  arena_ = Bytes();
  for (auto& index : index_) index = std::vector<IndexEntry>();

  obs::ScopedSpan span("spill_merge", "spill");
  span.arg("spills", spills_.size());
  MapOutput out;
  out.segments.resize(index_.size());
  for (std::size_t p = 0; p < index_.size(); ++p) {
    if (spills_.size() == 1) {
      out.segments[p] = std::move(spills_[0][p]);
    } else {
      // Merge the sorted spill segments for this partition; rerun the
      // combiner across spill boundaries as Hadoop does for >= 2 spills.
      // Decoding in spill order before the stable sort keeps equal keys in
      // collect order.
      Bytes arena;
      std::vector<IndexEntry> index;
      for (const auto& segments : spills_) readSegmentRecords(segments[p], arena, index);
      Bytes combined;
      const ByteSpan records = sortAndCombine(arena, index, combined);
      out.segments[p] = writeSegment(records, index);
    }
    counters_->add(counter::kMapOutputMaterializedBytes, out.segments[p].size());
  }
  spills_.clear();

  // Only counters the task touched: a task without output lists no
  // MAP_OUTPUT_RECORDS/BYTES, a job without a combiner no COMBINE_* entries.
  if (outputRecords_ > 0) {
    counters_->add(counter::kMapOutputRecords, outputRecords_);
    counters_->add(counter::kMapOutputBytes, outputBytes_);
  }
  counters_->add(counter::kSpilledRecords, spilledRecords_);
  counters_->add(counter::kSortCpuUs, sortCpuUs_);
  if (combineInputRecords_ > 0) {
    counters_->add(counter::kCombineInputRecords, combineInputRecords_);
  }
  if (combineOutputRecords_ > 0) {
    counters_->add(counter::kCombineOutputRecords, combineOutputRecords_);
  }
  return out;
}

}  // namespace scishuffle::hadoop
