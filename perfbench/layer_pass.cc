#include "layer_pass.h"

#include <algorithm>
#include <memory>

#include "bench_util/bench_util.h"
#include "compress/block_format.h"
#include "compress/codec.h"
#include "hadoop/merge.h"
#include "measure.h"
#include "transform/predictive_transform.h"
#include "transform/transform_codec.h"

namespace perfbench {

namespace hadoop = scishuffle::hadoop;
namespace obs = scishuffle::obs;
using scishuffle::Bytes;
using scishuffle::Codec;
using scishuffle::ThreadPool;

namespace {

/// Transform and codec throughput is measured on at most this many raw
/// blocks per pass, picked evenly across all segments, which bounds the
/// pass on the 58 MB median_simple_null input.
constexpr std::size_t kMaxCodecBlocks = 32;

constexpr double kMB = 1e6;

/// A span in the benchmark's trace plus a wall timer over the same call.
class LayerSpan {
 public:
  LayerSpan(obs::TraceRecorder& trace, const char* name, const char* category)
      : span_(&trace, name, category) {}

  void arg(const char* key, u64 value) { span_.arg(key, value); }

  double seconds() const { return timer_.seconds(); }

 private:
  obs::ScopedSpan span_;
  scishuffle::bench::Timer timer_;
};

struct EmitTally {
  u64 records = 0;
  u64 key_bytes = 0;
  u64 value_bytes = 0;
  double seconds = 0;
};

/// Runs every map closure against a counting EmitFn: the scikey layer's
/// work (key construction, aggregation) without routing, sorting or I/O.
EmitTally emitPass(const Workload& w, obs::TraceRecorder& trace) {
  EmitTally tally;
  const hadoop::EmitFn emit = [&tally](Bytes key, Bytes value) {
    ++tally.records;
    tally.key_bytes += key.size();
    tally.value_bytes += value.size();
  };
  for (std::size_t m = 0; m < w.job.map_tasks.size(); ++m) {
    LayerSpan span(trace, "scikey.emit", "scikey");
    span.arg("task", m);
    w.job.map_tasks[m].run(emit);
    tally.seconds += span.seconds();
  }
  return tally;
}

struct MapPass {
  std::vector<hadoop::MapOutput> outputs;
  std::vector<double> task_seconds;
};

MapPass mapPass(const Workload& w, const hadoop::JobConfig& config, const Codec* codec,
                ThreadPool& pool, obs::TraceRecorder& trace, const char* spanName) {
  MapPass pass;
  for (std::size_t m = 0; m < w.job.map_tasks.size(); ++m) {
    LayerSpan span(trace, spanName, "hadoop");
    span.arg("task", m);
    hadoop::MapTaskExecution exec =
        hadoop::executeMapTask(config, codec, &pool, w.job.map_tasks[m], m);
    pass.task_seconds.push_back(span.seconds());
    span.arg("records", exec.counters.get(hadoop::counter::kMapOutputRecords));
    pass.outputs.push_back(std::move(exec.output));
  }
  return pass;
}

std::vector<Bytes> reducerSegments(const MapPass& pass, int reducer) {
  std::vector<Bytes> segments;
  for (const hadoop::MapOutput& out : pass.outputs) {
    segments.push_back(out.segments[static_cast<std::size_t>(reducer)]);
  }
  return segments;
}

/// The raw (pre-codec) blocks of the job's segments, exactly as the block
/// writer cut them at shuffle_block_bytes: decoded from the null-codec pass.
std::vector<Bytes> sampledRawBlocks(const MapPass& nullPass) {
  std::vector<Bytes> all;
  for (const hadoop::MapOutput& out : nullPass.outputs) {
    for (const Bytes& segment : out.segments) {
      scishuffle::BlockCompressedReader reader(segment, nullptr);
      while (auto block = reader.nextBlock()) all.push_back(std::move(*block));
    }
  }
  if (all.size() <= kMaxCodecBlocks) return all;
  std::vector<Bytes> picked;
  for (std::size_t i = 0; i < kMaxCodecBlocks; ++i) {
    picked.push_back(std::move(all[i * all.size() / kMaxCodecBlocks]));
  }
  return picked;
}

/// Transform forward/inverse, the inner gzipish codec on the residuals,
/// and null-codec SBF1 framing, each over the sampled raw blocks; every
/// block must round-trip byte-identically.
void codecLayers(const std::vector<Bytes>& blocks, std::size_t blockBytes,
                 obs::TraceRecorder& trace, LayerPass& out) {
  const scishuffle::transform::PredictiveTransform transform;
  const std::unique_ptr<Codec> deflate = scishuffle::CodecRegistry::instance().create("gzipish");
  double rawBytes = 0, zeroResiduals = 0, compressedBytes = 0;
  double forwardS = 0, inverseS = 0, deflateS = 0, inflateS = 0, frameS = 0;
  for (const Bytes& raw : blocks) {
    rawBytes += static_cast<double>(raw.size());
    Bytes residuals;
    {
      LayerSpan span(trace, "transform.forward", "transform");
      span.arg("bytes", raw.size());
      residuals = transform.forward(raw);
      forwardS += span.seconds();
    }
    zeroResiduals += static_cast<double>(std::count(residuals.begin(), residuals.end(), 0));
    Bytes restored;
    {
      LayerSpan span(trace, "transform.inverse", "transform");
      span.arg("bytes", residuals.size());
      restored = transform.inverse(residuals);
      inverseS += span.seconds();
    }
    if (restored != raw) out.failures.push_back("transform block did not round-trip");
    Bytes compressed;
    {
      LayerSpan span(trace, "compress.deflate", "compress");
      span.arg("bytes", residuals.size());
      compressed = deflate->compress(residuals);
      deflateS += span.seconds();
    }
    compressedBytes += static_cast<double>(compressed.size());
    {
      LayerSpan span(trace, "compress.inflate", "compress");
      span.arg("bytes", compressed.size());
      restored = deflate->decompress(compressed);
      inflateS += span.seconds();
    }
    if (restored != residuals) out.failures.push_back("gzipish block did not round-trip");
    Bytes framed;
    {
      LayerSpan span(trace, "compress.frame", "compress");
      span.arg("bytes", raw.size());
      framed = scishuffle::blockCompress(raw, nullptr, blockBytes);
      frameS += span.seconds();
    }
    if (scishuffle::blockDecompressAll(framed, nullptr) != raw) {
      out.failures.push_back("SBF1 frame did not round-trip");
    }
  }
  out.metrics["transform.forward_mb_s"] = rawBytes / kMB / forwardS;
  out.metrics["transform.inverse_mb_s"] = rawBytes / kMB / inverseS;
  out.metrics["transform.predicted_frac"] = zeroResiduals / rawBytes;
  out.metrics["compress.deflate_mb_s"] = rawBytes / kMB / deflateS;
  out.metrics["compress.inflate_mb_s"] = rawBytes / kMB / inflateS;
  out.metrics["compress.ratio"] = rawBytes / compressedBytes;
  out.metrics["compress.frame_mb_s"] = rawBytes / kMB / frameS;
}

}  // namespace

const std::vector<LayerMetric>& layerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"scikey.emit_s", "s"},
      {"scikey.records", "count"},
      {"scikey.key_bytes", "B"},
      {"scikey.value_bytes", "B"},
      {"scikey.key_splits", "count"},
      {"hadoop.map_task_s", "s"},
      {"hadoop.spill_s", "s"},
      {"hadoop.spill_records_per_s", "1/s"},
      {"hadoop.segment_bytes", "B"},
      {"hadoop.shuffle_window_s", "s"},
      {"hadoop.shuffle_overlap_frac", "ratio"},
      {"hadoop.reduce_tail_s", "s"},
      {"hadoop.merge_s", "s"},
      {"hadoop.reduce_task_s", "s"},
      {"hadoop.reduce_task_max_s", "s"},
      {"hadoop.group_reduce_s", "s"},
      {"hadoop.merge_resident_peak_bytes", "B"},
      {"transform.forward_mb_s", "MB/s"},
      {"transform.inverse_mb_s", "MB/s"},
      {"transform.predicted_frac", "ratio"},
      {"compress.deflate_mb_s", "MB/s"},
      {"compress.inflate_mb_s", "MB/s"},
      {"compress.ratio", "ratio"},
      {"compress.frame_mb_s", "MB/s"},
      {"obs.trace_overhead", "ratio"},
      {"obs.sampler_overhead", "ratio"},
  };
  return metrics;
}

LayerPass runLayerPass(const Workload& w, const Reference& reference, ThreadPool& codecPool,
                       obs::TraceRecorder& trace) {
  obs::ScopedSpan passSpan(&trace, "layer_pass", "perfbench");
  LayerPass out;
  const hadoop::JobConfig& config = w.job.job;
  scishuffle::registerTransformCodecs();
  const std::unique_ptr<Codec> codec =
      config.intermediate_codec == "null"
          ? nullptr
          : scishuffle::CodecRegistry::instance().create(config.intermediate_codec);

  // scikey: the map functions alone.
  const EmitTally emitted = emitPass(w, trace);
  out.metrics["scikey.emit_s"] = emitted.seconds;
  out.metrics["scikey.records"] = static_cast<double>(emitted.records);
  out.metrics["scikey.key_bytes"] = static_cast<double>(emitted.key_bytes);
  out.metrics["scikey.value_bytes"] = static_cast<double>(emitted.value_bytes);

  // hadoop map side: with the workload codec, then with none.
  const u64 routingSplitsBefore =
      w.job.routing_counters ? w.job.routing_counters->get(hadoop::counter::kKeySplitsRouting) : 0;
  const MapPass mapped = mapPass(w, config, codec.get(), codecPool, trace, "hadoop.map_task");
  const u64 routingSplits =
      w.job.routing_counters
          ? w.job.routing_counters->get(hadoop::counter::kKeySplitsRouting) - routingSplitsBefore
          : 0;
  for (const hadoop::MapOutput& o : mapped.outputs) {
    for (const Bytes& segment : o.segments) out.segment_bytes += segment.size();
  }
  out.metrics["hadoop.map_task_s"] = median(mapped.task_seconds);
  out.metrics["hadoop.segment_bytes"] = static_cast<double>(out.segment_bytes);

  hadoop::JobConfig nullConfig = config;
  nullConfig.intermediate_codec = "null";
  const MapPass spilled = mapPass(w, nullConfig, nullptr, codecPool, trace, "hadoop.map_task_null");
  double nullMapS = 0;
  for (const double s : spilled.task_seconds) nullMapS += s;
  const double spillS = nullMapS - emitted.seconds;
  out.metrics["hadoop.spill_s"] = spillS;
  out.metrics["hadoop.spill_records_per_s"] = static_cast<double>(emitted.records) / spillS;

  // hadoop reduce side, per reducer: drain the merge alone, then the whole
  // reduce task over the same segments.
  hadoop::JobResult reduced;
  reduced.outputs.resize(static_cast<std::size_t>(config.num_reducers));
  std::vector<double> mergeS, reduceS, groupS;
  u64 residentPeak = 0, overlapSplits = 0;
  for (int r = 0; r < config.num_reducers; ++r) {
    {
      std::vector<Bytes> segments = reducerSegments(mapped, r);
      hadoop::Counters counters;
      LayerSpan span(trace, "hadoop.merge", "hadoop");
      span.arg("reducer", static_cast<u64>(r));
      hadoop::MergedSegmentStream stream(std::move(segments), codec.get(), config, counters,
                                         &codecPool);
      u64 records = 0;
      while (stream.next()) ++records;
      mergeS.push_back(span.seconds());
      span.arg("records", records);
    }
    const std::vector<Bytes> segments = reducerSegments(mapped, r);
    LayerSpan span(trace, "hadoop.reduce_task", "hadoop");
    span.arg("reducer", static_cast<u64>(r));
    hadoop::ReduceTaskExecution exec =
        hadoop::executeReduceTask(config, codec.get(), &codecPool, w.job.reduce, segments, r);
    reduceS.push_back(span.seconds());
    groupS.push_back(reduceS.back() - mergeS.back());
    residentPeak = std::max(residentPeak, exec.stats.merge_resident_peak_bytes);
    overlapSplits += exec.counters.get(hadoop::counter::kKeySplitsOverlap);
    reduced.outputs[static_cast<std::size_t>(r)] = std::move(exec.output);
  }
  out.metrics["hadoop.merge_s"] = median(mergeS);
  out.metrics["hadoop.reduce_task_s"] = median(reduceS);
  out.metrics["hadoop.reduce_task_max_s"] = maxOf(reduceS);
  out.metrics["hadoop.group_reduce_s"] = median(groupS);
  out.metrics["hadoop.merge_resident_peak_bytes"] = static_cast<double>(residentPeak);
  out.metrics["scikey.key_splits"] = static_cast<double>(routingSplits + overlapSplits);
  if (const std::string wrong = verifyOutput(w, reference, reduced); !wrong.empty()) {
    out.failures.push_back("layer-pass reduce output: " + wrong);
  }

  for (const double s : mapped.task_seconds) out.layer_sum_s += s;
  for (const double s : reduceS) out.layer_sum_s += s;

  codecLayers(sampledRawBlocks(spilled), config.shuffle_block_bytes, trace, out);
  return out;
}

}  // namespace perfbench
