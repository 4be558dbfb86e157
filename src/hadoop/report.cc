#include "hadoop/report.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "obs/json.h"

namespace scishuffle::hadoop {

namespace {

struct Skew {
  u64 min = 0;
  u64 median = 0;
  u64 max = 0;
};

Skew skewOf(std::vector<u64> values) {
  Skew s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.median = values[values.size() / 2];
  s.max = values.back();
  return s;
}

void printSkew(std::ostringstream& os, const char* label, const Skew& s, const char* unit) {
  os << "  " << label << ": min " << s.min << unit << ", median " << s.median << unit << ", max "
     << s.max << unit << "\n";
}

}  // namespace

std::string jobReport(const JobResult& result) {
  namespace c = counter;
  std::ostringstream os;
  os << "=== job report ===\n";
  os << "phases: map " << result.timings.map_phase_us / 1000 << " ms, shuffle "
     << result.timings.shuffle_us / 1000 << " ms, reduce "
     << result.timings.reduce_phase_us / 1000 << " ms";
  if (result.timings.shuffle_overlap_us > 0) {
    os << " (shuffle overlapped map by " << result.timings.shuffle_overlap_us / 1000 << " ms)";
  }
  os << "\n";
  os << "map:    " << result.counters.get(c::kMapOutputRecords) << " records, "
     << result.counters.get(c::kMapOutputBytes) << " bytes, materialized "
     << result.counters.get(c::kMapOutputMaterializedBytes) << " bytes in "
     << result.map_tasks.size() << " tasks\n";
  if (result.counters.get(c::kCombineInputRecords) > 0) {
    os << "combine: " << result.counters.get(c::kCombineInputRecords) << " -> "
       << result.counters.get(c::kCombineOutputRecords) << " records\n";
  }
  os << "shuffle: " << result.counters.get(c::kReduceShuffleBytes) << " bytes to "
     << result.reduce_tasks.size() << " reducers";
  if (result.counters.get(c::kReduceMergePasses) > 0) {
    os << " (+" << result.counters.get(c::kReduceMergePasses) << " merge passes, "
       << result.counters.get(c::kReduceMergeMaterializedBytes) << " bytes)";
  }
  os << "\n";
  if (result.counters.get(c::kReduceMergeResidentPeakBytes) > 0) {
    os << "merge residency: peak " << result.counters.get(c::kReduceMergeResidentPeakBytes)
       << " decoded bytes (max over reduce tasks)\n";
  }
  os << "reduce: " << result.counters.get(c::kReduceInputGroups) << " groups, "
     << result.counters.get(c::kReduceOutputRecords) << " output records\n";
  // Recovery counters: present whenever the retry layer did any work, so a
  // run that survived faults says so (see docs/FAULTS.md).
  if (result.counters.get(c::kShuffleFetchRetries) > 0 ||
      result.counters.get(c::kBlocksCorruptDetected) > 0 ||
      result.counters.get(c::kSegmentsRefetched) > 0) {
    os << "recovery: " << result.counters.get(c::kShuffleFetchRetries) << " fetch retries, "
       << result.counters.get(c::kBlocksCorruptDetected) << " corrupt blocks detected, "
       << result.counters.get(c::kSegmentsRefetched) << " segments re-fetched\n";
  }
  // Aggregation-path counters (§IV): present whenever aggregate keys flowed
  // through the job, so those runs are self-describing.
  if (result.counters.get(c::kKeySplitsOverlap) > 0 ||
      result.counters.get(c::kKeySplitsRouting) > 0 ||
      result.counters.get(c::kAggregateFlushes) > 0) {
    os << "aggregation: " << result.counters.get(c::kAggregateFlushes)
       << " aggregate flushes, key splits: routing "
       << result.counters.get(c::kKeySplitsRouting) << ", overlap "
       << result.counters.get(c::kKeySplitsOverlap) << "\n";
  }

  // Per-task skew (stragglers are what the event simulator models).
  std::vector<u64> mapCpu;
  std::vector<u64> mapBytes;
  for (const auto& t : result.map_tasks) {
    mapCpu.push_back(t.cpu_us / 1000);
    mapBytes.push_back(std::accumulate(t.segment_bytes.begin(), t.segment_bytes.end(), u64{0}));
  }
  std::vector<u64> reduceBytes;
  std::vector<u64> reduceRecords;
  std::vector<u64> reduceCpu;
  for (const auto& t : result.reduce_tasks) {
    reduceBytes.push_back(t.shuffled_bytes);
    reduceRecords.push_back(t.input_records);
    reduceCpu.push_back(t.cpu_us / 1000);
  }
  os << "skew:\n";
  printSkew(os, "map cpu", skewOf(std::move(mapCpu)), " ms");
  printSkew(os, "map output", skewOf(std::move(mapBytes)), " B");
  printSkew(os, "reduce input", skewOf(std::move(reduceBytes)), " B");
  printSkew(os, "reduce records", skewOf(std::move(reduceRecords)), "");
  printSkew(os, "reduce cpu", skewOf(std::move(reduceCpu)), " ms");

  // Per-stage histograms (JobConfig::collect_histograms).
  if (!result.telemetry.histograms.empty()) {
    os << "histograms (" << result.telemetry.span_count << " spans):\n";
    for (const auto& h : result.telemetry.histograms) {
      os << "  " << h.name << ": n=" << h.count << " p50=" << h.p50() << " p95=" << h.p95()
         << " p99=" << h.p99() << " max=" << h.max << " " << h.unit << "\n";
    }
  }
  return os.str();
}

std::string jobReportJson(const JobResult& result) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.beginObject();
  w.kv("schema", "scishuffle.job_report.v1");

  w.key("timings").beginObject();
  w.kv("map_phase_us", result.timings.map_phase_us);
  w.kv("shuffle_us", result.timings.shuffle_us);
  w.kv("reduce_phase_us", result.timings.reduce_phase_us);
  w.kv("shuffle_overlap_us", result.timings.shuffle_overlap_us);
  w.endObject();

  w.key("counters").beginObject();
  for (const auto& [name, value] : result.counters.snapshot()) w.kv(name, value);
  w.endObject();

  w.key("map_tasks").beginArray();
  for (const auto& t : result.map_tasks) {
    w.beginObject();
    w.kv("cpu_us", t.cpu_us);
    w.key("segment_bytes").beginArray();
    for (const u64 b : t.segment_bytes) w.value(b);
    w.endArray();
    w.endObject();
  }
  w.endArray();

  w.key("reduce_tasks").beginArray();
  for (const auto& t : result.reduce_tasks) {
    w.beginObject();
    w.kv("cpu_us", t.cpu_us);
    w.kv("input_records", t.input_records);
    w.kv("shuffled_bytes", t.shuffled_bytes);
    w.kv("merge_materialized_bytes", t.merge_materialized_bytes);
    w.kv("merge_resident_peak_bytes", t.merge_resident_peak_bytes);
    w.kv("output_bytes", t.output_bytes);
    w.endObject();
  }
  w.endArray();

  w.key("telemetry");
  result.telemetry.writeJson(w);

  w.endObject();
  os << "\n";
  return os.str();
}

std::string jobSummaryLine(const JobResult& result) {
  namespace c = counter;
  std::ostringstream os;
  os << result.counters.get(c::kMapOutputRecords) << " map records -> "
     << result.counters.get(c::kMapOutputMaterializedBytes) << " materialized bytes -> "
     << result.counters.get(c::kReduceOutputRecords) << " outputs in "
     << (result.timings.map_phase_us + result.timings.reduce_phase_us) / 1000 << " ms";
  return os.str();
}

}  // namespace scishuffle::hadoop
