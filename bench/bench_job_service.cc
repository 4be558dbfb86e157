// Job-service throughput under the memory governor: a fleet of mixed-codec
// word-count jobs runs through one JobService at 1, 4 and 8 concurrent
// slots. For each level the bench reports jobs/min, the p95 admission-queue
// wait, and the governor's sampled peak RSS — and asserts two invariants:
// every job's output is bit-identical to the reference evaluation, and
// the governed peak stays under the budget (~1.5x the single-job pipelined
// peak, floored with fixed headroom so allocator noise on small machines
// cannot flake the run). Results land in BENCH_job_service.json.
//
// `--quick` shrinks the fleet (4 jobs at 1 and 2 slots) for the tier-1 CI
// smoke run; the full sweep stays bounded at a few seconds.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_util/bench_util.h"
#include "hadoop/reference.h"
#include "hadoop/runtime.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "service/job_service.h"

using namespace scishuffle;
using hadoop::JobResult;
using hadoop::MapTask;

namespace {

// Peak RSS, resettable between runs: malloc_trim drops the allocator's
// retained floor, clear_refs resets VmHWM so each configuration measures its
// own high-water mark.
void resetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5\n";
}

u64 peakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      u64 kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<u64>(usage.ru_maxrss) * 1024;
}

Bytes toBytes(const std::string& s) {
  return Bytes(reinterpret_cast<const u8*>(s.data()),
               reinterpret_cast<const u8*>(s.data()) + s.size());
}

Bytes encodeI64(i64 v) {
  Bytes out;
  MemorySink sink(out);
  writeI64(sink, v);
  return out;
}

i64 decodeI64(const Bytes& b) {
  MemorySource src(b);
  return readI64(src);
}

service::JobSpec wordcountSpec(const std::string& name, const std::string& codec, int maps,
                               int words) {
  service::JobSpec spec;
  spec.name = name;
  spec.config.num_reducers = 3;
  spec.config.intermediate_codec = codec;
  spec.config.map_slots = 2;
  spec.config.reduce_slots = 2;
  const std::vector<std::string> vocab = {"the", "windspeed", "grid", "key",
                                          "map", "reduce",    "sci", "curve"};
  for (int m = 0; m < maps; ++m) {
    spec.map_tasks.push_back(MapTask{[m, words, vocab](const hadoop::EmitFn& emit) {
      for (int i = 0; i < words; ++i) {
        emit(toBytes(vocab[static_cast<std::size_t>((i * 7 + m) % 8)]), encodeI64(1));
      }
    }});
  }
  spec.reduce = [](const Bytes& key, std::vector<Bytes>& values, const hadoop::EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) sum += decodeI64(v);
    emit(key, encodeI64(sum));
  };
  return spec;
}

u64 p95(std::vector<u64> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t idx = (values.size() * 95 + 99) / 100;  // ceil(0.95n)
  return values[std::min(values.size() - 1, idx == 0 ? 0 : idx - 1)];
}

struct LevelStats {
  int concurrency = 0;
  int jobs = 0;
  double wall_s = 0;
  double jobs_per_min = 0;
  u64 p95_queue_wait_us = 0;
  u64 governor_peak_rss_bytes = 0;
  u64 vmhwm_peak_rss_bytes = 0;
  u64 throttle_events = 0;
  u64 segments_overflowed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  bench::banner("job-service scheduler: governed multi-tenant throughput" +
                std::string(quick ? " (quick)" : ""));

  const std::vector<std::string> codecs = {"null", "gzipish", "transform+gzipish", "bzip2ish"};
  const int maps = 4;
  const int words = quick ? 5000 : 40000;
  const int fleetJobs = quick ? 4 : 8;
  const std::vector<int> levels = quick ? std::vector<int>{1, 2} : std::vector<int>{1, 4, 8};

  // The reference evaluation every service run must reproduce bit for bit
  // (the same for every codec).
  const service::JobSpec referenceSpec = wordcountSpec("reference", "null", maps, words);
  const auto expected = hadoop::referenceOutputs(referenceSpec.config, referenceSpec.map_tasks,
                                                 referenceSpec.reduce);

  // Single-job pipelined peak: the yardstick the budget derives from.
  resetPeakRss();
  {
    service::ServiceConfig one;
    one.max_concurrent_jobs = 1;
    const JobResult r =
        service::runOneJob(wordcountSpec("sizing", "transform+gzipish", maps, words), one);
    check(r.outputs == expected, "sizing run diverged");
  }
  const u64 singlePeak = peakRssBytes();
  // ~1.5x the single-job peak; the fixed floor keeps allocator jitter on
  // small datasets from turning the invariant into a coin flip.
  const u64 budget = std::max<u64>(singlePeak + singlePeak / 2, singlePeak + (48ull << 20));
  std::cout << "single-job pipelined peak " << bench::humanBytes(static_cast<double>(singlePeak))
            << ", governor budget " << bench::humanBytes(static_cast<double>(budget)) << "\n\n";

  const auto overflowDir = std::filesystem::temp_directory_path() / "bench_job_service_ovf";
  std::vector<LevelStats> rows;
  for (const int concurrency : levels) {
    resetPeakRss();
    service::ServiceConfig config;
    config.max_concurrent_jobs = concurrency;
    config.queue_capacity = static_cast<std::size_t>(fleetJobs) + 1;
    config.memory_budget_bytes = budget;
    config.governor_interval_ms = 2;
    // Reserve scaled to the measured single-job peak: admission paces the
    // burst so in-flight jobs never collectively outrun the budget.
    config.job_reserve_bytes = std::max<u64>(8ull << 20, singlePeak / 2);
    config.overflow_dir = overflowDir;
    service::JobService svc(config);

    bench::Timer timer;
    std::vector<u64> submitted;
    for (int j = 0; j < fleetJobs; ++j) {
      const std::string& codec = codecs[static_cast<std::size_t>(j) % codecs.size()];
      const service::SubmitResult r =
          svc.submit(wordcountSpec("fleet" + std::to_string(j), codec, maps, words));
      check(r.accepted, "fleet job rejected");
      submitted.push_back(r.id);
    }

    LevelStats stats;
    std::vector<u64> waits;
    for (const u64 id : submitted) {
      const JobResult result = svc.takeResult(id);
      check(result.outputs == expected, "service job diverged from the reference evaluation");
      stats.segments_overflowed +=
          result.counters.get(hadoop::counter::kShuffleSegmentsOverflowed);
      waits.push_back(svc.wait(id).queueWaitUs());
    }
    stats.wall_s = timer.seconds();

    const service::MemoryGovernor* governor = svc.governor();
    check(governor != nullptr, "budgeted service must run a governor");
    stats.governor_peak_rss_bytes = governor->peakRssBytes();
    stats.throttle_events = governor->throttleEvents();
    svc.shutdown();

    stats.concurrency = concurrency;
    stats.jobs = fleetJobs;
    stats.jobs_per_min = static_cast<double>(fleetJobs) / stats.wall_s * 60.0;
    stats.p95_queue_wait_us = p95(std::move(waits));
    stats.vmhwm_peak_rss_bytes = peakRssBytes();
    check(stats.governor_peak_rss_bytes <= budget,
          "governed RSS exceeded the memory budget");
    rows.push_back(stats);
  }
  std::error_code ec;
  std::filesystem::remove_all(overflowDir, ec);

  bench::Table table({"concurrency", "jobs/min", "p95 queue wait", "governor peak RSS",
                      "throttles", "segments spilled"});
  for (const LevelStats& s : rows) {
    table.addRow({std::to_string(s.concurrency), bench::fixed(s.jobs_per_min, 1),
                  bench::fixed(static_cast<double>(s.p95_queue_wait_us) / 1000.0, 2) + " ms",
                  bench::humanBytes(static_cast<double>(s.governor_peak_rss_bytes)),
                  std::to_string(s.throttle_events), std::to_string(s.segments_overflowed)});
  }
  table.print();
  std::cout << "\nevery fleet job bit-identical to the reference evaluation; governed peak under "
            << bench::humanBytes(static_cast<double>(budget)) << " at every level\n";

  {
    bench::JsonFile json("BENCH_job_service.json");
    bench::JsonWriter& w = json.writer();
    w.beginObject();
    w.kv("quick", quick);
    w.kv("jobs_per_level", static_cast<u64>(fleetJobs));
    w.kv("single_job_peak_rss_bytes", singlePeak);
    w.kv("memory_budget_bytes", budget);
    w.key("levels").beginArray();
    for (const LevelStats& s : rows) {
      w.beginObject();
      w.kv("concurrency", static_cast<u64>(s.concurrency));
      w.kv("wall_s", s.wall_s);
      w.kv("jobs_per_min", s.jobs_per_min);
      w.kv("p95_queue_wait_us", s.p95_queue_wait_us);
      w.kv("governor_peak_rss_bytes", s.governor_peak_rss_bytes);
      w.kv("vmhwm_peak_rss_bytes", s.vmhwm_peak_rss_bytes);
      w.kv("throttle_events", s.throttle_events);
      w.kv("segments_overflowed", s.segments_overflowed);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  std::cout << "wrote BENCH_job_service.json\n";
  return 0;
}
