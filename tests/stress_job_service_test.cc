// Randomized multi-tenant soak (ctest label: stress): one JobService runs a
// fleet of concurrent word-count jobs across mixed codecs, priorities and
// seeded fault plans, under a memory governor. Every job's output must be
// bit-identical to the reference evaluation (hadoop/reference.h), the
// governor's observed RSS must stay under its budget, and each job's metrics
// stream lands as a JSONL file (CI uploads the directory as an artifact)
// holding its own recovery events, which the service stream repeats.
// Seeded via SCISHUFFLE_PROP_SEED so a failure replays exactly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "hadoop/reference.h"
#include "hadoop/runtime.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "obs/sampler.h"
#include "obs/stat.h"
#include "service/job_service.h"
#include "testing/fault_injector.h"
#include "testing_support.h"

namespace scishuffle::service {
namespace {

using scishuffle::testing::FaultKind;
using scishuffle::testing::FaultPlan;
using scishuffle::testing::FaultRule;
using scishuffle::testing::TempDir;
namespace site = scishuffle::testing::site;

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

/// A corpus plus the job shape that must match between the reference and the
/// service run for outputs to compare byte for byte.
struct Workload {
  std::vector<std::vector<std::string>> docs;
  int num_reducers = 1;
};

Workload makeWorkload(std::mt19937_64& rng) {
  const std::vector<std::string> vocab = {"the",  "windspeed", "grid", "key",   "value",
                                          "map",  "reduce",    "sci",  "curve", "shuffle"};
  Workload w;
  w.num_reducers = 1 + static_cast<int>(rng() % 4);
  const int maps = 2 + static_cast<int>(rng() % 3);
  const int words = 60 + static_cast<int>(rng() % 140);
  w.docs.resize(static_cast<std::size_t>(maps));
  for (auto& doc : w.docs) {
    doc.reserve(static_cast<std::size_t>(words));
    for (int i = 0; i < words; ++i) doc.push_back(vocab[rng() % vocab.size()]);
  }
  return w;
}

/// Builds a JobSpec over `workload`. The docs are captured by value: the
/// service runs the closures long after this frame is gone.
JobSpec specFor(const Workload& workload, const std::string& name, const std::string& codec,
                Priority priority) {
  JobSpec spec;
  spec.name = name;
  spec.priority = priority;
  spec.config.num_reducers = workload.num_reducers;
  spec.config.intermediate_codec = codec;
  spec.config.map_slots = 2;
  spec.config.reduce_slots = 2;
  spec.config.max_task_attempts = 3;
  spec.config.shuffle_retry.enabled = true;
  spec.config.shuffle_retry.max_attempts = 4;
  spec.config.shuffle_retry.base_backoff_us = 10;
  spec.config.shuffle_retry.max_backoff_us = 500;
  for (const auto& doc : workload.docs) {
    spec.map_tasks.push_back(hadoop::MapTask{[doc](const hadoop::EmitFn& emit) {
      for (const auto& word : doc) emit(toBytes(word), encodeI64(1));
    }});
  }
  spec.reduce = [](const Bytes& key, std::vector<Bytes>& values, const hadoop::EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) sum += decodeI64(v);
    emit(key, encodeI64(sum));
  };
  return spec;
}

/// Random recoverable plan over the shuffle's injection sites;
/// trigger counts stay below the retry budget so every job must heal.
FaultPlan randomPlan(std::mt19937_64& rng) {
  FaultPlan plan;
  plan.seed = rng();
  const int rules = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < rules; ++i) {
    FaultRule rule;
    switch (rng() % 5) {
      case 0: rule = {site::kShuffleFetch, FaultKind::kThrowIo}; break;
      case 1: rule = {site::kShuffleFetch, FaultKind::kCorruptBytes}; break;
      case 2: rule = {site::kShufflePublish, FaultKind::kThrowIo}; break;
      case 3: rule = {site::kBlockDecode, FaultKind::kCorruptBytes}; break;
      default:
        rule = {site::kShuffleFetch, FaultKind::kDelay};
        rule.delay_us = 200;
        break;
    }
    rule.max_triggers = 1 + rng() % 2;
    rule.skip_calls = rng() % 3;
    plan.rules.push_back(rule);
  }
  return plan;
}

TEST(StressJobServiceTest, ConcurrentFaultedFleetMatchesSerialBaselines) {
  const u64 seed = scishuffle::testing::propertySeed();
  std::mt19937_64 rng(seed);
  const std::vector<std::string> codecs = {"null", "gzipish", "bzip2ish", "transform+gzipish"};

  // Per-job metrics JSONL directory: overridable so CI can upload it.
  std::optional<TempDir> fallback;
  std::filesystem::path metricsDir;
  if (const char* env = std::getenv("SCISHUFFLE_SOAK_METRICS_DIR")) {
    metricsDir = env;
    std::filesystem::create_directories(metricsDir);
  } else {
    fallback.emplace("svc_soak_metrics");
    metricsDir = fallback->path();
  }

  constexpr int kWorkloads = 6;
  constexpr int kJobs = 24;
  std::vector<Workload> workloads;
  for (int i = 0; i < kWorkloads; ++i) workloads.push_back(makeWorkload(rng));

  // One reference evaluation per workload (the reference is codec-independent).
  std::vector<std::vector<std::vector<hadoop::KeyValue>>> references;
  for (const Workload& w : workloads) {
    const JobSpec spec = specFor(w, "reference", "null", Priority::kNormal);
    references.push_back(hadoop::referenceOutputs(spec.config, spec.map_tasks, spec.reduce));
  }

  TempDir overflow("svc_soak_overflow");
  ServiceConfig config;
  config.max_concurrent_jobs = 4;
  config.queue_capacity = kJobs + 1;
  config.memory_budget_bytes = 1ull << 30;  // generous: the governor must run, not bite
  config.governor_interval_ms = 2;
  config.job_reserve_bytes = 8ull << 20;
  config.overflow_dir = overflow.path();
  config.metrics_path = metricsDir / "service_soak.jsonl";
  JobService service(config);

  struct Pending {
    u64 id = 0;
    int workload = 0;
    std::string codec;
    bool faulted = false;
  };
  std::vector<Pending> pending;
  // Fault injectors must outlive their jobs; keep them for the whole soak.
  std::vector<std::unique_ptr<scishuffle::testing::FaultInjector>> injectors;

  for (int job = 0; job < kJobs; ++job) {
    const int w = static_cast<int>(rng() % kWorkloads);
    const std::string codec = codecs[rng() % codecs.size()];
    const auto priority = static_cast<Priority>(rng() % 3);
    const bool faulted = rng() % 2 == 0;

    JobSpec spec = specFor(workloads[static_cast<std::size_t>(w)],
                           "soak" + std::to_string(job), codec, priority);
    spec.config.metrics_path = metricsDir / ("job_" + std::to_string(job) + ".jsonl");
    spec.config.sample_interval_ms = 2;
    if (faulted) {
      injectors.push_back(
          std::make_unique<scishuffle::testing::FaultInjector>(randomPlan(rng)));
      spec.config.fault_injector = injectors.back().get();
    }
    const SubmitResult r = service.submit(std::move(spec));
    ASSERT_TRUE(r.accepted) << "job " << job << " rejected";
    pending.push_back(Pending{r.id, w, codec, faulted});
  }

  for (const Pending& p : pending) {
    SCOPED_TRACE("job id " + std::to_string(p.id) + " codec " + p.codec +
                 (p.faulted ? " faulted" : " clean") + ", seed " + std::to_string(seed) +
                 " (SCISHUFFLE_PROP_SEED to replay)");
    hadoop::JobResult result;
    ASSERT_NO_THROW(result = service.takeResult(p.id));
    ASSERT_EQ(result.outputs, references[static_cast<std::size_t>(p.workload)])
        << "diverged from the reference evaluation";
  }

  // Governor verdicts: it sampled, and aggregate RSS never broke the budget.
  const MemoryGovernor* governor = service.governor();
  ASSERT_NE(governor, nullptr);
  EXPECT_GT(governor->sampleCount(), 0u);
  EXPECT_LE(governor->peakRssBytes(), config.memory_budget_bytes)
      << "soak RSS exceeded the governor budget";

  service.shutdown();

  // Every job left a non-empty metrics stream for the artifact upload.
  for (int job = 0; job < kJobs; ++job) {
    const auto path = metricsDir / ("job_" + std::to_string(job) + ".jsonl");
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    if (std::filesystem::exists(path)) {
      EXPECT_GT(std::filesystem::file_size(path), 0u) << path;
    }
  }

  // Recovery events reach the stream of the job that raised them, and only
  // it: a clean job's stream holds none, and the service stream holds each
  // exactly as often as the job streams together.
  const auto countOf = [](const obs::MetricsSummary& s, const char* name) -> u64 {
    const auto it = s.event_counts.find(name);
    return it != s.event_counts.end() ? it->second : 0;
  };
  const char* const recoveryEvents[] = {
      obs::event::kShuffleFetchRetry, obs::event::kShufflePublishRetry,
      obs::event::kShuffleCorruptionDetected, obs::event::kShuffleSegmentRefetch,
      obs::event::kTaskRetry};
  std::map<std::string, u64> jobTotals;
  for (int job = 0; job < kJobs; ++job) {
    const obs::MetricsSummary stream =
        obs::summarizeMetricsFile(metricsDir / ("job_" + std::to_string(job) + ".jsonl"));
    for (const char* name : recoveryEvents) {
      jobTotals[name] += countOf(stream, name);
      if (!pending[static_cast<std::size_t>(job)].faulted) {
        EXPECT_EQ(countOf(stream, name), 0u) << "clean job " << job << " holds " << name;
      }
    }
  }
  const obs::MetricsSummary serviceStream = obs::summarizeMetricsFile(config.metrics_path);
  for (const char* name : recoveryEvents) {
    EXPECT_EQ(countOf(serviceStream, name), jobTotals[name]) << name;
  }
}

// A second angle: the governor under a deliberately tight budget must
// throttle (spilling shuffle bytes to disk) yet never corrupt an output.
TEST(StressJobServiceTest, TightBudgetThrottlesWithoutCorruption) {
  const u64 seed = scishuffle::testing::propertySeed() ^ 0x9e3779b97f4a7c15ull;
  std::mt19937_64 rng(seed);

  const Workload workload = makeWorkload(rng);
  const JobSpec reference = specFor(workload, "reference", "gzipish", Priority::kNormal);
  const auto expected =
      hadoop::referenceOutputs(reference.config, reference.map_tasks, reference.reduce);

  TempDir overflow("svc_tight_overflow");
  ServiceConfig config;
  config.max_concurrent_jobs = 2;
  config.queue_capacity = 16;
  // currentRssBytes() of a test process is tens of MiB, so a 1-byte budget
  // guarantees the governor throttles from its very first sample.
  config.memory_budget_bytes = 1;
  config.governor_interval_ms = 1;
  config.job_reserve_bytes = 0;
  config.overflow_dir = overflow.path();
  JobService service(config);

  std::vector<u64> ids;
  for (int job = 0; job < 6; ++job) {
    const SubmitResult r =
        service.submit(specFor(workload, "tight" + std::to_string(job), "gzipish",
                               static_cast<Priority>(job % 3)));
    ASSERT_TRUE(r.accepted);
    ids.push_back(r.id);
  }
  for (const u64 id : ids) {
    hadoop::JobResult result;
    ASSERT_NO_THROW(result = service.takeResult(id)) << "job " << id;
    ASSERT_EQ(result.outputs, expected) << "job " << id << " diverged under throttle";
  }
  const MemoryGovernor* governor = service.governor();
  ASSERT_NE(governor, nullptr);
  EXPECT_GT(governor->throttleEvents(), 0u) << "a 1-byte budget must throttle";
  service.shutdown();
}

}  // namespace
}  // namespace scishuffle::service
