// Randomized soaks (ctest label: stress): word-count jobs across random
// codec x fault-plan combinations, each asserting bit-identical output
// against the reference evaluator (hadoop/reference.h). 200 jobs run one
// after another; a fleet of 24 runs four at a time in one process, where each
// job's metrics stream must also hold its own recovery events and no other
// job's. Every job derives from SCISHUFFLE_PROP_SEED, so a failure replays
// exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "hadoop/reference.h"
#include "hadoop/runtime.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "obs/sampler.h"
#include "obs/stat.h"
#include "testing/fault_injector.h"
#include "testing_support.h"

namespace scishuffle::hadoop {
namespace {

using scishuffle::testing::FaultKind;
using scishuffle::testing::FaultPlan;
using scishuffle::testing::FaultRule;
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

/// A corpus plus the fixed job shape that must match between the reference
/// and the runtime for outputs to be comparable byte for byte.
struct Workload {
  std::vector<std::vector<std::string>> docs;
  int num_reducers = 1;
  std::size_t spill_buffer = 16u << 20;
};

Workload makeWorkload(std::mt19937_64& rng) {
  const std::vector<std::string> vocab = {"the",  "windspeed", "grid", "key",   "value",
                                          "map",  "reduce",    "sci",  "curve", "shuffle"};
  Workload w;
  w.num_reducers = 1 + static_cast<int>(rng() % 4);
  if (rng() % 3 == 0) w.spill_buffer = 512;  // force several spills per task
  const int maps = 2 + static_cast<int>(rng() % 3);
  const int words = 40 + static_cast<int>(rng() % 80);
  w.docs.resize(static_cast<std::size_t>(maps));
  for (auto& doc : w.docs) {
    doc.reserve(static_cast<std::size_t>(words));
    for (int i = 0; i < words; ++i) doc.push_back(vocab[rng() % vocab.size()]);
  }
  return w;
}

JobConfig shapedConfig(const Workload& w, JobConfig config) {
  config.num_reducers = w.num_reducers;
  config.spill_buffer_bytes = w.spill_buffer;
  config.codec_threads = 2;  // keep 200 pool spin-ups cheap
  config.map_slots = 2;
  config.reduce_slots = 2;
  return config;
}

std::vector<MapTask> wordCountTasks(const Workload& w) {
  std::vector<MapTask> tasks;
  for (const auto& doc : w.docs) {
    tasks.push_back(MapTask{[&doc](const EmitFn& emit) {
      for (const auto& word : doc) emit(toBytes(word), encodeI64(1));
    }});
  }
  return tasks;
}

const ReduceFn kSumReduce = [](const Bytes& key, std::vector<Bytes>& values,
                               const EmitFn& emit) {
  i64 sum = 0;
  for (const auto& v : values) sum += decodeI64(v);
  emit(key, encodeI64(sum));
};

const std::vector<std::string> kCodecs = {"null", "gzipish", "bzip2ish", "transform+gzipish"};

/// A job over `codec` that heals every fault randomPlan() can inject.
JobConfig recoverableConfig(const std::string& codec, u64 retrySeed) {
  JobConfig config;
  config.intermediate_codec = codec;
  config.max_task_attempts = 3;
  config.shuffle_retry.enabled = true;
  config.shuffle_retry.max_attempts = 4;
  config.shuffle_retry.base_backoff_us = 10;
  config.shuffle_retry.max_backoff_us = 500;
  config.shuffle_retry.seed = retrySeed;
  return config;
}

/// Random plan over the shuffle's injection sites. Trigger counts stay
/// below the retry budget so every job is recoverable by construction.
FaultPlan randomPlan(std::mt19937_64& rng) {
  FaultPlan plan;
  plan.seed = rng();
  const int rules = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < rules; ++i) {
    FaultRule rule;
    switch (rng() % 6) {
      case 0:
        rule = {site::kShuffleFetch, FaultKind::kThrowIo};
        break;
      case 1:
        rule = {site::kShuffleFetch, FaultKind::kCorruptBytes};
        break;
      case 2:
        rule = {site::kShuffleFetch, FaultKind::kTruncate};
        break;
      case 3:
        rule = {site::kShufflePublish, FaultKind::kThrowIo};
        break;
      case 4:
        rule = {site::kBlockDecode, FaultKind::kCorruptBytes};
        break;
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

TEST(StressShuffleTest, TwoHundredRandomizedJobsMatchSerialBaseline) {
  const u64 seed = scishuffle::testing::propertySeed();
  std::mt19937_64 rng(seed);

  // A handful of workloads, each with one reference evaluation reused
  // across the soak (the reference is codec-independent).
  constexpr int kWorkloads = 8;
  std::vector<Workload> workloads;
  std::vector<std::vector<std::vector<KeyValue>>> references;
  for (int i = 0; i < kWorkloads; ++i) {
    workloads.push_back(makeWorkload(rng));
    references.push_back(referenceOutputs(shapedConfig(workloads.back(), JobConfig{}),
                                          wordCountTasks(workloads.back()), kSumReduce));
  }

  for (int job = 0; job < 200; ++job) {
    const auto w = static_cast<std::size_t>(rng() % kWorkloads);
    const std::string codec = kCodecs[rng() % kCodecs.size()];
    const bool faulted = rng() % 2 == 0;

    JobConfig config = recoverableConfig(codec, rng());

    // Half the jobs soak the codec matrix without injection.
    std::optional<scishuffle::testing::FaultInjector> faults;
    if (faulted) {
      faults.emplace(randomPlan(rng));
      config.fault_injector = &*faults;
    }

    const JobResult result =
        runJob(shapedConfig(workloads[w], config), wordCountTasks(workloads[w]), kSumReduce);
    ASSERT_EQ(result.outputs, references[w])
        << "job " << job << " (codec " << codec << ", faulted " << faulted << ", workload " << w
        << ", seed " << seed << ") diverged from the reference evaluation;"
        << " replay with SCISHUFFLE_PROP_SEED=" << seed;
  }
}

TEST(StressShuffleTest, ConcurrentFaultedFleetMatchesSerialBaselines) {
  const u64 seed = scishuffle::testing::propertySeed();
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);  // a different draw from the serial soak

  constexpr int kWorkloads = 6;
  std::vector<Workload> workloads;
  std::vector<std::vector<std::vector<KeyValue>>> references;
  for (int i = 0; i < kWorkloads; ++i) {
    workloads.push_back(makeWorkload(rng));
    references.push_back(referenceOutputs(shapedConfig(workloads.back(), JobConfig{}),
                                          wordCountTasks(workloads.back()), kSumReduce));
  }

  // Every job is drawn up front, so the draw does not depend on the schedule.
  struct FleetJob {
    std::size_t workload = 0;
    JobConfig config;
    std::unique_ptr<scishuffle::testing::FaultInjector> faults;  // outlives the job
    JobResult result;
    std::string error;
  };
  constexpr int kJobs = 24;
  const scishuffle::testing::TempDir metrics("stress_fleet_metrics");
  std::vector<FleetJob> jobs(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    FleetJob& job = jobs[static_cast<std::size_t>(j)];
    job.workload = static_cast<std::size_t>(rng() % kWorkloads);
    JobConfig config = recoverableConfig(kCodecs[rng() % kCodecs.size()], rng());
    config.metrics_path = metrics.file("job_" + std::to_string(j) + ".jsonl");
    if (rng() % 2 == 0) {
      job.faults = std::make_unique<scishuffle::testing::FaultInjector>(randomPlan(rng));
      config.fault_injector = job.faults.get();
    }
    job.config = shapedConfig(workloads[job.workload], config);
  }

  std::atomic<int> next{0};
  std::vector<std::thread> runners;
  for (int t = 0; t < 4; ++t) {
    runners.emplace_back([&] {
      for (int j = next++; j < kJobs; j = next++) {
        FleetJob& job = jobs[static_cast<std::size_t>(j)];
        try {
          job.result = runJob(job.config, wordCountTasks(workloads[job.workload]), kSumReduce);
        } catch (const std::exception& e) {
          job.error = e.what();
        }
      }
    });
  }
  for (std::thread& runner : runners) runner.join();

  const auto countOf = [](const obs::MetricsSummary& s, const char* name) -> u64 {
    const auto it = s.event_counts.find(name);
    return it != s.event_counts.end() ? it->second : 0;
  };
  const char* const recoveryEvents[] = {
      obs::event::kShuffleFetchRetry, obs::event::kShufflePublishRetry,
      obs::event::kShuffleCorruptionDetected, obs::event::kShuffleSegmentRefetch,
      obs::event::kTaskRetry};
  u64 faultedEvents = 0;
  for (int j = 0; j < kJobs; ++j) {
    const FleetJob& job = jobs[static_cast<std::size_t>(j)];
    SCOPED_TRACE("job " + std::to_string(j) + " (codec " + job.config.intermediate_codec +
                 (job.faults ? ", faulted" : ", clean") + ", workload " +
                 std::to_string(job.workload) + "); replay with SCISHUFFLE_PROP_SEED=" +
                 std::to_string(seed));
    ASSERT_EQ(job.error, "");
    ASSERT_EQ(job.result.outputs, references[job.workload])
        << "diverged from the reference evaluation";
    const obs::MetricsSummary stream = obs::summarizeMetricsFile(job.config.metrics_path);
    EXPECT_EQ(countOf(stream, obs::event::kShuffleFetchRetry),
              job.result.counters.get(counter::kShuffleFetchRetries));
    for (const char* name : recoveryEvents) {
      if (job.faults) {
        faultedEvents += countOf(stream, name);
      } else {
        EXPECT_EQ(countOf(stream, name), 0u) << "a clean job's stream holds " << name;
      }
    }
  }
  EXPECT_GT(faultedEvents, 0u) << "no faulted job's stream holds a recovery event";
}

}  // namespace
}  // namespace scishuffle::hadoop
