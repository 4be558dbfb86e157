// Worker-kill soak: repeated distributed runs with a seeded-random worker
// dying SIGKILL-style (_Exit, no unwind, no goodbye frame) at a random point
// in the task stream — sometimes before its first task, sometimes deep into
// the shuffle. Every round must produce output bit-identical to the serial
// baseline; a round whose victim was assigned enough tasks to reach its
// kill point must also show the death and the re-execution. Every round
// leaves per-worker metrics JSONL artifacts (CI uploads them via
// SCISHUFFLE_SOAK_METRICS_DIR).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "hadoop/runtime.h"
#include "service/coordinator.h"
#include "service/workload.h"
#include "testing_support.h"

namespace {

using namespace scishuffle;
namespace fs = std::filesystem;
namespace counter = hadoop::counter;
using scishuffle::testing::propertySeed;

struct ScratchDir {
  fs::path path;
  ScratchDir() {
    char tmpl[] = "/tmp/scishuffle-soak-XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    if (p == nullptr) throw std::runtime_error("mkdtemp failed");
    path = p;
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST(StressDistributedTest, RandomWorkerKillSoakStaysBitIdentical) {
  const u64 seed = propertySeed();
  std::mt19937_64 rng(seed);
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);

  const std::vector<std::string> args = {"10", "500"};
  const service::Workload workload = service::buildWorkload("wordcount", args);
  const hadoop::JobResult serial =
      hadoop::runJob(workload.config, workload.map_tasks, workload.reduce);

  // Per-round metrics artifacts: overridable so CI can upload them.
  fs::path metricsRoot;
  ScratchDir scratch;
  if (const char* env = std::getenv("SCISHUFFLE_SOAK_METRICS_DIR")) {
    metricsRoot = fs::path(env) / "dist";
  } else {
    metricsRoot = scratch.path / "metrics";
  }
  fs::create_directories(metricsRoot);

  constexpr int kRounds = 4;
  constexpr int kWorkers = 3;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round=" << round);
    ScratchDir dir;
    service::DistributedConfig cfg;
    cfg.num_workers = kWorkers;
    cfg.worker_command = {SCISHUFFLE_WORKER_BIN};
    cfg.work_dir = dir.path;
    cfg.heartbeat_interval_ms = 10;
    cfg.heartbeat_timeout_ms = 2000;
    cfg.transport_retry.enabled = true;
    cfg.transport_retry.max_attempts = 5;
    cfg.transport_retry.base_backoff_us = 500;
    cfg.transport_retry.max_backoff_us = 20'000;
    cfg.metrics_path = metricsRoot / ("coordinator-round-" + std::to_string(round) + ".jsonl");
    cfg.sample_interval_ms = 10;
    cfg.worker_metrics_dir = metricsRoot / ("round-" + std::to_string(round));

    // Seeded-random victim and kill point. The victim dies on its
    // (killAfter+1)-th assignment, which it only gets if the other workers
    // have not drained the queue first.
    const int victim = static_cast<int>(rng() % kWorkers);
    const int killAfter = static_cast<int>(rng() % 3);
    SCOPED_TRACE(::testing::Message() << "victim=" << victim << " killAfter=" << killAfter);
    cfg.extra_worker_args.resize(kWorkers);
    cfg.extra_worker_args[victim] = {"--exit-after-tasks", std::to_string(killAfter)};

    const service::DistributedResult dist = service::runDistributedJob("wordcount", args, cfg);

    EXPECT_EQ(dist.job.outputs, serial.outputs) << "recovered output diverged from serial";
    ASSERT_EQ(dist.tasks_assigned.size(), static_cast<std::size_t>(kWorkers));
    int assigned = 0;
    for (const int n : dist.tasks_assigned) assigned += n;
    EXPECT_EQ(assigned, static_cast<int>(workload.map_tasks.size()) + dist.tasks_reexecuted);
    const int victimAssigned = dist.tasks_assigned[static_cast<std::size_t>(victim)];
    SCOPED_TRACE(::testing::Message() << "victim assigned " << victimAssigned << " tasks");
    if (victimAssigned > killAfter) {
      EXPECT_GE(dist.worker_deaths, 1);
      EXPECT_GE(dist.tasks_reexecuted, 1);
    }
    EXPECT_EQ(dist.job.counters.get(counter::kMapOutputRecords),
              serial.counters.get(counter::kMapOutputRecords));
    for (int w = 0; w < kWorkers; ++w) {
      if (w == victim) continue;  // the victim's stream may be cut anywhere
      EXPECT_TRUE(fs::exists(cfg.worker_metrics_dir / ("worker-" + std::to_string(w) + ".jsonl")))
          << "missing metrics artifact for surviving worker " << w;
    }
  }
}

}  // namespace
