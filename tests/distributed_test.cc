// Distributed-runtime tests: a coordinator forking real scishuffle_worker
// processes (SCISHUFFLE_WORKER_BIN), with reduce-side fetches crossing genuine
// UNIX-socket transport. The invariant under test everywhere: whatever the
// transport or the workers do — crash, hang, corrupt frames — the job either
// completes bit-identically to the serial baseline or fails loudly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hadoop/runtime.h"
#include "net/socket.h"
#include "service/coordinator.h"
#include "service/workload.h"
#include "testing/fault_injector.h"

namespace {

using namespace scishuffle;
namespace fs = std::filesystem;
namespace counter = hadoop::counter;
using scishuffle::testing::FaultInjector;
using scishuffle::testing::FaultKind;
using scishuffle::testing::FaultPlan;
using scishuffle::testing::FaultRule;

/// Sockets live here: keep it short (sockaddr_un path limit) and unique per
/// test (ctest -j runs these concurrently).
struct TempDir {
  fs::path path;
  TempDir() {
    char tmpl[] = "/tmp/scishuffle-dist-XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    if (p == nullptr) throw std::runtime_error("mkdtemp failed");
    path = p;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

hadoop::JobResult serialBaseline(const std::vector<std::string>& args) {
  service::Workload w = service::buildWorkload("wordcount", args);
  return hadoop::runJob(w.config, w.map_tasks, w.reduce);
}

service::DistributedConfig baseConfig(const fs::path& dir, int workers) {
  service::DistributedConfig cfg;
  cfg.num_workers = workers;
  cfg.worker_command = {SCISHUFFLE_WORKER_BIN};
  cfg.work_dir = dir;
  cfg.heartbeat_interval_ms = 10;
  cfg.heartbeat_timeout_ms = 2000;
  cfg.transport_retry.enabled = true;
  cfg.transport_retry.max_attempts = 5;
  cfg.transport_retry.base_backoff_us = 500;
  cfg.transport_retry.max_backoff_us = 20'000;
  return cfg;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(DistributedTest, TwoWorkersBitIdenticalToSerial) {
  TempDir dir;
  const std::vector<std::string> args = {"6", "400"};
  const hadoop::JobResult serial = serialBaseline(args);
  const service::DistributedConfig cfg = baseConfig(dir.path, 2);
  const service::DistributedResult dist = service::runDistributedJob("wordcount", args, cfg);

  EXPECT_EQ(dist.job.outputs, serial.outputs);
  EXPECT_EQ(dist.workers_spawned, 2);
  EXPECT_EQ(dist.worker_deaths, 0);
  EXPECT_EQ(dist.tasks_reexecuted, 0);
  EXPECT_EQ(dist.recovery_latency_us, 0u);
  EXPECT_EQ(dist.job.counters.get(counter::kWorkerDeathsDetected), 0u);
  // The record-level counters travel worker -> coordinator in TaskDone
  // messages and must fold to exactly the serial totals.
  EXPECT_EQ(dist.job.counters.get(counter::kMapOutputRecords),
            serial.counters.get(counter::kMapOutputRecords));
  EXPECT_EQ(dist.job.counters.get(counter::kReduceOutputRecords),
            serial.counters.get(counter::kReduceOutputRecords));
  EXPECT_EQ(dist.job.counters.get(counter::kReduceShuffleBytes),
            serial.counters.get(counter::kReduceShuffleBytes));
  EXPECT_GT(dist.job.timings.map_phase_us, 0u);
  EXPECT_GT(dist.job.timings.shuffle_us, 0u);
}

TEST(DistributedTest, SingleWorkerMatchesSerial) {
  TempDir dir;
  const std::vector<std::string> args = {"4", "200"};
  const hadoop::JobResult serial = serialBaseline(args);
  const service::DistributedResult dist =
      service::runDistributedJob("wordcount", args, baseConfig(dir.path, 1));
  EXPECT_EQ(dist.job.outputs, serial.outputs);
  EXPECT_EQ(dist.worker_deaths, 0);
}

TEST(DistributedTest, WorkerKillMidShuffleRecovers) {
  TempDir dir;
  const std::vector<std::string> args = {"8", "300"};
  const hadoop::JobResult serial = serialBaseline(args);
  service::DistributedConfig cfg = baseConfig(dir.path, 2);
  // Worker 0 completes one task, then dies SIGKILL-style (_Exit, no goodbye)
  // on its next assignment — mid-shuffle, because the fetch pump is already
  // pulling its first task's segments while later maps run.
  cfg.extra_worker_args = {{"--exit-after-tasks", "1"}};
  cfg.metrics_path = dir.path / "coord-metrics.jsonl";
  cfg.sample_interval_ms = 5;
  cfg.worker_metrics_dir = dir.path / "workers";
  const service::DistributedResult dist = service::runDistributedJob("wordcount", args, cfg);

  EXPECT_EQ(dist.job.outputs, serial.outputs);
  // Re-executed tasks fold their stats/counters exactly once: record totals
  // still match the baseline.
  EXPECT_EQ(dist.job.counters.get(counter::kMapOutputRecords),
            serial.counters.get(counter::kMapOutputRecords));
  EXPECT_EQ(dist.job.counters.get(counter::kWorkerDeathsDetected),
            static_cast<u64>(dist.worker_deaths));
  EXPECT_EQ(dist.job.counters.get(counter::kMapTasksReexecuted),
            static_cast<u64>(dist.tasks_reexecuted));
  // The surviving worker streamed its own per-process metrics artifact, and
  // its clean exit ended the stream with a summary line.
  const fs::path workerMetrics = cfg.worker_metrics_dir / "worker-1.jsonl";
  EXPECT_TRUE(fs::exists(workerMetrics));
  std::istringstream workerLines(slurp(workerMetrics));
  std::string lastLine;
  for (std::string line; std::getline(workerLines, line);) lastLine = line;
  EXPECT_NE(lastLine.find("\"type\":\"summary\""), std::string::npos) << lastLine;
  const std::string metrics = slurp(cfg.metrics_path);
  EXPECT_NE(metrics.find("worker.spawned"), std::string::npos);

  // Worker 0 dies only if it gets its second assignment before worker 1
  // drains the queue; the death and its requeues are owed only then.
  ASSERT_EQ(dist.tasks_assigned.size(), 2u);
  if (dist.tasks_assigned[0] > 1) {
    EXPECT_GE(dist.worker_deaths, 1);
    EXPECT_GE(dist.tasks_reexecuted, 1);
    EXPECT_GT(dist.recovery_latency_us, 0u);
    // The death and every requeue are structured metrics events.
    EXPECT_NE(metrics.find("worker.lost"), std::string::npos);
    EXPECT_NE(metrics.find("dist.task_reexec"), std::string::npos);
  }
}

TEST(DistributedTest, TransportFaultsHealedByReconnect) {
  TempDir dir;
  const std::vector<std::string> args = {"6", "300"};
  const hadoop::JobResult serial = serialBaseline(args);

  FaultPlan plan;
  plan.seed = 7;
  {
    FaultRule refuse;  // connection refused on two dials
    refuse.site = net::site::kNetConnect;
    refuse.kind = FaultKind::kThrowIo;
    refuse.skip_calls = 2;
    refuse.max_triggers = 2;
    plan.rules.push_back(refuse);
    FaultRule corrupt;  // bit-flip two inbound frames (CRC catches)
    corrupt.site = net::site::kNetFrameRecv;
    corrupt.kind = FaultKind::kCorruptBytes;
    corrupt.skip_calls = 4;
    corrupt.max_triggers = 2;
    plan.rules.push_back(corrupt);
    FaultRule cut;  // truncate one inbound frame mid-payload
    cut.site = net::site::kNetFrameRecv;
    cut.kind = FaultKind::kTruncate;
    cut.skip_calls = 9;
    cut.max_triggers = 1;
    plan.rules.push_back(cut);
  }
  FaultInjector faults(plan);

  service::DistributedConfig cfg = baseConfig(dir.path, 2);
  cfg.fault_injector = &faults;
  const service::DistributedResult dist = service::runDistributedJob("wordcount", args, cfg);

  EXPECT_EQ(dist.job.outputs, serial.outputs);
  EXPECT_EQ(dist.worker_deaths, 0) << "faults within the retry budget must heal, not kill";
  EXPECT_GE(faults.totalTriggered(), 3u);
  // Every healed fault was a real reconnect, visible in the retry counter.
  EXPECT_GE(dist.job.counters.get(counter::kShuffleFetchRetries), 3u);
}

TEST(DistributedTest, HungWorkerCaughtByHeartbeatTimeout) {
  TempDir dir;
  const std::vector<std::string> args = {"6", "200"};
  const hadoop::JobResult serial = serialBaseline(args);
  service::DistributedConfig cfg = baseConfig(dir.path, 2);
  // Worker 0 goes silent on its first assignment: no heartbeat, no TaskDone,
  // no EOF (the process stays alive). Only the heartbeat timeout can catch
  // this one.
  cfg.extra_worker_args = {{"--hang-after-tasks", "0"}};
  cfg.heartbeat_interval_ms = 10;
  cfg.heartbeat_timeout_ms = 250;
  cfg.fetch_recv_timeout_ms = 500;
  const service::DistributedResult dist = service::runDistributedJob("wordcount", args, cfg);

  EXPECT_EQ(dist.job.outputs, serial.outputs);
  // Worker 0 hangs only if it is assigned a task before worker 1 drains the
  // queue.
  ASSERT_EQ(dist.tasks_assigned.size(), 2u);
  if (dist.tasks_assigned[0] > 0) {
    EXPECT_GE(dist.worker_deaths, 1);
    EXPECT_GE(dist.tasks_reexecuted, 1);
  }
}

TEST(DistributedTest, AllWorkersLostFailsLoudly) {
  TempDir dir;
  service::DistributedConfig cfg = baseConfig(dir.path, 1);
  cfg.extra_worker_args = {{"--exit-after-tasks", "0"}};  // dies on the first task
  EXPECT_THROW(service::runDistributedJob("wordcount", {"4", "100"}, cfg), std::runtime_error);
}

}  // namespace
