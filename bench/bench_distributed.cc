// Distributed-runtime scaling and recovery: the same deterministic wordcount
// job runs across 1, 2 and 4 forked worker processes (real UNIX-socket
// control/data planes, see docs/CLUSTER.md), clean and with one worker
// SIGKILL-equivalent-killed mid-run. For each level the bench reports wall
// clock, and for the kill variants the detected deaths, re-executed map
// tasks and worst-case recovery latency — and asserts the one invariant that
// matters: every run, killed or not, is bit-identical to the serial
// baseline. Results land in BENCH_distributed.json.
//
// `--quick` shrinks the sweep (1 and 2 workers, smaller inputs) for the
// tier-1 CI smoke run; the full sweep stays bounded at a few seconds.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util/bench_util.h"
#include "hadoop/runtime.h"
#include "service/coordinator.h"
#include "service/workload.h"

using namespace scishuffle;

namespace {

struct RunStats {
  int workers = 0;
  bool killed = false;
  double wall_s = 0;
  int worker_deaths = 0;
  int tasks_reexecuted = 0;
  u64 recovery_latency_us = 0;
};

std::filesystem::path makeScratchDir() {
  // Keep the path short: every worker socket lives under it and sockaddr_un
  // caps the full path around 100 bytes.
  std::string tmpl = "/tmp/scishuffle-bench-XXXXXX";
  check(mkdtemp(tmpl.data()) != nullptr, "mkdtemp failed");
  return tmpl;
}

service::DistributedConfig baseConfig(const std::filesystem::path& dir, int workers) {
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

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  bench::banner("distributed runtime: scaling and mid-run kill recovery" +
                std::string(quick ? " (quick)" : ""));

  const std::string maps = quick ? "6" : "8";
  const std::string words = quick ? "2000" : "20000";
  const std::vector<std::string> workloadArgs = {maps, words};
  const std::vector<int> levels = quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};

  // The correctness reference every distributed run must reproduce bit for
  // bit — serial, in-process, no transport.
  const service::Workload baselineLoad = service::buildWorkload("wordcount", workloadArgs);
  const hadoop::JobResult baseline =
      hadoop::runJob(baselineLoad.config, baselineLoad.map_tasks, baselineLoad.reduce);

  const std::filesystem::path scratch = makeScratchDir();
  std::vector<RunStats> rows;
  for (const int workers : levels) {
    // Clean run, then (where a survivor exists) the same job with worker 0
    // exiting hard after its first completed task — mid-run, mid-shuffle.
    for (const bool killed : {false, true}) {
      if (killed && workers < 2) continue;  // no survivor to recover onto
      service::DistributedConfig cfg = baseConfig(scratch, workers);
      if (killed) {
        cfg.extra_worker_args = {{"--exit-after-tasks", "1"}};
      }
      bench::Timer timer;
      const service::DistributedResult r =
          service::runDistributedJob("wordcount", workloadArgs, cfg);
      RunStats stats;
      stats.wall_s = timer.seconds();
      stats.workers = workers;
      stats.killed = killed;
      stats.worker_deaths = r.worker_deaths;
      stats.tasks_reexecuted = r.tasks_reexecuted;
      stats.recovery_latency_us = r.recovery_latency_us;
      check(r.job.outputs == baseline.outputs,
            "distributed run diverged from the serial baseline");
      if (killed) {
        // Worker 0 dies on its second assignment, which it only gets if the
        // other workers have not drained the queue first.
        if (r.tasks_assigned[0] > 1) {
          check(r.worker_deaths >= 1, "kill variant detected no worker death");
          check(r.tasks_reexecuted >= 1, "kill variant re-executed no tasks");
        }
      } else {
        check(r.worker_deaths == 0, "clean run reported a worker death");
      }
      rows.push_back(stats);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);

  bench::Table table({"workers", "variant", "wall", "deaths", "reexecuted", "recovery"});
  for (const RunStats& s : rows) {
    table.addRow({std::to_string(s.workers), s.killed ? "mid-run kill" : "clean",
                  bench::fixed(s.wall_s * 1000.0, 1) + " ms", std::to_string(s.worker_deaths),
                  std::to_string(s.tasks_reexecuted),
                  s.killed ? bench::fixed(static_cast<double>(s.recovery_latency_us) / 1000.0, 2) +
                                 " ms"
                           : "-"});
  }
  table.print();
  std::cout << "\nevery run (clean and killed) bit-identical to the serial baseline\n";

  {
    bench::JsonFile json("BENCH_distributed.json");
    bench::JsonWriter& w = json.writer();
    w.beginObject();
    w.kv("quick", quick);
    w.kv("map_tasks", static_cast<u64>(std::stoul(maps)));
    w.kv("words_per_map", static_cast<u64>(std::stoul(words)));
    w.key("runs").beginArray();
    for (const RunStats& s : rows) {
      w.beginObject();
      w.kv("workers", static_cast<u64>(s.workers));
      w.kv("killed", s.killed);
      w.kv("wall_s", s.wall_s);
      w.kv("worker_deaths", static_cast<u64>(s.worker_deaths));
      w.kv("tasks_reexecuted", static_cast<u64>(s.tasks_reexecuted));
      w.kv("recovery_latency_us", s.recovery_latency_us);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  std::cout << "wrote BENCH_distributed.json\n";
  return 0;
}
