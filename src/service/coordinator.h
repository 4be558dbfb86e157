// Distributed-run coordinator: forks N worker processes, assigns map tasks
// over the net/ control plane, pulls finished segments over the data plane
// into a local ShuffleServer, and runs the reduce side in-process — so the
// mapper→reducer boundary the paper compresses is a genuine process+socket
// boundary, not a queue hand-off.
//
//   coordinator                              worker i (scishuffle_worker)
//   ───────────                              ───────────────────────────
//   control Listener  <── Hello/Heartbeat/TaskDone/TaskFailed ── control dial
//                     ──── Assign/Shutdown ──────────────────►
//   fetch pump        ──── FetchRequest ──► data Listener
//                     ◄─── FetchResponse ──  (segment store)
//
// Failure is a first-class event: a worker is declared dead on control-plane
// EOF (SIGKILL shows up here first), on heartbeat timeout (a stalled worker
// never EOFs), or when a data-plane fetch exhausts its retry budget. Death
// requeues every task the worker owned that was not yet safely published;
// the scheduler re-executes them on survivors and in-flight fetches redirect
// to the re-executed copy. Because workloads are deterministic
// (service/workload.h) and the local ShuffleServer slots segments by map
// index, the job completes bit-identically to an in-process runJob
// (docs/CLUSTER.md). The reduce side is runJob's own (hadoop::fetchAndReduce).
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "hadoop/retry.h"
#include "hadoop/runtime.h"

namespace scishuffle::testing {
class FaultInjector;
}

namespace scishuffle::service {

struct DistributedConfig {
  int num_workers = 2;
  /// argv prefix used to spawn each worker, e.g. {"/path/to/scishuffle_worker"}
  /// or {"/path/to/scishuffle_cli", "worker"}. The coordinator appends
  /// --control/--data/--id/--workload/--workload-arg/--heartbeat-ms flags.
  std::vector<std::string> worker_command;
  /// Directory for the run's sockets (and per-worker metrics). Created if
  /// missing. Keep the path short: UNIX socket paths cap out around 100 bytes.
  std::filesystem::path work_dir;
  u64 heartbeat_interval_ms = 20;
  /// A worker silent for this long is declared dead (SIGKILLed and its
  /// unpublished tasks requeued). Must comfortably exceed the interval.
  u64 heartbeat_timeout_ms = 600;
  /// SO_RCVTIMEO on data-plane fetches, so a stalled worker turns into a
  /// retryable IoError instead of a hung reducer.
  u64 fetch_recv_timeout_ms = 2000;
  /// Retry/backoff for transport operations (site net.fetch): every attempt
  /// re-dials the worker's data socket, so a retry is a real reconnect.
  hadoop::RetryPolicy transport_retry;
  /// Seeded transport fault injection (sites net.connect / net.frame.send /
  /// net.frame.recv), threaded into every coordinator-side connection.
  testing::FaultInjector* fault_injector = nullptr;
  /// Coordinator-side scishuffle.metrics.v1 stream (worker lifecycle events,
  /// dist.* gauges); empty = none.
  std::filesystem::path metrics_path;
  u64 sample_interval_ms = 0;
  /// When set, each worker streams its own metrics to
  /// <worker_metrics_dir>/worker-<id>.jsonl (the per-worker artifacts the CI
  /// soak uploads).
  std::filesystem::path worker_metrics_dir;
  /// Extra argv appended for worker i (test hooks: --exit-after-tasks /
  /// --hang-after-tasks). Workers beyond the vector get none.
  std::vector<std::vector<std::string>> extra_worker_args;
};

struct DistributedResult {
  hadoop::JobResult job;
  int workers_spawned = 0;
  /// Deaths the coordinator *detected* (== WORKER_DEATHS_DETECTED counter).
  int worker_deaths = 0;
  /// Map tasks requeued to a survivor (== MAP_TASKS_REEXECUTED counter).
  int tasks_reexecuted = 0;
  /// Assign frames sent to each worker, indexed by worker id. Every task is
  /// assigned once plus once per requeue, so the sum is map tasks +
  /// tasks_reexecuted. Tests use it to tell whether a --exit-after-tasks N
  /// worker got the (N+1)-th assignment it dies on.
  std::vector<int> tasks_assigned;
  /// Worst-case time from declaring a worker dead to the last of its
  /// requeued tasks being re-published by a survivor; 0 when nothing died.
  u64 recovery_latency_us = 0;
};

/// Runs workload (name, args) across num_workers forked worker processes.
/// Blocks until the job completes; throws when it cannot (all workers lost,
/// a task failed permanently, a reducer failed). Worker processes are always
/// reaped before returning.
DistributedResult runDistributedJob(const std::string& workloadName,
                                    const std::vector<std::string>& workloadArgs,
                                    const DistributedConfig& config);

}  // namespace scishuffle::service
