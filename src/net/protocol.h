// Message bodies carried inside net/frame.h frames: the coordinator/worker
// control plane (hello, assign, done, heartbeat, shutdown) and the
// reduce-side data plane (fetch request/response). Each struct encodes to
// one frame and decodes with full validation — a frame of the wrong type or
// with trailing garbage is a FormatError, so transport corruption that
// survives the CRC still cannot reach the runtime as a half-parsed message.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "net/frame.h"

namespace scishuffle::net {

/// Worker -> coordinator, first frame on the control connection.
struct HelloMsg {
  u32 worker_id = 0;
  std::string data_socket;  // path of the worker's data-plane listener

  Frame encode() const;
  static HelloMsg decode(const Frame& frame);
};

/// Coordinator -> worker: execute map task `map_index` of the workload.
struct AssignMsg {
  u32 map_index = 0;

  Frame encode() const;
  static AssignMsg decode(const Frame& frame);
};

/// Worker -> coordinator: map task finished; segments are fetchable on the
/// data plane. Carries the stats and counters the coordinator folds into the
/// JobResult exactly once, when the outputs are published.
struct TaskDoneMsg {
  u32 map_index = 0;
  u64 cpu_us = 0;
  std::vector<u64> segment_bytes;          // per-reducer compressed sizes
  std::map<std::string, u64> counters;     // per-task counter snapshot

  Frame encode() const;
  static TaskDoneMsg decode(const Frame& frame);
};

/// Worker -> coordinator: the task raised even after its retry budget.
struct TaskFailedMsg {
  u32 map_index = 0;
  std::string error;

  Frame encode() const;
  static TaskFailedMsg decode(const Frame& frame);
};

/// Worker -> coordinator liveness beacon; `seq` increases monotonically.
struct HeartbeatMsg {
  u32 worker_id = 0;
  u64 seq = 0;

  Frame encode() const;
  static HeartbeatMsg decode(const Frame& frame);
};

/// Reducer -> worker data plane: one segment of one finished map task.
struct FetchRequestMsg {
  u32 map_index = 0;
  u32 reducer = 0;

  Frame encode() const;
  static FetchRequestMsg decode(const Frame& frame);
};

/// Worker data plane -> reducer: the requested compressed segment.
struct FetchResponseMsg {
  u32 map_index = 0;
  u32 reducer = 0;
  Bytes segment;

  Frame encode() const;
  static FetchResponseMsg decode(const Frame& frame);
};

/// Worker data plane -> reducer: structured refusal (unknown task, not yet
/// materialized). The reducer's retry policy treats it as IoError.
struct FetchErrorMsg {
  u32 map_index = 0;
  u32 reducer = 0;
  std::string error;

  Frame encode() const;
  static FetchErrorMsg decode(const Frame& frame);
};

/// A bare kShutdown frame (no body) asks the worker to drain and exit.
Frame shutdownFrame();

}  // namespace scishuffle::net
