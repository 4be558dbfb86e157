// Named, deterministic workload definitions shared by every process of a
// distributed run.
//
// A MapTask is a closure and cannot cross an exec boundary, so the
// coordinator ships (name, args) over the control plane and each worker
// rebuilds the identical task list locally. Determinism is the contract: the
// same (name, args) must produce byte-identical map emissions in every
// process and on every re-execution — that is what makes re-running a dead
// worker's tasks on a survivor bit-identical to an in-process runJob.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "hadoop/job.h"
#include "hadoop/runtime.h"

namespace scishuffle::service {

/// The standalone-runJob inputs a workload expands to.
struct Workload {
  hadoop::JobConfig config;
  std::vector<hadoop::MapTask> map_tasks;
  hadoop::ReduceFn reduce;
};

/// Builds a Workload from whitespace-split arguments (e.g. {"4", "50000",
/// "gzipish"}). Throws std::invalid_argument on bad arguments.
using WorkloadFactory = std::function<Workload(const std::vector<std::string>& args)>;

/// Registers a factory under `name`, replacing any previous one. Thread-safe.
void registerWorkload(const std::string& name, WorkloadFactory factory);

/// Expands (name, args); registers the built-ins on first use. Throws
/// std::invalid_argument for unknown names or bad arguments.
Workload buildWorkload(const std::string& name, const std::vector<std::string>& args);

/// True when `name` resolves (after built-in registration).
bool workloadRegistered(const std::string& name);

}  // namespace scishuffle::service
