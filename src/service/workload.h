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

/// Expands (name, args), with args whitespace-split (e.g. {"4", "50000",
/// "gzipish"}). The one workload is `wordcount <maps> <words-per-map>
/// [codec]`. Throws std::invalid_argument for unknown names or bad arguments.
Workload buildWorkload(const std::string& name, const std::vector<std::string>& args);

}  // namespace scishuffle::service
