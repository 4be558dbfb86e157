// Reference evaluator: the trivial in-memory shuffle DESIGN.md §6 checks the
// runtime against. It shares the job's hooks (router, grouper, reduce) and
// key order, and nothing of the data path — no spill, combiner, codec,
// segment framing, shuffle server, merge or threads — so a record the
// runtime drops, duplicates or misorders shows up as a difference.
#pragma once

#include <vector>

#include "hadoop/job.h"
#include "hadoop/runtime.h"

namespace scishuffle::hadoop {

/// Evaluates the job in memory: runs `mapTasks` in index order, routes each
/// emitted record through config.router and appends it to its partition,
/// std::stable_sorts every partition by lexicographicLess, then feeds it
/// through config.grouper and `reduce`. Returns the shape of
/// JobResult::outputs: one vector per reducer, in reduce-emit order.
///
/// Guarantee: equal to runJob's outputs (with a combiner, if any, that
/// leaves reduce outputs unchanged, as Hadoop's combiner contract requires)
/// when `reduce` ignores the order of its values, or when the job has at
/// most config.merge_factor map tasks. Beyond that, runJob's intermediate
/// merge passes combine the smallest segments first and so reorder records
/// with equal keys across maps.
std::vector<std::vector<KeyValue>> referenceOutputs(const JobConfig& config,
                                                    const std::vector<MapTask>& mapTasks,
                                                    const ReduceFn& reduce);

}  // namespace scishuffle::hadoop
