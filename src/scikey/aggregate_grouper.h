// Reduce-side grouping for aggregate keys (§IV-B, Fig. 7).
//
// The merged stream arrives sorted by (var, start). Unequal keys may still
// overlap — the same simple keys hide inside different aggregates — so the
// grouper splits overlapping records along the overlap boundaries until the
// stream is pairwise equal-or-disjoint, then groups *identical* ranges into
// one reduce invocation whose values are the per-layer packed blobs.
//
// "When sorting keys at a reducer, overlapping keys are split along the
//  overlap boundaries. This is necessary because unequal overlapping keys
//  contain data that map to the same simple keys, but since the aggregate
//  keys are unequal, the data would not be reduced together."
#pragma once

#include "hadoop/types.h"
#include "scikey/aggregate_key.h"

namespace scishuffle::scikey {

class AggregateGrouper final : public hadoop::ReduceGrouper {
 public:
  /// valueSize: per-cell width of input blobs and of the reduce function's
  /// output blobs. When reaggregateOutput is set, contiguous aggregate
  /// records *emitted by the reduce function* are merged back together
  /// before reaching the output — the paper's §IV-B suggestion of
  /// aggregating "in other places to offset the increase in key count
  /// caused by key splitting".
  explicit AggregateGrouper(std::size_t valueSize, bool reaggregateOutput = false)
      : valueSize_(valueSize), reaggregateOutput_(reaggregateOutput) {}

  void run(hadoop::KVStream& sorted, const hadoop::ReduceFn& reduce, const hadoop::EmitFn& emit,
           hadoop::Counters& counters) override;

 private:
  std::size_t valueSize_;
  bool reaggregateOutput_;
};

}  // namespace scishuffle::scikey
