// Aggregate keys (§IV): a contiguous range of space-filling-curve indices,
// per variable, standing for `count` simple keys whose values are packed in
// curve order inside the record's value. Constant 28-byte serialization
// regardless of how many cells it covers — the "(corner, size)" constant
// overhead of §I, realized on the curve.
//
// Layout (all big-endian, var offset-binary) so that the engine's default
// lexicographic byte order equals (var, start, count) order:
//   [4B var][16B start index][8B count]
#pragma once

#include <memory>
#include <vector>

#include "hadoop/types.h"
#include "scikey/curve_space.h"
#include "sfc/curve.h"

namespace scishuffle::scikey {

struct AggregateKey {
  i32 var = 0;
  sfc::CurveIndex start = 0;
  u64 count = 0;

  sfc::CurveIndex end() const { return start + count; }

  bool operator==(const AggregateKey&) const = default;
};

constexpr std::size_t kAggregateKeySize = 4 + 16 + 8;

Bytes serializeAggregateKey(const AggregateKey& key);
AggregateKey deserializeAggregateKey(ByteSpan data);

/// Splits an aggregate record at curve index `at` (start < at < end): returns
/// the two halves with the packed value blob divided proportionally.
/// valueSize is the per-cell serialized value width.
std::pair<hadoop::KeyValue, hadoop::KeyValue> splitAggregateRecord(const AggregateKey& key,
                                                                   ByteSpan valueBlob,
                                                                   sfc::CurveIndex at,
                                                                   std::size_t valueSize);

/// Router for aggregate-key jobs: sends each record to the partition of
/// `cuts` that holds its curve range, and splits any record straddling a
/// cut (§IV-B case 1). Equal-cell cuts give every reducer the same share of
/// the domain's cells. Increments KEY_SPLITS_ROUTING on the supplied counters
/// for every split. Throws if the job's reducer count is not cuts.partitions().
hadoop::RouteFn aggregateRangeRouter(CurveCuts cuts, std::size_t valueSize,
                                     hadoop::Counters* counters);

/// Router for simple-key (kIndex) jobs over `space`: sends each key to the
/// partition of `cuts` holding its cell's curve index, reading the
/// coordinates in place. Given the same cuts, it sends every cell where
/// aggregateRangeRouter sends it, so both configurations shuffle alike.
hadoop::RouteFn simpleRangeRouter(std::shared_ptr<const CurveSpace> space, CurveCuts cuts);

}  // namespace scishuffle::scikey
