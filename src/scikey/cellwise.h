// Cell values and the per-cell reductions of the grid queries. A cell's
// value travels as a 4-byte big-endian i32; a reduce applies one CellOp to
// every value a cell received. Over aggregate-key groups the reduce walks
// the group cell by cell: after overlap splitting a group is (range, one
// packed blob per layer), each cell's column holds one value per layer, and
// the emitted record keeps the aggregate key, so outputs stay compact.
#pragma once

#include <array>

#include "hadoop/types.h"
#include "scikey/aggregate_key.h"

namespace scishuffle::scikey {

/// Per-cell reduction operator used by the query builders. SciHadoop's
/// holistic/algebraic distinction applies: kSum (and the sum half of kMean)
/// is algebraic and may run in combiners; kMedian is holistic and may not.
enum class CellOp { kMedian, kMean, kSum };

/// Width of one serialized cell value.
inline constexpr std::size_t kCellValueSize = 4;

/// Applies op to a group of decoded values (may reorder `values`): the lower
/// median for even counts, the mean rounded toward zero, the wrapping sum.
i32 applyCellOp(CellOp op, std::vector<i32>& values);

/// Big-endian i32 value encoding shared by the grid queries.
Bytes encodeCellValue(i32 v);
i32 decodeCellValue(ByteSpan v);

/// The same four bytes on the stack, for callers that only lend them.
std::array<u8, kCellValueSize> cellValueBytes(i32 v);

/// ReduceFn over aggregate-key groups: applies op to each cell's column of
/// values and emits one blob of results under the group's key.
hadoop::ReduceFn cellwiseAggregateReduce(CellOp op);

}  // namespace scishuffle::scikey
