// Adapter turning a per-cell reduction into a ReduceFn over aggregate-key
// groups. After overlap splitting, a reduce group is (range, one packed blob
// per layer); the per-cell function sees the column of values for each cell
// and appends that cell's output to the result blob. The emitted record
// keeps the aggregate key, so outputs stay in the compact representation.
#pragma once

#include <array>
#include <functional>

#include "hadoop/types.h"
#include "scikey/aggregate_key.h"

namespace scishuffle::scikey {

/// Per-cell reduction operator used by the query builders. SciHadoop's
/// holistic/algebraic distinction applies: kSum (and the sum half of kMean)
/// is algebraic and may run in combiners; kMedian is holistic and may not.
enum class CellOp { kMedian, kMean, kSum };

/// Applies op to a group of decoded values (may reorder `values`).
i32 applyCellOp(CellOp op, std::vector<i32>& values);

/// Big-endian i32 value encoding shared by the grid queries.
Bytes encodeCellValue(i32 v);
i32 decodeCellValue(ByteSpan v);

/// The same four bytes on the stack, for callers that only lend them.
std::array<u8, 4> cellValueBytes(i32 v);

/// cellValues: one entry per layer that contained this cell (all layers in a
/// group cover the identical range, so every cell has exactly group-size
/// values). Appends exactly outValueSize bytes to out.
using CellReduceFn = std::function<void(const std::vector<ByteSpan>& cellValues, Bytes& out)>;

hadoop::ReduceFn cellwiseAggregateReduce(std::size_t valueSize, std::size_t outValueSize,
                                         CellReduceFn cellFn);

/// Per-cell median of big-endian i32 values (lower median for even counts).
void cellMedianI32(const std::vector<ByteSpan>& cellValues, Bytes& out);

/// Per-cell arithmetic mean of big-endian i32 values, rounded toward zero.
void cellMeanI32(const std::vector<ByteSpan>& cellValues, Bytes& out);

/// Per-cell sum of big-endian i32 values (wrapping).
void cellSumI32(const std::vector<ByteSpan>& cellValues, Bytes& out);

/// The per-cell function implementing a CellOp.
CellReduceFn cellFnFor(CellOp op);

}  // namespace scishuffle::scikey
