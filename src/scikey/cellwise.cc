#include "scikey/cellwise.h"

#include <algorithm>

namespace scishuffle::scikey {

i32 applyCellOp(CellOp op, std::vector<i32>& values) {
  check(!values.empty(), "empty reduce group");
  switch (op) {
    case CellOp::kMedian: {
      const std::size_t mid = (values.size() - 1) / 2;
      std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                       values.end());
      return values[mid];
    }
    case CellOp::kMean: {
      i64 sum = 0;
      for (const i32 v : values) sum += v;
      return static_cast<i32>(sum / static_cast<i64>(values.size()));
    }
    case CellOp::kSum: {
      i64 sum = 0;
      for (const i32 v : values) sum += v;
      return static_cast<i32>(sum);
    }
  }
  throw std::logic_error("unreachable cell op");
}

std::array<u8, kCellValueSize> cellValueBytes(i32 v) {
  const u32 raw = static_cast<u32>(v);
  return {static_cast<u8>(raw >> 24), static_cast<u8>(raw >> 16), static_cast<u8>(raw >> 8),
          static_cast<u8>(raw)};
}

Bytes encodeCellValue(i32 v) {
  const std::array<u8, kCellValueSize> bytes = cellValueBytes(v);
  return Bytes(bytes.begin(), bytes.end());  // one allocation
}

i32 decodeCellValue(ByteSpan v) {
  checkFormat(v.size() == kCellValueSize, "bad cell value width");
  u32 raw = 0;
  for (const u8 b : v) raw = (raw << 8) | b;
  return static_cast<i32>(raw);
}

hadoop::ReduceFn cellwiseAggregateReduce(CellOp op) {
  return [op](const Bytes& keyBytes, std::vector<Bytes>& values, const hadoop::EmitFn& emit) {
    const AggregateKey key = deserializeAggregateKey(keyBytes);
    const std::size_t blobSize = static_cast<std::size_t>(key.count) * kCellValueSize;
    for (const Bytes& blob : values) checkFormat(blob.size() == blobSize, "layer blob size mismatch");
    Bytes out;
    out.reserve(blobSize);
    std::vector<i32> column(values.size());
    for (std::size_t offset = 0; offset < blobSize; offset += kCellValueSize) {
      for (std::size_t layer = 0; layer < values.size(); ++layer) {
        column[layer] = decodeCellValue(ByteSpan(values[layer]).subspan(offset, kCellValueSize));
      }
      const std::array<u8, kCellValueSize> result = cellValueBytes(applyCellOp(op, column));
      out.insert(out.end(), result.begin(), result.end());
    }
    emit(keyBytes, std::move(out));
  };
}

}  // namespace scishuffle::scikey
