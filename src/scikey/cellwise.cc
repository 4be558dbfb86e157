#include "scikey/cellwise.h"

#include <algorithm>

#include "scikey/simple_key.h"

namespace scishuffle::scikey {

hadoop::ReduceFn cellwiseAggregateReduce(std::size_t valueSize, std::size_t outValueSize,
                                         CellReduceFn cellFn) {
  return [valueSize, outValueSize, cellFn = std::move(cellFn)](
             const Bytes& keyBytes, std::vector<Bytes>& values, const hadoop::EmitFn& emit) {
    const AggregateKey key = deserializeAggregateKey(keyBytes);
    for (const Bytes& blob : values) {
      checkFormat(blob.size() == key.count * valueSize, "layer blob size mismatch");
    }
    Bytes out;
    out.reserve(static_cast<std::size_t>(key.count) * outValueSize);
    std::vector<ByteSpan> column(values.size());
    for (u64 cell = 0; cell < key.count; ++cell) {
      for (std::size_t layer = 0; layer < values.size(); ++layer) {
        column[layer] =
            ByteSpan(values[layer]).subspan(static_cast<std::size_t>(cell) * valueSize, valueSize);
      }
      cellFn(column, out);
      checkFormat(out.size() == (static_cast<std::size_t>(cell) + 1) * outValueSize,
                  "cell function produced wrong output width");
    }
    emit(keyBytes, std::move(out));
  };
}

namespace {
i32 decodeBigEndianI32(ByteSpan v) {
  u32 raw = 0;
  for (int i = 0; i < 4; ++i) raw = (raw << 8) | v[static_cast<std::size_t>(i)];
  return static_cast<i32>(raw);
}

void encodeBigEndianI32(Bytes& out, i32 v) {
  const std::array<u8, 4> bytes = cellValueBytes(v);
  out.insert(out.end(), bytes.begin(), bytes.end());
}
}  // namespace

std::array<u8, 4> cellValueBytes(i32 v) {
  const u32 raw = static_cast<u32>(v);
  return {static_cast<u8>(raw >> 24), static_cast<u8>(raw >> 16), static_cast<u8>(raw >> 8),
          static_cast<u8>(raw)};
}

void cellMedianI32(const std::vector<ByteSpan>& cellValues, Bytes& out) {
  std::vector<i32> v;
  v.reserve(cellValues.size());
  for (const ByteSpan s : cellValues) v.push_back(decodeBigEndianI32(s));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>((v.size() - 1) / 2), v.end());
  encodeBigEndianI32(out, v[(v.size() - 1) / 2]);
}

void cellMeanI32(const std::vector<ByteSpan>& cellValues, Bytes& out) {
  i64 sum = 0;
  for (const ByteSpan s : cellValues) sum += decodeBigEndianI32(s);
  encodeBigEndianI32(out, static_cast<i32>(sum / static_cast<i64>(cellValues.size())));
}

void cellSumI32(const std::vector<ByteSpan>& cellValues, Bytes& out) {
  i64 sum = 0;
  for (const ByteSpan s : cellValues) sum += decodeBigEndianI32(s);
  encodeBigEndianI32(out, static_cast<i32>(sum));
}

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

Bytes encodeCellValue(i32 v) {
  const std::array<u8, 4> bytes = cellValueBytes(v);
  return Bytes(bytes.begin(), bytes.end());  // one allocation
}

i32 decodeCellValue(ByteSpan v) {
  checkFormat(v.size() == 4, "bad cell value width");
  return decodeBigEndianI32(v);
}

CellReduceFn cellFnFor(CellOp op) {
  switch (op) {
    case CellOp::kMedian:
      return cellMedianI32;
    case CellOp::kMean:
      return cellMeanI32;
    case CellOp::kSum:
      return cellSumI32;
  }
  throw std::logic_error("unreachable cell op");
}

}  // namespace scishuffle::scikey
