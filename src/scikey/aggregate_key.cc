#include "scikey/aggregate_key.h"

#include <array>

#include "hadoop/counters.h"
#include "scikey/simple_key.h"

namespace scishuffle::scikey {

namespace {

void appendBigEndian128(Bytes& out, sfc::CurveIndex v) {
  for (int shift = 120; shift >= 0; shift -= 8) {
    out.push_back(static_cast<u8>(v >> shift));
  }
}

sfc::CurveIndex readBigEndian128(ByteSpan data, std::size_t offset) {
  sfc::CurveIndex v = 0;
  for (int i = 0; i < 16; ++i) v = (v << 8) | data[offset + static_cast<std::size_t>(i)];
  return v;
}

void appendBigEndian64(Bytes& out, u64 v) {
  for (int shift = 56; shift >= 0; shift -= 8) out.push_back(static_cast<u8>(v >> shift));
}

u64 readBigEndian64(ByteSpan data, std::size_t offset) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data[offset + static_cast<std::size_t>(i)];
  return v;
}

void checkPartitions(const CurveCuts& cuts, int numPartitions) {
  check(numPartitions == cuts.partitions(), "router built for another reducer count");
}

}  // namespace

Bytes serializeAggregateKey(const AggregateKey& key) {
  Bytes out;
  out.reserve(kAggregateKeySize);
  appendSortableI32(out, key.var);
  appendBigEndian128(out, key.start);
  appendBigEndian64(out, key.count);
  return out;
}

AggregateKey deserializeAggregateKey(ByteSpan data) {
  checkFormat(data.size() == kAggregateKeySize, "bad aggregate key size");
  AggregateKey key;
  key.var = readSortableI32(data, 0);
  key.start = readBigEndian128(data, 4);
  key.count = readBigEndian64(data, 20);
  return key;
}

std::pair<hadoop::KeyValue, hadoop::KeyValue> splitAggregateRecord(const AggregateKey& key,
                                                                   ByteSpan valueBlob,
                                                                   sfc::CurveIndex at,
                                                                   std::size_t valueSize) {
  check(at > key.start && at < key.end(), "split point outside key");
  check(valueBlob.size() == key.count * valueSize, "value blob size mismatch");
  const u64 leftCount = static_cast<u64>(at - key.start);

  const AggregateKey leftKey{key.var, key.start, leftCount};
  const AggregateKey rightKey{key.var, at, key.count - leftCount};
  const std::size_t cut = static_cast<std::size_t>(leftCount) * valueSize;

  hadoop::KeyValue left{serializeAggregateKey(leftKey),
                        Bytes(valueBlob.begin(), valueBlob.begin() + static_cast<std::ptrdiff_t>(cut))};
  hadoop::KeyValue right{serializeAggregateKey(rightKey),
                         Bytes(valueBlob.begin() + static_cast<std::ptrdiff_t>(cut), valueBlob.end())};
  return {std::move(left), std::move(right)};
}

hadoop::RouteFn aggregateRangeRouter(CurveCuts cuts, std::size_t valueSize,
                                     hadoop::Counters* counters) {
  return [cuts = std::move(cuts), valueSize, counters](hadoop::KeyValue&& record,
                                                       int numPartitions) {
    checkPartitions(cuts, numPartitions);
    std::vector<std::pair<int, hadoop::KeyValue>> out;
    AggregateKey key = deserializeAggregateKey(record.key);
    Bytes blob = std::move(record.value);

    // Peel partition-sized prefixes off the front until the key no longer
    // straddles a cut.
    for (;;) {
      const int firstPart = cuts.partitionOf(key.start);
      if (firstPart == cuts.partitionOf(key.end() - 1)) {
        out.emplace_back(firstPart,
                         hadoop::KeyValue{serializeAggregateKey(key), std::move(blob)});
        break;
      }
      auto [left, right] = splitAggregateRecord(key, blob, cuts.start(firstPart + 1), valueSize);
      if (counters != nullptr) counters->add(hadoop::counter::kKeySplitsRouting, 1);
      out.emplace_back(firstPart, std::move(left));
      key = deserializeAggregateKey(right.key);
      blob = std::move(right.value);
    }
    return out;
  };
}

hadoop::RouteFn simpleRangeRouter(std::shared_ptr<const CurveSpace> space, CurveCuts cuts) {
  return [space = std::move(space), cuts = std::move(cuts)](hadoop::KeyValue&& record,
                                                            int numPartitions) {
    checkPartitions(cuts, numPartitions);
    std::array<i64, sfc::Curve::kMaxDims> coords;
    const std::span<i64> cell(coords.data(), static_cast<std::size_t>(space->domain().rank()));
    readSimpleKeyCoords(record.key, 4, cell);  // after the 4-byte variable index
    std::vector<std::pair<int, hadoop::KeyValue>> out;
    out.emplace_back(cuts.partitionOf(space->encode(cell)), std::move(record));
    return out;
  };
}

}  // namespace scishuffle::scikey
