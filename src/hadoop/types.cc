#include "hadoop/types.h"

#include "hadoop/counters.h"

namespace scishuffle::hadoop {

u32 hashBytes(ByteSpan data) {
  u32 h = 2166136261u;
  for (const u8 b : data) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

RouteFn hashRouter() {
  return [](KeyValue&& record, int numPartitions) {
    const int p = static_cast<int>(hashBytes(record.key) % static_cast<u32>(numPartitions));
    std::vector<std::pair<int, KeyValue>> out;
    out.emplace_back(p, std::move(record));
    return out;
  };
}

void DefaultGrouper::run(KVStream& sorted, const ReduceFn& reduce, const EmitFn& emit,
                         Counters& counters) {
  std::optional<KeyValue> pending = sorted.next();
  while (pending) {
    Bytes key = std::move(pending->key);
    std::vector<Bytes> values;
    values.push_back(std::move(pending->value));
    for (;;) {
      pending = sorted.next();
      if (!pending || pending->key != key) break;
      values.push_back(std::move(pending->value));
    }
    counters.add(counter::kReduceInputGroups, 1);
    counters.add(counter::kReduceInputRecords, values.size());
    reduce(key, values, emit);
  }
}

}  // namespace scishuffle::hadoop
