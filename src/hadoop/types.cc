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
  // The stream lends each record only until its next call, so a group copies
  // its key into one buffer and its values into slots, both reused from
  // group to group; a reduce that moves a value out leaves that slot to
  // reallocate.
  Bytes key;
  std::vector<Bytes> values;
  u64 groups = 0;
  u64 records = 0;
  std::optional<RecordView> pending = sorted.next();
  while (pending) {
    key.assign(pending->key.begin(), pending->key.end());
    std::size_t count = 0;
    do {
      if (count == values.size()) values.emplace_back();
      values[count++].assign(pending->value.begin(), pending->value.end());
      pending = sorted.next();
    } while (pending && std::ranges::equal(pending->key, key));
    values.resize(count);
    ++groups;
    records += count;
    reduce(key, values, emit);
  }
  // Task-local tallies, added once (and only by a task that had a group).
  if (groups > 0) {
    counters.add(counter::kReduceInputGroups, groups);
    counters.add(counter::kReduceInputRecords, records);
  }
}

}  // namespace scishuffle::hadoop
