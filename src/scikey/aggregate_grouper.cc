#include "scikey/aggregate_grouper.h"

#include <map>
#include <optional>

#include "hadoop/counters.h"

namespace scishuffle::scikey {

namespace {

struct Pending {
  AggregateKey key;
  Bytes blob;
};

/// Order by (var, start, count): identical ranges become adjacent.
struct PendingOrder {
  bool operator()(const std::tuple<i32, sfc::CurveIndex, u64>& a,
                  const std::tuple<i32, sfc::CurveIndex, u64>& b) const {
    return a < b;
  }
};

}  // namespace

namespace {

/// Merges contiguous aggregate output records before forwarding them
/// (reduce-side re-aggregation, §IV-B extension).
class ReaggregatingEmitter {
 public:
  ReaggregatingEmitter(const hadoop::EmitFn& inner, std::size_t outValueSize)
      : inner_(&inner), outValueSize_(outValueSize) {}

  void emit(Bytes keyBytes, Bytes blob) {
    AggregateKey key = deserializeAggregateKey(keyBytes);
    checkFormat(blob.size() == key.count * outValueSize_, "re-aggregation blob width mismatch");
    if (open_ && pending_.var == key.var && pending_.end() == key.start) {
      pending_.count += key.count;
      pendingBlob_.insert(pendingBlob_.end(), blob.begin(), blob.end());
      return;
    }
    flush();
    pending_ = key;
    pendingBlob_ = std::move(blob);
    open_ = true;
  }

  void flush() {
    if (!open_) return;
    (*inner_)(serializeAggregateKey(pending_), std::move(pendingBlob_));
    pendingBlob_.clear();
    open_ = false;
  }

 private:
  const hadoop::EmitFn* inner_;
  std::size_t outValueSize_;
  AggregateKey pending_{};
  Bytes pendingBlob_;
  bool open_ = false;
};

}  // namespace

void AggregateGrouper::run(hadoop::KVStream& sorted, const hadoop::ReduceFn& reduce,
                           const hadoop::EmitFn& emit, hadoop::Counters& counters) {
  // Optional reduce-side re-aggregation: groups are reduced in key order, so
  // contiguous outputs can be merged on the fly.
  ReaggregatingEmitter reaggregator(emit, valueSize_);
  const hadoop::EmitFn mergedEmit = [&](Bytes key, Bytes value) {
    reaggregator.emit(std::move(key), std::move(value));
  };
  const hadoop::EmitFn& reduceEmit = reaggregateOutput_ ? mergedEmit : emit;

  // Multimap keyed by (var, start, count); values are the packed blobs.
  // Fragments produced by splitting re-enter here, so the front is always
  // the globally smallest outstanding range.
  std::multimap<std::tuple<i32, sfc::CurveIndex, u64>, Bytes, PendingOrder> pending;

  auto insert = [&](AggregateKey key, Bytes blob) {
    pending.emplace(std::make_tuple(key.var, key.start, key.count), std::move(blob));
  };
  // Moves the stream's next record into `pending` and returns its key
  // (nullopt at the end). The stream lends each record only until its next
  // call, so the multimap keeps a copy of the blob.
  auto pull = [&]() -> std::optional<AggregateKey> {
    const auto record = sorted.next();
    if (!record) return std::nullopt;
    const AggregateKey key = deserializeAggregateKey(record->key);
    insert(key, Bytes(record->value.begin(), record->value.end()));
    return key;
  };

  // Tallies for the whole run, added to the counters once at its end.
  u64 groups = 0;
  u64 records = 0;
  u64 splits = 0;

  bool streamOpen = true;
  for (;;) {
    if (pending.empty()) {
      if (!streamOpen || !pull()) break;
      streamOpen = true;
      continue;
    }
    auto frontIt = pending.begin();
    AggregateKey front{std::get<0>(frontIt->first), std::get<1>(frontIt->first),
                       std::get<2>(frontIt->first)};

    // Make sure every stream record that could overlap `front` is pending.
    // The stream is sorted by (var, start), so once its head starts at or
    // beyond front.end() (or on a later var) nothing further can overlap.
    while (streamOpen) {
      const auto head = pull();
      if (!head) {
        streamOpen = false;
        break;
      }
      if (head->var > front.var || (head->var == front.var && head->start >= front.end())) break;
    }
    // Pulling may have introduced a new minimum; restart with it.
    frontIt = pending.begin();
    front = AggregateKey{std::get<0>(frontIt->first), std::get<1>(frontIt->first),
                         std::get<2>(frontIt->first)};

    // Find the first pending record that is not identical to front.
    auto nextIt = pending.upper_bound(frontIt->first);
    if (nextIt != pending.end()) {
      const AggregateKey next{std::get<0>(nextIt->first), std::get<1>(nextIt->first),
                              std::get<2>(nextIt->first)};
      if (next.var == front.var && next.start < front.end()) {
        // Overlap: split along the overlap boundaries (Fig. 7).
        //  * next starts inside front       -> cut the front group at next.start
        //  * next shares front's start (its count must be larger, by the
        //    (var,start,count) order)       -> cut the next group at front.end
        const bool cutFront = next.start > front.start;
        const AggregateKey victim = cutFront ? front : next;
        const sfc::CurveIndex at = cutFront ? next.start : front.end();

        std::vector<Pending> fragments;
        const auto range =
            pending.equal_range(std::make_tuple(victim.var, victim.start, victim.count));
        for (auto it = range.first; it != range.second; ++it) {
          auto [left, right] = splitAggregateRecord(victim, it->second, at, valueSize_);
          ++splits;
          fragments.push_back(Pending{deserializeAggregateKey(left.key), std::move(left.value)});
          fragments.push_back(Pending{deserializeAggregateKey(right.key), std::move(right.value)});
        }
        pending.erase(range.first, range.second);
        for (Pending& f : fragments) insert(f.key, std::move(f.blob));
        continue;
      }
    }

    // Front overlaps nothing outstanding: reduce the group of identical
    // ranges (one value blob per layer).
    const auto range = pending.equal_range(frontIt->first);
    std::vector<Bytes> values;
    for (auto it = range.first; it != range.second; ++it) values.push_back(std::move(it->second));
    pending.erase(range.first, range.second);

    ++groups;
    records += values.size();
    const Bytes keyBytes = serializeAggregateKey(front);
    reduce(keyBytes, values, reduceEmit);
  }
  reaggregator.flush();
  // Only the counters the run touched.
  if (groups > 0) {
    counters.add(hadoop::counter::kReduceInputGroups, groups);
    counters.add(hadoop::counter::kReduceInputRecords, records);
  }
  if (splits > 0) counters.add(hadoop::counter::kKeySplitsOverlap, splits);
}

}  // namespace scishuffle::scikey
