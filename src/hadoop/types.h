// Core key/value types and the pluggable hooks a job can install.
//
// Hadoop's assumptions the paper calls out (§II-B) live here: keys are
// opaque byte strings compared lexicographically, routed independently by a
// hash partitioner, and grouped by byte equality. SciHadoop's aggregate-key
// support replaces the routing and grouping defaults via these hooks — the
// same seam the authors patched in Hadoop (§IV-B) — and serializes its keys
// so that the byte order is the key order.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "io/common.h"

namespace scishuffle::hadoop {

class Counters;

struct KeyValue {
  Bytes key;
  Bytes value;

  bool operator==(const KeyValue&) const = default;
};

/// A record lent by a reader or stream: spans into storage the lender owns
/// (typically the current decoded block), valid until the lender's next call.
struct RecordView {
  ByteSpan key;
  ByteSpan value;
};

/// Map-side emit callback.
using EmitFn = std::function<void(Bytes key, Bytes value)>;

/// Reduce/combine function: one key group with all its values.
using ReduceFn = std::function<void(const Bytes& key, std::vector<Bytes>& values,
                                    const EmitFn& emit)>;

/// The key order of every sort and merge: lexicographic on the serialized
/// bytes (the common prefix decides, then the shorter key sorts first).
inline bool lexicographicLess(ByteSpan a, ByteSpan b) {
  const std::size_t n = std::min(a.size(), b.size());
  const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  return c != 0 ? c < 0 : a.size() < b.size();
}

/// Routing hook: assigns a record to one or more partitions, possibly
/// splitting it (aggregate keys whose simple keys span reducers, §IV-B).
/// Default: singleton at hash(key) % numPartitions.
using RouteFn = std::function<std::vector<std::pair<int, KeyValue>>(KeyValue&& record,
                                                                    int numPartitions)>;

RouteFn hashRouter();

/// FNV-1a over the key bytes (default partitioner hash).
u32 hashBytes(ByteSpan data);

/// Sorted record stream handed to the reduce-side grouper.
class KVStream {
 public:
  virtual ~KVStream() = default;
  /// Next record, or nullopt at the end. The view stays valid until the
  /// following call; a consumer copies whatever it keeps past that.
  virtual std::optional<RecordView> next() = 0;
};

/// Reduce-side grouping strategy. The default groups byte-equal keys; the
/// scikey layer substitutes one that splits overlapping aggregate keys at
/// overlap boundaries before grouping (Fig. 7). A grouper copies what it
/// keeps out of the stream's lent records.
class ReduceGrouper {
 public:
  virtual ~ReduceGrouper() = default;
  virtual void run(KVStream& sorted, const ReduceFn& reduce, const EmitFn& emit,
                   Counters& counters) = 0;
};

class DefaultGrouper final : public ReduceGrouper {
 public:
  void run(KVStream& sorted, const ReduceFn& reduce, const EmitFn& emit,
           Counters& counters) override;
};

}  // namespace scishuffle::hadoop
