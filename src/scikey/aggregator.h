// Mapper-side aggregation library (§IV-A). As in the paper, this sits
// *between* the user's map function and Hadoop: user code hands simple
// (coordinate, value) pairs to the Aggregator, which buffers them, maps
// coordinates onto the space-filling curve, coalesces contiguous index runs
// into aggregate keys, and periodically emits the aggregated records.
//
// A cell may legitimately receive several values inside one mapper (a
// sliding window emits the same target cell from up to 9 source cells); such
// duplicates go to separate "layers" and therefore produce overlapping
// aggregate keys, which is exactly what reducer-side overlap splitting
// (Fig. 7) exists to untangle.
//
// Memory is bounded: when the buffer reaches flush_threshold_bytes the
// current contents are coalesced and emitted ("aggregation is performed on
// subsets of the intermediate data due to memory limitations").
#pragma once

#include <exception>
#include <functional>

#include "hadoop/counters.h"
#include "hadoop/types.h"
#include "scikey/aggregate_key.h"
#include "scikey/curve_space.h"

namespace scishuffle::scikey {

struct AggregatorConfig {
  std::size_t value_size = 4;
  std::size_t flush_threshold_bytes = 8u << 20;

  /// Optional §IV-C alignment: when > 1, emitted ranges are not allowed to
  /// start/end off an `alignment` multiple unless clipped by the buffer
  /// content; ranges are *cut* at alignment boundaries (a conservative
  /// variant that bounds overlap without padding values).
  u64 alignment = 1;
};

class Aggregator {
 public:
  Aggregator(const CurveSpace& space, AggregatorConfig config, hadoop::EmitFn emit,
             hadoop::Counters* counters = nullptr);

  /// Flushes what is left, unless an exception is unwinding the map task: a
  /// flush that threw leaves its entries buffered, and flushing them again
  /// here would throw out of the destructor and terminate the process.
  ~Aggregator() {
    if (std::uncaught_exceptions() == 0) flush();
  }

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Adds one simple key/value pair.
  void add(i32 var, const grid::Coord& coord, ByteSpan value);

  /// Coalesces and emits everything buffered; clears the buffer. Called
  /// automatically on threshold and destruction.
  void flush();

  u64 aggregatesEmitted() const { return aggregatesEmitted_; }

 private:
  struct Entry {
    i32 var;
    sfc::CurveIndex index;
    u32 valueOffset;  // into arena_
  };

  const CurveSpace* space_;
  AggregatorConfig config_;
  hadoop::EmitFn emit_;
  hadoop::Counters* counters_;
  std::vector<Entry> entries_;
  Bytes arena_;
  u64 aggregatesEmitted_ = 0;
};

}  // namespace scishuffle::scikey
