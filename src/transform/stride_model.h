// The linear-sequence model of §III: a *sequence* is identified by a stride s
// and a phase φ (= byte offset mod s) and carries a difference δ such that
//     x[φ + k·s] = x[φ + (k-1)·s] + δ                                  (eq. 1)
// for most k. Per sequence we track δ and the run length (number of
// consecutive correct predictions); per stride we track aggregate hit rate.
//
// StrideModel holds this state plus the bounded history window needed to
// evaluate x[i - s]. It is shared verbatim by the forward and inverse
// transforms: both drive it with the *original* bytes, which is what makes
// the transform invertible (§III-C).
//
// predict()/consume() are the byte-at-a-time reference: one list walk to
// select, one to update, the full eviction test on every stride every byte.
// forwardBatch()/inverseBatch() share one batch kernel that must be
// observably identical to stepping them (tests/transform_test.cc pins both
// the equivalence and golden residual digests). The kernel's per-byte work
// is division-free and allocation-free (docs/PERFORMANCE.md):
//   * each active stride carries its phase, and the model carries the
//     selection-cycle position, instead of recomputing offset % s and
//     offset % selection_cycle_bytes;
//   * one walk of the active list per byte updates byte i and, once each
//     stride's phase has advanced, offers its next sequence as byte i+1's
//     candidate. Survivors are visited in their post-update list order and a
//     re-admitted stride starts unseeded, so "first strictly longest run in
//     list order" picks the same sequence predict() would;
//   * with eviction_hit_rate <= 1 a hit can never lower a stride's hit rate
//     below the threshold, so the eviction test runs only on a miss or on
//     the byte the warm-up span completes;
//   * a stride counts only its misses: the first s updates after activation
//     seed its s sequences and every later update is a prediction, so the
//     prediction count follows from the offset and a hit writes no
//     per-stride state at all.
#pragma once

#include <optional>
#include <vector>

#include "io/common.h"

namespace scishuffle::transform {

/// Tunables from §III; defaults are the constants the paper quotes.
struct TransformConfig {
  /// Largest stride in the full set ("every stride less than the configured
  /// maximum" — strides 1..max_stride inclusive here).
  int max_stride = 100;

  /// When non-empty, overrides max_stride: the full set is exactly these
  /// strides. Used for the paper's "manually specified stride" comparison
  /// (e.g. a single stride of 12) and for restricted brute-force runs.
  std::vector<int> explicit_strides;

  /// A prediction is emitted only if the best run length exceeds this
  /// ("currently 2 in the code").
  int run_length_threshold = 2;

  /// A stride is evicted from the active set when its hit rate drops below
  /// this ("currently 5/6 in the code")...
  double eviction_hit_rate = 5.0 / 6.0;

  /// ...but only after it has been active for at least this multiple of s
  /// bytes ("the 2s requirement is tunable").
  int eviction_warmup_strides = 2;

  /// One stride is re-admitted to the active set every this many bytes
  /// ("every 256 bytes (one selection cycle)").
  int selection_cycle_bytes = 256;

  /// When false, every stride stays active forever: the brute-force detector
  /// §III-A compares against (4x slower at max_stride 100, 17x at 1000).
  bool adaptive = true;
};

class StrideModel {
 public:
  explicit StrideModel(const TransformConfig& config);

  /// Best prediction for the byte at the current offset, or nullopt if no
  /// active sequence has run length above the threshold (§III-B).
  std::optional<u8> predict() const;

  /// Advances the model by one original-stream byte: updates every active
  /// sequence's δ/run/hit state, runs evictions, and on selection-cycle
  /// boundaries re-admits an eligible stride (§III-A).
  void consume(u8 original);

  /// Batch forward transform: out[i] = in[i] - prediction (or in[i] when no
  /// sequence qualifies), advancing the model over all n bytes. Equivalent
  /// to predict()+consume() per byte. Returns how many of the n bytes had a
  /// prediction.
  std::size_t forwardBatch(const u8* in, u8* out, std::size_t n);

  /// Batch inverse transform: out[i] = in[i] + prediction; the model is
  /// driven with the reconstructed original bytes. Returns how many of the
  /// n bytes had a prediction.
  std::size_t inverseBatch(const u8* in, u8* out, std::size_t n);

  u64 offset() const { return offset_; }

  /// Number of strides currently in the active set (observability for tests
  /// and the ablation benches).
  int activeCount() const { return static_cast<int>(activeList_.size()); }

  /// The active strides in list order (eviction swap-removes, re-admission
  /// appends; the predictor's tie-break follows this order).
  const std::vector<int>& activeStrides() const { return activeList_; }

 private:
  struct Stride {
    u64 misses = 0;            // updates of a seeded sequence that missed
    u64 activatedAt = 0;       // byte offset when (re)admitted
    u64 countedFrom = 0;       // first byte whose update is a prediction
    u64 warmAt = 0;            // activatedAt + eviction_warmup_strides * s
    u64 deactivatedCycle = 0;  // selection cycle when evicted
    u64 lastEligibleCycle = 0;
  };

  /// Byte at offset_ - s (requires offset_ >= s), via the doubled ring.
  u8 prevByte(int s) const { return hist2_[head_ + histLen_ - static_cast<std::size_t>(s)]; }

  /// The §III-A eviction test for a stride whose sequence was just updated
  /// at byte `offset`.
  bool evictionDue(const Stride& stride, int s, u64 offset) const;

  /// Swap-removes activeList_[idx] (and its phase) at selection cycle `cycle`.
  void evict(std::size_t idx, u64 cycle);

  /// Smallest warmAt >= from over the active strides (~0 when none).
  u64 nextWarmAt(u64 from) const;

  template <bool kInverse>
  std::size_t runBatch(const u8* in, u8* out, std::size_t n);

  void pushHistory(u8 original);
  void maybeRotateActiveSet();

  TransformConfig config_;
  std::vector<int> fullSet_;          // all strides the detector may consider
  // Sequence table, structure-of-arrays, indexed seqBase_[s] + phase:
  std::vector<u64> run_;              // run length + 1; 0 = unseeded
  std::vector<u8> delta_;             // latest difference x[i] - x[i-s]
  std::vector<std::size_t> seqBase_;  // per-stride base into run_/delta_
  std::vector<Stride> strides_;       // index 1..max_stride
  std::vector<u8> isActive_;          // membership marks, index 1..max_stride
  std::vector<int> activeList_;       // current active set, in list order
  std::vector<u32> phase_;            // phase_[i] = offset_ % activeList_[i]
  std::vector<u8> hist2_;             // doubled ring of the last H bytes
  std::size_t histLen_ = 0;           // H = max stride
  std::size_t head_ = 0;              // offset_ % H
  u64 offset_ = 0;
  u64 cycle_ = 0;                     // offset_ / selection_cycle_bytes
  u32 cyclePos_ = 0;                  // offset_ % selection_cycle_bytes
};

}  // namespace scishuffle::transform
