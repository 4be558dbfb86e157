#include "transform/stride_model.h"

#include <algorithm>

namespace scishuffle::transform {

namespace {

/// Run lengths count like a wrapping u32; in the table's run + 1 form a hit
/// therefore maps r to u32(r) + 1.
u64 bumpRun(u64 r) { return u64{static_cast<u32>(r)} + 1; }

}  // namespace

StrideModel::StrideModel(const TransformConfig& config) : config_(config) {
  check(config_.selection_cycle_bytes >= 1, "selection cycle must be positive");
  if (config_.explicit_strides.empty()) {
    check(config_.max_stride >= 1, "max_stride must be positive");
    fullSet_.resize(static_cast<std::size_t>(config_.max_stride));
    for (int s = 1; s <= config_.max_stride; ++s) {
      fullSet_[static_cast<std::size_t>(s) - 1] = s;
    }
  } else {
    fullSet_ = config_.explicit_strides;
    std::sort(fullSet_.begin(), fullSet_.end());
    fullSet_.erase(std::unique(fullSet_.begin(), fullSet_.end()), fullSet_.end());
    check(fullSet_.front() >= 1, "strides must be positive");
  }
  const int maxStride = fullSet_.back();

  // The sequence table is laid out stride-major: stride s owns s slots (one
  // per phase); strides outside the full set get no storage.
  seqBase_.assign(static_cast<std::size_t>(maxStride) + 1, 0);
  std::size_t base = 0;
  for (const int s : fullSet_) {
    seqBase_[static_cast<std::size_t>(s)] = base;
    base += static_cast<std::size_t>(s);
  }
  run_.assign(base, 0);
  delta_.assign(base, 0);
  strides_.assign(static_cast<std::size_t>(maxStride) + 1, Stride{});
  isActive_.assign(static_cast<std::size_t>(maxStride) + 1, 0);

  histLen_ = static_cast<std::size_t>(maxStride);
  hist2_.assign(histLen_ * 2, 0);

  // "The active set is initialized to be the full set."
  activeList_ = fullSet_;
  phase_.assign(activeList_.size(), 0);
  for (const int s : fullSet_) {
    Stride& stride = strides_[static_cast<std::size_t>(s)];
    stride.countedFrom = 2 * static_cast<u64>(s);
    stride.warmAt = static_cast<u64>(config_.eviction_warmup_strides) * static_cast<u64>(s);
    isActive_[static_cast<std::size_t>(s)] = 1;
  }
}

std::optional<u8> StrideModel::predict() const {
  u64 bestRun = 0;
  u8 bestPrediction = 0;
  for (std::size_t i = 0; i < activeList_.size(); ++i) {
    const int s = activeList_[i];
    const std::size_t k = seqBase_[static_cast<std::size_t>(s)] + phase_[i];
    // Unseeded also covers offset_ < s: a sequence is only ever seeded at an
    // offset >= s, and the same phase recurs every s bytes after that.
    if (run_[k] == 0) continue;
    const u64 run = run_[k] - 1;
    if (run > bestRun) {
      bestRun = run;
      bestPrediction = static_cast<u8>(prevByte(s) + delta_[k]);
    }
  }
  if (bestRun > static_cast<u32>(config_.run_length_threshold)) return bestPrediction;
  return std::nullopt;
}

bool StrideModel::evictionDue(const Stride& stride, int s, u64 offset) const {
  // Eviction (§III-A): hit rate below the threshold once the stride has been
  // active for at least eviction_warmup_strides * s bytes. Every update from
  // countedFrom on finds its sequence seeded, so it is a prediction, and
  // hits = predictions - misses.
  if (!config_.adaptive || offset < stride.countedFrom) return false;
  const u64 predictions = offset + 1 - stride.countedFrom;
  return offset - stride.activatedAt >=
             static_cast<u64>(config_.eviction_warmup_strides) * static_cast<u64>(s) &&
         static_cast<double>(predictions - stride.misses) <
             config_.eviction_hit_rate * static_cast<double>(predictions);
}

void StrideModel::evict(std::size_t idx, u64 cycle) {
  const auto s = static_cast<std::size_t>(activeList_[idx]);
  strides_[s].deactivatedCycle = cycle;
  isActive_[s] = 0;
  activeList_[idx] = activeList_.back();
  activeList_.pop_back();
  phase_[idx] = phase_.back();
  phase_.pop_back();
}

void StrideModel::consume(u8 original) {
  for (std::size_t idx = 0; idx < activeList_.size();) {
    const int s = activeList_[idx];
    if (offset_ >= static_cast<u64>(s)) {
      Stride& stride = strides_[static_cast<std::size_t>(s)];
      const std::size_t k = seqBase_[static_cast<std::size_t>(s)] + phase_[idx];
      // x[i] - x[i-s]; comparing differences is the same test as comparing
      // the predicted byte (mod-256 arithmetic).
      const u8 diff = static_cast<u8>(original - prevByte(s));
      if (run_[k] == 0) {
        run_[k] = 1;  // the first difference seeds the sequence
      } else if (diff == delta_[k]) {
        run_[k] = bumpRun(run_[k]);
      } else {
        run_[k] = 1;
        ++stride.misses;
      }
      delta_[k] = diff;
      if (evictionDue(stride, s, offset_)) {
        evict(idx, offset_ / static_cast<u64>(config_.selection_cycle_bytes));
        continue;  // re-examine the element swapped into idx
      }
    }
    // Advance the phase for the next byte offset.
    const u32 next = phase_[idx] + 1;
    phase_[idx] = next == static_cast<u32>(s) ? 0 : next;
    ++idx;
  }
  pushHistory(original);
  maybeRotateActiveSet();
}

template <bool kInverse>
std::size_t StrideModel::runBatch(const u8* in, u8* out, std::size_t n) {
  const std::size_t kH = histLen_;
  u8* const hist = hist2_.data();
  u64* const run = run_.data();
  u8* const delta = delta_.data();
  const std::size_t* const seqBase = seqBase_.data();
  Stride* const strides = strides_.data();
  const auto cycleBytes = static_cast<u32>(config_.selection_cycle_bytes);
  const bool adaptive = config_.adaptive;
  // With a hit-rate threshold <= 1 a hit never lowers a stride's hit rate
  // below it, so only misses and the warm-up byte need the eviction test.
  const bool testEveryUpdate = !(config_.eviction_hit_rate <= 1.0);
  // predict()'s "run > run_length_threshold" in the table's run + 1 form.
  const u64 predictAbove = u64{static_cast<u32>(config_.run_length_threshold)} + 1;

  // Batch-local copies: the u8 stores below may alias any member, which
  // would force a reload of member state after each one. Written back
  // before maybeRotateActiveSet() and at the end.
  u64 offset = offset_;
  std::size_t head = head_;
  u32 cyclePos = cyclePos_;
  u64 cycle = cycle_;
  const int* active = activeList_.data();
  u32* phase = phase_.data();
  std::size_t count = activeList_.size();

  // The candidate for in[0] comes from one selection walk; every later
  // candidate falls out of the previous byte's update walk.
  int best = 0;  // stride of the chosen sequence; 0 = no prediction
  u8 bestDelta = 0;
  {
    u64 bestRun = predictAbove;
    for (std::size_t a = 0; a < count; ++a) {
      const std::size_t k = seqBase[active[a]] + phase[a];
      if (run[k] > bestRun) {
        bestRun = run[k];
        best = active[a];
        bestDelta = delta[k];
      }
    }
  }

  // The next byte at which some active stride's warm-up completes.
  u64 nextWarm = nextWarmAt(offset);

  std::size_t predicted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u8* const back = hist + head + kH;  // back[-s] = x[offset - s]
    u8 x = in[i];
    if (best != 0) {
      const auto prediction = static_cast<u8>(back[-best] + bestDelta);
      ++predicted;
      if constexpr (kInverse) {
        x = static_cast<u8>(x + prediction);
        out[i] = x;
      } else {
        out[i] = static_cast<u8>(x - prediction);
      }
    } else {
      out[i] = x;
    }

    // One walk: update byte i's sequence of every active stride, evict, then
    // offer the stride's next-phase sequence as byte i+1's candidate.
    u64 bestRun = predictAbove;
    best = 0;
    const bool warmByte = offset == nextWarm;
    for (std::size_t a = 0; a < count;) {
      const int s = active[a];
      const std::size_t base = seqBase[s];
      u32 p = phase[a];
      if (offset >= static_cast<u64>(s)) {
        const std::size_t k = base + p;
        const auto diff = static_cast<u8>(x - back[-s]);
        const u64 r = run[k];
        const bool seeded = r != 0;
        const bool hit = seeded && diff == delta[k];
        run[k] = hit ? bumpRun(r) : 1;
        delta[k] = diff;
        const bool miss = seeded && !hit;
        if (miss) ++strides[s].misses;
        if (adaptive && (testEveryUpdate || miss || (warmByte && offset == strides[s].warmAt)) &&
            evictionDue(strides[s], s, offset)) {
          evict(a, cycle);
          count = activeList_.size();
          continue;  // the element swapped into a is next
        }
      }
      p = p + 1 == static_cast<u32>(s) ? 0 : p + 1;
      phase[a] = p;
      const u64 nextRun = run[base + p];
      const u8 nextDelta = delta[base + p];
      const bool better = nextRun > bestRun;
      bestRun = better ? nextRun : bestRun;
      best = better ? s : best;
      bestDelta = better ? nextDelta : bestDelta;
      ++a;
    }

    if (warmByte) nextWarm = nextWarmAt(offset + 1);
    hist[head] = x;
    hist[head + kH] = x;
    ++offset;
    if (++head == kH) head = 0;
    if (++cyclePos == cycleBytes) {
      cyclePos = 0;
      ++cycle;
      offset_ = offset;
      head_ = head;
      cyclePos_ = cyclePos;
      cycle_ = cycle;
      // Re-admission appends an unseeded stride, which cannot displace the
      // candidate already chosen for the next byte.
      maybeRotateActiveSet();
      active = activeList_.data();
      phase = phase_.data();
      count = activeList_.size();
      nextWarm = nextWarmAt(offset);
    }
  }
  offset_ = offset;
  head_ = head;
  cyclePos_ = cyclePos;
  cycle_ = cycle;
  return predicted;
}

u64 StrideModel::nextWarmAt(u64 from) const {
  u64 next = ~u64{0};
  for (const int s : activeList_) {
    const u64 at = strides_[static_cast<std::size_t>(s)].warmAt;
    if (at >= from) next = std::min(next, at);
  }
  return next;
}

std::size_t StrideModel::forwardBatch(const u8* in, u8* out, std::size_t n) {
  return runBatch<false>(in, out, n);
}

std::size_t StrideModel::inverseBatch(const u8* in, u8* out, std::size_t n) {
  return runBatch<true>(in, out, n);
}

void StrideModel::pushHistory(u8 original) {
  hist2_[head_] = original;
  hist2_[head_ + histLen_] = original;
  ++offset_;
  if (++head_ == histLen_) head_ = 0;
  if (++cyclePos_ == static_cast<u32>(config_.selection_cycle_bytes)) {
    cyclePos_ = 0;
    ++cycle_;
  }
}

void StrideModel::maybeRotateActiveSet() {
  if (!config_.adaptive || cyclePos_ != 0) return;
  if (activeList_.size() == fullSet_.size()) return;

  // Pick the eligible inactive stride that has been out the longest. A stride
  // of s is eligible only once every s cycles, balancing the fact that big
  // strides take at least 2s bytes to be evicted again.
  int chosen = 0;
  u64 oldest = ~u64{0};
  for (const int s : fullSet_) {
    if (isActive_[static_cast<std::size_t>(s)] != 0) continue;
    const Stride& stride = strides_[static_cast<std::size_t>(s)];
    if (cycle_ - stride.lastEligibleCycle < static_cast<u64>(s)) continue;
    if (stride.deactivatedCycle < oldest) {
      oldest = stride.deactivatedCycle;
      chosen = s;
    }
  }
  if (chosen == 0) return;

  const auto strideLen = static_cast<u64>(chosen);
  Stride& stride = strides_[static_cast<std::size_t>(chosen)];
  stride.misses = 0;
  stride.activatedAt = offset_;
  stride.countedFrom = std::max(offset_, strideLen) + strideLen;
  stride.warmAt = offset_ + static_cast<u64>(config_.eviction_warmup_strides) * strideLen;
  stride.lastEligibleCycle = cycle_;
  isActive_[static_cast<std::size_t>(chosen)] = 1;
  activeList_.push_back(chosen);
  phase_.push_back(static_cast<u32>(offset_ % strideLen));
  // Sequence state from the previous activation is stale; restart detection.
  const auto begin =
      run_.begin() + static_cast<std::ptrdiff_t>(seqBase_[static_cast<std::size_t>(chosen)]);
  std::fill(begin, begin + chosen, 0);
}

}  // namespace scishuffle::transform
