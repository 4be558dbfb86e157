// The one monotonic clock every timing in scishuffle reads: phase timings,
// per-task CPU counters, span timestamps, sampler ticks and heartbeats.
#pragma once

#include <chrono>

#include "io/common.h"

namespace scishuffle {

/// Steady-clock microseconds since an unspecified epoch. Good for durations
/// and for ordering events within one process; not wall-clock time.
inline u64 steadyNowUs() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

}  // namespace scishuffle
