// The clocks scishuffle reads: one monotonic clock for every duration
// (phase timings, span timestamps, sampler ticks, heartbeats), and the
// calling thread's CPU clock for the per-task, per-spill and per-block CPU
// counters.
#pragma once

#include <chrono>
#include <ctime>

#include "io/common.h"

namespace scishuffle {

/// Steady-clock microseconds since an unspecified epoch. Good for durations
/// and for ordering events within one process; not wall-clock time.
inline u64 steadyNowUs() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// CPU time the calling thread has used, in microseconds
/// (CLOCK_THREAD_CPUTIME_ID): time spent blocked or sleeping does not count.
/// Each read is a system call, so read it per task, spill or block, never
/// per record.
inline u64 threadCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000 + static_cast<u64>(ts.tv_nsec) / 1'000;
}

}  // namespace scishuffle
