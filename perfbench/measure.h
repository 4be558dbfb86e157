// Process-level measurements the benchmark takes around each job: CPU time,
// a resettable resident-set high-water mark, and order statistics.
#pragma once

#include <vector>

#include "io/common.h"

namespace perfbench {

using scishuffle::u64;

/// User + system CPU seconds consumed by this process so far (all threads).
double cpuSeconds();

/// Returns freed heap pages to the OS and clears the kernel's VmHWM, so the
/// next peakRssBytes() reads the high-water mark of what runs in between.
void resetPeakRss();

/// VmHWM of this process in bytes (getrusage's lifetime maximum where
/// /proc is absent).
u64 peakRssBytes();

/// Median of the samples (mean of the middle two for an even count); 0 for
/// none.
double median(std::vector<double> samples);

double maxOf(const std::vector<double>& samples);

}  // namespace perfbench
