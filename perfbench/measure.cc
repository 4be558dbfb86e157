#include "measure.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace perfbench {

double cpuSeconds() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void resetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5\n";
}

u64 peakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      u64 kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<u64>(usage.ru_maxrss) * 1024;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2;
}

double maxOf(const std::vector<double>& samples) {
  return samples.empty() ? 0 : *std::max_element(samples.begin(), samples.end());
}

}  // namespace perfbench
