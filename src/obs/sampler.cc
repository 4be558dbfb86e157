#include "obs/sampler.h"

#include <chrono>
#include <fstream>
#include <utility>

#include "io/clock.h"
#include "obs/metrics_stream.h"
#include "obs/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace scishuffle::obs {

u64 currentRssBytes() {
#if defined(__linux__)
  // /proc/self/statm: "size resident shared ..." in pages; field 2 is the
  // current RSS — exactly the over-time signal the sampler wants.
  std::ifstream statm("/proc/self/statm");
  u64 totalPages = 0;
  u64 residentPages = 0;
  if (statm >> totalPages >> residentPages) {
    const long page = ::sysconf(_SC_PAGESIZE);
    return residentPages * (page > 0 ? static_cast<u64>(page) : 4096u);
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  // Portable fallback: ru_maxrss is the peak (not current) RSS, in KiB on
  // Linux/BSD — a monotone upper bound, better than a flat zero.
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) == 0) {
    return static_cast<u64>(ru.ru_maxrss) * 1024u;
  }
#endif
  return 0;
}

// ---- GaugeRegistry ---------------------------------------------------------

GaugeRegistration::~GaugeRegistration() {
  if (registry_ != nullptr) registry_->remove(id_);
}

GaugeRegistration& GaugeRegistration::operator=(GaugeRegistration&& other) noexcept {
  if (this != &other) {
    if (registry_ != nullptr) registry_->remove(id_);
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
  }
  return *this;
}

GaugeRegistration GaugeRegistry::add(std::string name, GaugeFn fn) {
  MutexLock lock(mutex_);
  const u64 id = nextId_++;
  sources_.push_back(Source{id, std::move(name), std::move(fn)});
  return GaugeRegistration(this, id);
}

void GaugeRegistry::remove(u64 id) {
  MutexLock lock(mutex_);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i].id == id) {
      sources_.erase(sources_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

std::map<std::string, u64> GaugeRegistry::sample() const {
  // Callbacks run under the registry lock: unregistration therefore cannot
  // complete mid-callback, which is the teardown guarantee components rely
  // on. Callbacks are leaf reads (atomics or short component locks) and
  // must never call back into the registry.
  std::map<std::string, u64> out;
  MutexLock lock(mutex_);
  for (const Source& s : sources_) out[s.name] += s.fn();
  return out;
}

std::size_t GaugeRegistry::sourceCount() const {
  MutexLock lock(mutex_);
  return sources_.size();
}

GaugeRegistry& processGauges() {
  static GaugeRegistry* registry = new GaugeRegistry();  // leaked: process lifetime
  return *registry;
}

// ---- Sampler ---------------------------------------------------------------

Sampler::Sampler(u64 intervalMs, GaugeRegistry& registry, TraceRecorder* recorder,
                 MetricsStream* stream)
    : intervalMs_(intervalMs),
      epochUs_(steadyNowUs()),
      registry_(&registry),
      recorder_(recorder),
      stream_(stream) {}

Sampler::~Sampler() { stop(); }

void Sampler::start() {
  if (intervalMs_ == 0) return;  // sampling disabled: no thread, no samples
  // The t≈0 baseline lands before start() returns, so even a run that ends
  // before the first interval has its starting reading.
  takeSample();
  MutexLock lock(mutex_);
  check(!running_, "sampler already running");
  running_ = true;
  stopRequested_ = false;
  thread_ = Thread([this] { loop(); });
}

void Sampler::stop() {
  Thread toJoin;
  {
    MutexLock lock(mutex_);
    if (!running_) return;  // idempotent; also resolves stop()-vs-~Sampler races
    running_ = false;
    stopRequested_ = true;
    toJoin = std::move(thread_);
  }
  wake_.notify_all();
  if (toJoin.joinable()) toJoin.join();
  // Final sample after the thread quiesced: the run's end state always lands
  // in the trace/stream/rollups, even for jobs shorter than one interval.
  takeSample();
}

bool Sampler::running() const {
  MutexLock lock(mutex_);
  return running_;
}

u64 Sampler::sampleCount() const {
  MutexLock lock(mutex_);
  return samples_;
}

std::map<std::string, GaugeRollup> Sampler::rollups() const {
  MutexLock lock(mutex_);
  return rollups_;
}

void Sampler::loop() {
  MutexLock lock(mutex_);
  while (!stopRequested_) {
    wake_.wait_for(lock, std::chrono::milliseconds(intervalMs_));
    if (stopRequested_) break;
    lock.unlock();
    takeSample();  // a spurious early wake just samples early — harmless
    lock.lock();
  }
}

void Sampler::takeSample() {
  std::map<std::string, u64> gauges = registry_->sample();
  gauges[gauge::kProcessRssBytes] = currentRssBytes();

  u64 ts = 0;
  if (stream_ != nullptr) {
    ts = stream_->writeSample(gauges);
  } else {
    const u64 now = steadyNowUs();
    ts = now >= epochUs_ ? now - epochUs_ : 0;
  }
  if (recorder_ != nullptr) recorder_->recordCounters(gauges);

  MutexLock lock(mutex_);
  ++samples_;
  for (const auto& [name, value] : gauges) {
    GaugeRollup& r = rollups_[name];
    r.sum += value;
    ++r.samples;
    if (r.samples == 1 || value > r.max) {
      r.max = value;
      r.peak_ts_us = ts;
    }
  }
}

}  // namespace scishuffle::obs
