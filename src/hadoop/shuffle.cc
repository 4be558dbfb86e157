#include "hadoop/shuffle.h"

#include <stdexcept>

#include "io/clock.h"
#include "obs/metrics_stream.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "testing/fault_injector.h"

namespace scishuffle::hadoop {

ShuffleServer::ShuffleServer(std::size_t numMaps, int numReducers,
                             testing::FaultInjector* faults, bool retainSegments)
    : faults_(faults), retain_(retainSegments), numMaps_(numMaps) {
  check(numReducers >= 1, "need at least one reducer");
  queues_.resize(static_cast<std::size_t>(numReducers));
  if (retain_) store_.resize(numMaps);
}

ShuffleServer::~ShuffleServer() {
  MutexLock lock(mutex_);
  drainLocked();
}

void ShuffleServer::publish(std::size_t mapIndex, std::vector<Bytes> segments) {
  // Inject before any state changes: a thrown IoError here leaves the server
  // exactly as if the publish never happened, so the caller can retry it.
  if (faults_ != nullptr) faults_->hit(testing::site::kShufflePublish);
  obs::ScopedSpan span("segment_publish", "shuffle");
  if (span.enabled()) {
    u64 segBytes = 0;
    for (const Bytes& s : segments) segBytes += s.size();
    span.arg("map", mapIndex);
    span.arg("bytes", segBytes);
  }
  {
    MutexLock lock(mutex_);
    check(segments.size() == queues_.size(), "segment count != reducer count");
    check(published_ < numMaps_, "more publishes than map tasks");
    ++published_;
    if (firstPublishUs_ == 0) firstPublishUs_ = steadyNowUs();
    if (retain_) store_[mapIndex] = segments;  // pristine copies for refetch()
    for (std::size_t r = 0; r < queues_.size(); ++r) {
      ++pendingSegments_;
      pendingBytes_ += segments[r].size();
      queues_[r].push_back(Fetched{mapIndex, std::move(segments[r])});
    }
  }
  arrived_.notify_all();
}

std::optional<ShuffleServer::Fetched> ShuffleServer::fetch(int reducer) {
  const auto r = static_cast<std::size_t>(reducer);
  Fetched out;
  u64 stallStartUs = 0;
  u64 stallEndUs = 0;
  {
    MutexLock lock(mutex_);
    // Injection happens outside the lock (a delay must not serialize
    // publishers) and at most once per fetch call, before the queue entry is
    // consumed — so a thrown IoError loses nothing and a retry re-fetches it.
    bool injected = faults_ == nullptr;
    for (;;) {
      // A reducer about to block here is stalled behind map stragglers; the
      // wait is reported as one backpressure event (outside the lock below).
      if (stallStartUs == 0 && !aborted_ && queues_[r].empty() && published_ != numMaps_) {
        stallStartUs = steadyNowUs();
      }
      while (!aborted_ && queues_[r].empty() && published_ != numMaps_) arrived_.wait(lock);
      if (stallStartUs != 0 && stallEndUs == 0) stallEndUs = steadyNowUs();
      if (aborted_) throw std::runtime_error("shuffle aborted: a map task failed permanently");
      if (injected) break;
      injected = true;
      lock.unlock();
      faults_->hit(testing::site::kShuffleFetch);  // may throw IoError
      lock.lock();
    }
    if (queues_[r].empty()) return std::nullopt;  // all maps published, queue drained
    out = std::move(queues_[r].front());
    queues_[r].pop_front();
    --pendingSegments_;
    pendingBytes_ -= std::min<u64>(pendingBytes_, out.segment.size());
    lastFetchUs_ = steadyNowUs();
  }
  if (stallStartUs != 0) {
    obs::emitEvent(obs::event::kShuffleBackpressureWait, testing::site::kShuffleFetch,
                   stallEndUs - std::min(stallEndUs, stallStartUs));
  }
  if (faults_ != nullptr) {
    // Models in-transit corruption (outside the lock): the popped copy is
    // damaged, the retained pristine copy (if any) is not.
    faults_->mutate(testing::site::kShuffleFetch, out.segment);
  }
  return out;
}

Bytes ShuffleServer::refetch(std::size_t mapIndex, int reducer) const {
  MutexLock lock(mutex_);
  check(retain_, "refetch requires retained segments");
  check(mapIndex < store_.size() && !store_[mapIndex].empty(),
        "refetch of unpublished map output");
  return store_[mapIndex][static_cast<std::size_t>(reducer)];
}

void ShuffleServer::abort() {
  {
    MutexLock lock(mutex_);
    aborted_ = true;
    // The job is over; nothing will fetch the backlog. Drop it now so a
    // failed job's shuffle memory is freed immediately instead of at server
    // destruction.
    drainLocked();
  }
  arrived_.notify_all();
}

u64 ShuffleServer::firstPublishUs() const {
  MutexLock lock(mutex_);
  return firstPublishUs_;
}

u64 ShuffleServer::lastFetchUs() const {
  MutexLock lock(mutex_);
  return lastFetchUs_;
}

std::size_t ShuffleServer::pendingSegments() const {
  MutexLock lock(mutex_);
  return pendingSegments_;
}

u64 ShuffleServer::pendingBytes() const {
  MutexLock lock(mutex_);
  return pendingBytes_;
}

void ShuffleServer::drainLocked() {
  for (auto& q : queues_) q.clear();
  pendingSegments_ = 0;
  pendingBytes_ = 0;
  for (auto& segs : store_) segs.clear();
}

}  // namespace scishuffle::hadoop
