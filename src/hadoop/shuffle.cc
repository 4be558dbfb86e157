#include "hadoop/shuffle.h"

#include <atomic>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "io/clock.h"
#include "obs/metrics_stream.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "testing/fault_injector.h"

namespace scishuffle::hadoop {

namespace {

std::atomic<u64> g_serverSeq{0};

void writeSegmentFile(const std::filesystem::path& p, const Bytes& seg) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  check(out.good(), "cannot open shuffle overflow file");
  if (!seg.empty()) {
    out.write(reinterpret_cast<const char*>(seg.data()),
              static_cast<std::streamsize>(seg.size()));
  }
  out.flush();
  check(out.good(), "short write to shuffle overflow file");
}

}  // namespace

Bytes readSegmentFile(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  check(in.good(), "cannot open shuffle overflow file for reading");
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

ShuffleServer::ShuffleServer(std::size_t numMaps, int numReducers,
                             testing::FaultInjector* faults, bool retainSegments)
    : faults_(faults),
      retain_(retainSegments),
      numMaps_(numMaps),
      serverId_(g_serverSeq.fetch_add(1, std::memory_order_relaxed) + 1) {
  check(numReducers >= 1, "need at least one reducer");
  queues_.resize(static_cast<std::size_t>(numReducers));
  if (retain_) {
    store_.resize(numMaps);
    storeFiles_.resize(numMaps);
  }
}

ShuffleServer::~ShuffleServer() {
  MutexLock lock(mutex_);
  drainLocked();
}

void ShuffleServer::setPendingBytesLimit(u64 limitBytes) {
  MutexLock lock(mutex_);
  pendingLimitBytes_ = limitBytes;
}

void ShuffleServer::setOverflowDir(std::filesystem::path dir) {
  MutexLock lock(mutex_);
  overflowDir_ = std::move(dir);
}

void ShuffleServer::publish(std::size_t mapIndex, std::vector<Bytes> segments) {
  // Inject before any state changes: a thrown IoError here leaves the server
  // exactly as if the publish never happened, so the caller can retry it.
  if (faults_ != nullptr) faults_->hit(testing::site::kShufflePublish);
  obs::ScopedSpan span("segment_publish", "shuffle");
  u64 segBytes = 0;
  for (const Bytes& s : segments) segBytes += s.size();
  if (span.enabled()) {
    span.arg("map", mapIndex);
    span.arg("bytes", segBytes);
  }
  // Phase 1: validate, and decide under the lock whether this publish
  // overflows to disk (the governor-shrunk pending-bytes limit would be
  // breached by these bytes staying resident).
  bool overflow = false;
  std::filesystem::path dir;
  {
    MutexLock lock(mutex_);
    check(segments.size() == queues_.size(), "segment count != reducer count");
    check(published_ < numMaps_, "more publishes than map tasks");
    if (pendingLimitBytes_ != 0 && !overflowDir_.empty() &&
        pendingBytes_ + segBytes > pendingLimitBytes_) {
      overflow = true;
      dir = overflowDir_;
    }
  }
  // Phase 2 (overflow only): write the segment files OUTSIDE the lock — disk
  // I/O must not serialize other publishers or block fetchers — and only then
  // expose the queue entries that point at them.
  std::vector<std::filesystem::path> files;
  if (overflow) {
    std::filesystem::create_directories(dir);
    files.reserve(segments.size());
    for (std::size_t r = 0; r < segments.size(); ++r) {
      std::filesystem::path p =
          dir / ("ovf_" + std::to_string(serverId_) + "_" + std::to_string(mapIndex) + "_" +
                 std::to_string(r) + ".seg");
      writeSegmentFile(p, segments[r]);
      files.push_back(std::move(p));
    }
    obs::emitEvent(obs::event::kShuffleOverflowSpill, testing::site::kShufflePublish, segBytes);
  }
  {
    MutexLock lock(mutex_);
    check(published_ < numMaps_, "more publishes than map tasks");
    ++published_;
    if (firstPublishUs_ == 0) firstPublishUs_ = steadyNowUs();
    if (overflow) {
      overflowSegments_ += segments.size();
      overflowBytes_ += segBytes;
      for (const auto& p : files) overflowFiles_.push_back(p);
      if (retain_) storeFiles_[mapIndex] = files;  // refetch() re-reads the files
      for (std::size_t r = 0; r < queues_.size(); ++r) {
        ++pendingSegments_;  // in the backlog, but zero resident bytes
        queues_[r].push_back(Fetched{mapIndex, Bytes{}, files[r], segments[r].size()});
      }
    } else {
      if (retain_) store_[mapIndex] = segments;  // pristine copies for refetch()
      for (std::size_t r = 0; r < queues_.size(); ++r) {
        ++pendingSegments_;
        pendingBytes_ += segments[r].size();
        queues_[r].push_back(Fetched{mapIndex, std::move(segments[r]), {}, 0});
      }
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
  if (faults_ != nullptr && out.overflow_file.empty()) {
    // Models in-transit corruption (outside the lock): the popped copy is
    // damaged, the retained pristine copy (if any) is not. Overflow entries
    // carry no bytes to damage — the reader materializes them from disk.
    faults_->mutate(testing::site::kShuffleFetch, out.segment);
  }
  return out;
}

Bytes ShuffleServer::refetch(std::size_t mapIndex, int reducer) const {
  const auto r = static_cast<std::size_t>(reducer);
  std::filesystem::path file;
  {
    MutexLock lock(mutex_);
    check(retain_, "refetch requires retained segments");
    if (mapIndex < storeFiles_.size() && !storeFiles_[mapIndex].empty()) {
      file = storeFiles_[mapIndex][r];  // overflowed publish: re-read the file
    } else {
      check(mapIndex < store_.size() && !store_[mapIndex].empty(),
            "refetch of unpublished map output");
      return store_[mapIndex][r];
    }
  }
  return readSegmentFile(file);  // I/O outside the lock
}

void ShuffleServer::abort() {
  {
    MutexLock lock(mutex_);
    aborted_ = true;
    // The job is over; nothing will fetch the backlog. Drop it now so a
    // cancelled job's shuffle memory is freed immediately instead of at
    // server destruction.
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

std::size_t ShuffleServer::overflowSegments() const {
  MutexLock lock(mutex_);
  return overflowSegments_;
}

u64 ShuffleServer::overflowBytes() const {
  MutexLock lock(mutex_);
  return overflowBytes_;
}

void ShuffleServer::drainLocked() {
  for (auto& q : queues_) q.clear();
  pendingSegments_ = 0;
  pendingBytes_ = 0;
  for (auto& segs : store_) segs.clear();
  for (auto& files : storeFiles_) files.clear();
  for (const auto& p : overflowFiles_) {
    std::error_code ec;
    std::filesystem::remove(p, ec);  // best effort; TempDir cleanup backstops
  }
  overflowFiles_.clear();
}

}  // namespace scishuffle::hadoop
