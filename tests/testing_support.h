// Shared helpers for scishuffle tests: a temporary directory, a parked pool
// worker, the property seed, and deterministic data generators that mimic
// the byte patterns the paper cares about. Tests read the JSON artifacts the
// program emits (trace files, jobReportJson, metrics lines) with the
// program's own strict reader, obs::parseJson (src/obs/json.h).
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "io/common.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "io/thread_pool.h"

namespace scishuffle::testing {

/// RAII temporary directory under the system temp root, removed recursively
/// on destruction. Replaces the ad-hoc create/remove_all pairs the suites
/// used to carry.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "scishuffle") {
    static std::atomic<u64> counter{0};
    std::random_device rd;
    const u64 tag = (static_cast<u64>(rd()) << 16) ^ counter.fetch_add(1);
    path_ = std::filesystem::temp_directory_path() / (prefix + "_" + std::to_string(tag));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // best effort
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  std::filesystem::path file(const std::string& name) const { return path_ / name; }

 private:
  std::filesystem::path path_;
};

/// Parks the only worker of a one-thread ThreadPool on a gate. The gate
/// opens when the ParkedWorker is destroyed or, failing that, after 2 s, so
/// work that waits for the worker is late rather than hung. The constructor
/// returns once the worker is parked.
class ParkedWorker {
 public:
  explicit ParkedWorker(ThreadPool& pool) : pool_(pool) {
    pool.submit([this] {
      std::unique_lock<std::mutex> lock(mu_);
      parked_ = true;
      cv_.notify_all();
      waited_ = !cv_.wait_for(lock, std::chrono::seconds(2), [this] { return open_; });
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  ~ParkedWorker() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
    pool_.wait();
  }
  ParkedWorker(const ParkedWorker&) = delete;
  ParkedWorker& operator=(const ParkedWorker&) = delete;

  /// True once the 2 s have passed with the gate shut: anything that needed
  /// the worker before then waited for the gate.
  bool waitedForGate() {
    std::lock_guard<std::mutex> lock(mu_);
    return waited_;
  }

 private:
  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool open_ = false;
  bool waited_ = false;
};

inline constexpr u64 kDefaultPropertySeed = 20260806;

/// Seed for the randomized suites: SCISHUFFLE_PROP_SEED in the environment
/// overrides the fixed default, and every suite logs the seed it ran with so
/// a failure replays exactly.
inline u64 propertySeed() {
  if (const char* env = std::getenv("SCISHUFFLE_PROP_SEED")) {
    return static_cast<u64>(std::strtoull(env, nullptr, 10));
  }
  return kDefaultPropertySeed;
}

/// gtest fixture with a per-test PRNG seeded from propertySeed(); the seed is
/// recorded in the test output for replay.
class SeededRngTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = propertySeed();
    rng_.seed(seed_);
    RecordProperty("scishuffle_seed", std::to_string(seed_));
  }

  u64 seed_ = 0;
  std::mt19937_64 rng_;
};

/// FNV-1a, 64-bit: a compact, fully specified fingerprint of a byte stream
/// (the golden-digest tests pin outputs with it).
inline u64 fnv1a64(ByteSpan data) {
  u64 h = 0xcbf29ce484222325ull;
  for (const u8 b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Uniform random bytes from a fixed seed.
inline Bytes randomBytes(std::size_t n, u32 seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, 255);
  Bytes out(n);
  for (auto& b : out) b = static_cast<u8>(dist(rng));
  return out;
}

/// Low-entropy bytes: long runs with occasional switches.
inline Bytes runnyBytes(std::size_t n, u32 seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> value(0, 255);
  std::uniform_int_distribution<int> runLen(1, 300);
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    const u8 v = static_cast<u8>(value(rng));
    const std::size_t len = std::min<std::size_t>(static_cast<std::size_t>(runLen(rng)),
                                                  n - out.size());
    out.insert(out.end(), len, v);
  }
  return out;
}

/// The paper's canonical input: serialized int32 triples from a row-major
/// walk of an nx*ny*nz grid (Fig. 3 uses 100^3 -> 12,000,000 bytes).
inline Bytes gridWalkTriples(i32 nx, i32 ny, i32 nz) {
  Bytes out;
  out.reserve(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
              static_cast<std::size_t>(nz) * 12);
  MemorySink sink(out);
  for (i32 x = 0; x < nx; ++x) {
    for (i32 y = 0; y < ny; ++y) {
      for (i32 z = 0; z < nz; ++z) {
        writeI32(sink, x);
        writeI32(sink, y);
        writeI32(sink, z);
      }
    }
  }
  return out;
}

/// Key stream with a variable-name prefix per key, like Fig. 2's
/// "windspeed1" records.
inline Bytes namedKeyStream(const std::string& name, i32 nx, i32 ny, float value) {
  Bytes out;
  MemorySink sink(out);
  for (i32 x = 0; x < nx; ++x) {
    for (i32 y = 0; y < ny; ++y) {
      writeText(sink, name);
      writeI32(sink, x);
      writeI32(sink, y);
      writeF32(sink, value + static_cast<float>(x + y));
    }
  }
  return out;
}

}  // namespace scishuffle::testing
