// Deterministic fault injection for the shuffle data path.
//
// A FaultPlan is a seeded list of rules, each naming an injection site (a
// string constant below), a fault kind, and trigger controls. The runtime
// threads a FaultInjector through ShuffleServer and the SBF1 block decoder;
// tests then assert the recovery layer (hadoop/retry.h) survives the plan
// and produces bit-identical output. Everything is derived from the
// plan's seed, so a failing run replays exactly.
//
// Two-phase API, matching what a fault can safely do at each site:
//   * hit(site)          — fires throw-io and delay rules. Call it before any
//                          state is consumed, so a throw never loses data.
//   * mutate(site, buf)  — fires corrupt-bytes and truncate rules on a copy of
//                          the payload about to be handed out.
// Each rule matches exactly one phase, so a rule never double-counts.
#pragma once

#include <cstddef>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/annotations.h"
#include "io/common.h"

namespace scishuffle::testing {

/// Canonical injection-site names. Sites are plain strings so tests can add
/// ad-hoc sites without touching this header.
namespace site {
inline constexpr const char* kShufflePublish = "shuffle.publish";
inline constexpr const char* kShuffleFetch = "shuffle.fetch";
inline constexpr const char* kBlockDecode = "block.decode";
}  // namespace site

enum class FaultKind {
  kCorruptBytes,  // xor one seeded-random byte of the payload (mutate phase)
  kTruncate,      // cut the payload to a seeded-random shorter length (mutate phase)
  kThrowIo,       // throw IoError (hit phase)
  kDelay,         // sleep delay_us (hit phase)
};

struct FaultRule {
  std::string site;
  FaultKind kind = FaultKind::kThrowIo;
  /// Chance of firing on each eligible call, decided by the plan's PRNG.
  double probability = 1.0;
  /// Calls at this site to let pass before the rule becomes eligible.
  u64 skip_calls = 0;
  /// Stop firing after this many triggers; 0 means unlimited.
  u64 max_triggers = 1;
  /// Sleep length for kDelay.
  u64 delay_us = 0;
};

struct FaultPlan {
  u64 seed = 1;
  std::vector<FaultRule> rules;
};

/// Thread-safe; one instance is shared by all tasks of a job.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Phase 1: fires kThrowIo / kDelay rules matching `site`.
  void hit(const std::string& site);

  /// Phase 2: fires kCorruptBytes / kTruncate rules matching `site` on `buf`.
  void mutate(const std::string& site, Bytes& buf);

  /// Triggers recorded at one site, across both phases.
  u64 triggered(const std::string& site) const;
  u64 totalTriggered() const;

  const FaultPlan& plan() const { return plan_; }

 private:
  struct RuleState {
    u64 calls = 0;
    u64 triggers = 0;
  };

  // Decides (under lock_) whether rule i fires for this call, updating its
  // counters. Returns false for non-matching sites.
  bool shouldFire(std::size_t i, const std::string& site) REQUIRES(lock_);

  FaultPlan plan_;  // const after construction
  mutable Mutex lock_{lock_rank::kFaultInjector};
  std::mt19937_64 rng_ GUARDED_BY(lock_);
  std::vector<RuleState> states_ GUARDED_BY(lock_);
  std::unordered_map<std::string, u64> site_triggers_ GUARDED_BY(lock_);
};

}  // namespace scishuffle::testing
