// The recovery layer, unit to end-to-end: retryWithPolicy / Backoff
// semantics, then the ISSUE acceptance scenario — a fault plan that corrupts
// one shuffled segment and drops one fetch must yield bit-identical job
// output with the recovery counters visible in the JSON report, and the same
// plan with retries disabled must fail with a structured error naming the
// site.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "hadoop/report.h"
#include "hadoop/retry.h"
#include "hadoop/runtime.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "testing/fault_injector.h"
#include "testing_support.h"

namespace scishuffle::hadoop {
namespace {

using scishuffle::testing::FaultKind;
using scishuffle::testing::FaultPlan;
using scishuffle::testing::FaultRule;
using scishuffle::testing::JsonParser;
using scishuffle::testing::JsonValue;
namespace site = scishuffle::testing::site;

// ---------------------------------------------------------------------------
// retryWithPolicy unit behavior

RetryPolicy enabledPolicy(int attempts = 4) {
  RetryPolicy p;
  p.enabled = true;
  p.max_attempts = attempts;
  p.base_backoff_us = 1;  // keep unit tests fast
  p.max_backoff_us = 10;
  return p;
}

TEST(RetryPolicyTest, SucceedsAfterTransientIoError) {
  int calls = 0;
  const int v = retryWithPolicy(enabledPolicy(), "unit.site", [&] {
    if (++calls < 3) throw IoError("flaky");
    return 42;
  });
  EXPECT_EQ(v, 42);
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, RetriesFormatErrorsToo) {
  int calls = 0;
  retryWithPolicy(enabledPolicy(), "unit.site", [&] {
    if (++calls < 2) throw FormatError("bad bytes");
  });
  EXPECT_EQ(calls, 2);
}

TEST(RetryPolicyTest, ExhaustionCarriesStructuredReport) {
  int calls = 0;
  try {
    retryWithPolicy(enabledPolicy(3), "shuffle.fetch", [&]() -> int {
      ++calls;
      throw IoError("connection reset");
    });
    FAIL() << "expected RetryExhaustedError";
  } catch (const RetryExhaustedError& e) {
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(e.report().site, "shuffle.fetch");
    EXPECT_EQ(e.report().attempts, 3);
    EXPECT_NE(e.report().last_error.find("connection reset"), std::string::npos);
    const std::string what = e.what();
    EXPECT_NE(what.find("shuffle.fetch"), std::string::npos) << what;
    EXPECT_NE(what.find("3 attempts"), std::string::npos) << what;
  }
}

TEST(RetryPolicyTest, NonRetryableExceptionsPassThrough) {
  int calls = 0;
  EXPECT_THROW(retryWithPolicy(enabledPolicy(), "unit.site",
                               [&]() -> int {
                                 ++calls;
                                 throw std::logic_error("bug, not weather");
                               }),
               std::logic_error);
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicyTest, DisabledPolicyMakesOneAttemptButStaysStructured) {
  RetryPolicy off;  // enabled = false
  int calls = 0;
  try {
    retryWithPolicy(off, "block.decode", [&] {
      ++calls;
      throw FormatError("crc mismatch");
    });
    FAIL() << "expected RetryExhaustedError";
  } catch (const RetryExhaustedError& e) {
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(e.report().site, "block.decode");
    EXPECT_EQ(e.report().attempts, 1);
  }
}

TEST(RetryPolicyTest, OnRetryHookFiresPerFailedAttempt) {
  int hooks = 0;
  retryWithPolicy(
      enabledPolicy(4), "unit.site",
      [&, calls = std::make_shared<int>(0)] {
        if (++*calls < 3) throw IoError("flaky");
      },
      [&](int attempt, const std::string& err) {
        ++hooks;
        EXPECT_GE(attempt, 1);
        EXPECT_FALSE(err.empty());
      });
  EXPECT_EQ(hooks, 2);  // attempts 1 and 2 failed; no hook after success
}

TEST(BackoffTest, DeterministicGrowingAndCapped) {
  RetryPolicy p = enabledPolicy(8);
  p.base_backoff_us = 100;
  p.max_backoff_us = 1000;
  p.jitter = 0.5;
  p.seed = 99;

  Backoff a(p, "some.site");
  Backoff b(p, "some.site");
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const u64 da = a.delayUs(attempt);
    EXPECT_EQ(da, b.delayUs(attempt)) << "same seed+site must replay";
    if (attempt == 1) {
      EXPECT_EQ(da, 0u) << "first attempt never waits";
    } else {
      // Exponential base capped at max, jittered down by at most `jitter`.
      const u64 base = std::min<u64>(100u << (attempt - 2), 1000u);
      EXPECT_LE(da, base);
      EXPECT_GE(da, base / 2);
    }
  }
  // A different site walks a different jitter sequence (seeds are combined
  // with the site hash).
  Backoff other(p, "other.site");
  bool anyDiff = false;
  Backoff c(p, "some.site");
  for (int attempt = 2; attempt <= 8; ++attempt) {
    anyDiff = anyDiff || (other.delayUs(attempt) != c.delayUs(attempt));
  }
  EXPECT_TRUE(anyDiff);
}

// ---------------------------------------------------------------------------
// End-to-end acceptance: faulted jobs heal (or fail with named sites).

Bytes toBytes(const std::string& s) {
  return Bytes(reinterpret_cast<const u8*>(s.data()),
               reinterpret_cast<const u8*>(s.data()) + s.size());
}

std::string toString(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

Bytes encodeI64(i64 v) {
  Bytes out;
  MemorySink sink(out);
  writeI64(sink, v);
  return out;
}

i64 decodeI64(const Bytes& b) {
  MemorySource src(b);
  return readI64(src);
}

std::map<std::string, i64> countsOf(const JobResult& result) {
  std::map<std::string, i64> counts;
  for (const auto& out : result.outputs) {
    for (const auto& kv : out) counts.emplace(toString(kv.key), decodeI64(kv.value));
  }
  return counts;
}

JobResult runWordCount(JobConfig config) {
  const std::vector<std::string> vocab = {"the", "windspeed", "grid", "key",
                                          "map", "reduce",    "sci", "curve"};
  std::vector<MapTask> tasks;
  for (int m = 0; m < 4; ++m) {
    tasks.push_back(MapTask{[m, &vocab](const EmitFn& emit) {
      for (int i = 0; i < 200; ++i) {
        emit(toBytes(vocab[static_cast<std::size_t>((i * 7 + m) % 8)]), encodeI64(1));
      }
    }});
  }
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) sum += decodeI64(v);
    emit(key, encodeI64(sum));
  };
  return runJob(config, tasks, reduce);
}

JobConfig faultedConfig(scishuffle::testing::FaultInjector* faults) {
  JobConfig config;
  config.num_reducers = 3;
  config.intermediate_codec = "gzipish";
  config.fault_injector = faults;
  config.shuffle_retry = enabledPolicy(4);
  return config;
}

TEST(RecoveryAcceptanceTest, CorruptBlockAndDroppedFetchHealBitIdentically) {
  // The ISSUE scenario: one corrupted segment + one dropped fetch.
  FaultPlan plan;
  plan.seed = 20260806;
  plan.rules.push_back({site::kShuffleFetch, FaultKind::kCorruptBytes});
  plan.rules.push_back({site::kShuffleFetch, FaultKind::kThrowIo});
  scishuffle::testing::FaultInjector faults(plan);

  const JobResult faulted = runWordCount(faultedConfig(&faults));
  EXPECT_EQ(faults.triggered(site::kShuffleFetch), 2u) << "both rules must have fired";

  // Bit-identical output versus a fault-free run.
  JobConfig clean;
  clean.num_reducers = 3;
  clean.intermediate_codec = "gzipish";
  const JobResult baseline = runWordCount(clean);
  EXPECT_EQ(countsOf(faulted), countsOf(baseline));

  // The recovery counters surface in the JSON report...
  const JsonValue doc = JsonParser::parse(jobReportJson(faulted));
  EXPECT_GE(doc.at("counters").at(counter::kShuffleFetchRetries).asU64(), 1u);
  EXPECT_GE(doc.at("counters").at(counter::kBlocksCorruptDetected).asU64(), 1u);
  EXPECT_GE(doc.at("counters").at(counter::kSegmentsRefetched).asU64(), 1u);
  // ...and the text report grows its recovery line.
  EXPECT_NE(jobReport(faulted).find("recovery:"), std::string::npos);
}

TEST(RecoveryAcceptanceTest, DroppedFetchWithRetriesDisabledNamesTheSite) {
  FaultPlan plan;
  plan.rules.push_back({site::kShuffleFetch, FaultKind::kThrowIo});
  scishuffle::testing::FaultInjector faults(plan);

  JobConfig config = faultedConfig(&faults);
  config.shuffle_retry.enabled = false;
  try {
    runWordCount(config);
    FAIL() << "expected RetryExhaustedError";
  } catch (const RetryExhaustedError& e) {
    EXPECT_EQ(e.report().site, site::kShuffleFetch);
    EXPECT_EQ(e.report().attempts, 1);
  }
}

TEST(RecoveryAcceptanceTest, CorruptSegmentWithRetriesDisabledNamesIntegritySite) {
  // With retry off no fetched segment is scanned (and none is retained), so
  // the in-transit corruption surfaces in the merge's block decoder; every
  // reduce attempt decodes the same damaged bytes, and the failure names the
  // decoder's integrity check.
  FaultPlan plan;
  plan.rules.push_back({site::kShuffleFetch, FaultKind::kCorruptBytes});
  scishuffle::testing::FaultInjector faults(plan);

  JobConfig config = faultedConfig(&faults);
  config.shuffle_retry.enabled = false;
  config.max_task_attempts = 2;
  try {
    runWordCount(config);
    FAIL() << "expected RetryExhaustedError";
  } catch (const RetryExhaustedError& e) {
    EXPECT_EQ(e.report().site, site::kBlockDecode);
    EXPECT_EQ(e.report().attempts, 2);
  }
  EXPECT_EQ(faults.triggered(site::kShuffleFetch), 1u);
}

TEST(RecoveryAcceptanceTest, TruncatedSegmentIsRecoveredToo) {
  FaultPlan plan;
  plan.seed = 5;
  plan.rules.push_back({site::kShuffleFetch, FaultKind::kTruncate});
  scishuffle::testing::FaultInjector faults(plan);

  const JobResult faulted = runWordCount(faultedConfig(&faults));
  JobConfig clean;
  clean.num_reducers = 3;
  clean.intermediate_codec = "gzipish";
  EXPECT_EQ(countsOf(faulted), countsOf(runWordCount(clean)));
  EXPECT_GE(faulted.counters.get(counter::kSegmentsRefetched), 1u);
}

TEST(RecoveryAcceptanceTest, DecodeTimeCorruptionHealsViaReduceReexecution) {
  // Corruption injected inside the block decoder (after fetch-time
  // verification) is seen mid-merge; the reduce task re-executes against the
  // intact stored segments.
  FaultPlan plan;
  plan.seed = 11;
  plan.rules.push_back({site::kBlockDecode, FaultKind::kCorruptBytes});
  scishuffle::testing::FaultInjector faults(plan);

  JobConfig config = faultedConfig(&faults);
  const JobResult faulted = runWordCount(config);
  EXPECT_EQ(faults.triggered(site::kBlockDecode), 1u);

  JobConfig clean;
  clean.num_reducers = 3;
  clean.intermediate_codec = "gzipish";
  EXPECT_EQ(countsOf(faulted), countsOf(runWordCount(clean)));
  EXPECT_GE(faulted.counters.get(counter::kBlocksCorruptDetected), 1u);
}

TEST(RecoveryAcceptanceTest, PublishFaultRetriesWithIntactSegments) {
  FaultPlan plan;
  plan.rules.push_back({site::kShufflePublish, FaultKind::kThrowIo});
  scishuffle::testing::FaultInjector faults(plan);

  const JobResult faulted = runWordCount(faultedConfig(&faults));
  EXPECT_EQ(faults.triggered(site::kShufflePublish), 1u);
  JobConfig clean;
  clean.num_reducers = 3;
  clean.intermediate_codec = "gzipish";
  EXPECT_EQ(countsOf(faulted), countsOf(runWordCount(clean)));
}

TEST(RecoveryAcceptanceTest, ShuffleRetryBudgetAloneEnablesReduceReexecution) {
  // With task attempts at their minimum, a corrupt block surfacing mid-merge
  // still heals: FormatError re-execution draws on the shuffle retry budget,
  // not just max_task_attempts.
  FaultPlan plan;
  plan.seed = 3;
  plan.rules.push_back({site::kBlockDecode, FaultKind::kCorruptBytes});
  scishuffle::testing::FaultInjector faults(plan);

  JobConfig config = faultedConfig(&faults);
  config.max_task_attempts = 1;

  const JobResult faulted = runWordCount(config);
  EXPECT_EQ(faults.triggered(site::kBlockDecode), 1u);
  JobConfig clean;
  clean.num_reducers = 3;
  clean.intermediate_codec = "gzipish";
  EXPECT_EQ(countsOf(faulted), countsOf(runWordCount(clean)));
  EXPECT_GE(faulted.counters.get(counter::kBlocksCorruptDetected), 1u);
}

TEST(RecoveryAcceptanceTest, FaultFreeRunKeepsRecoveryCountersAtZeroAndLineAbsent) {
  const JobResult result = runWordCount(faultedConfig(nullptr));
  EXPECT_EQ(result.counters.get(counter::kShuffleFetchRetries), 0u);
  EXPECT_EQ(result.counters.get(counter::kBlocksCorruptDetected), 0u);
  EXPECT_EQ(result.counters.get(counter::kSegmentsRefetched), 0u);
  EXPECT_EQ(jobReport(result).find("recovery:"), std::string::npos);
}

}  // namespace
}  // namespace scishuffle::hadoop
