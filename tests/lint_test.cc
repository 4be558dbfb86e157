// Tests for tools/lint: each seeded-violation fixture under
// tools/lint/testdata must make exactly its check fail with a diagnostic
// carrying file and line, and the real repo must pass every check (which is
// also what the `lint.repo` ctest entry enforces at CI time).
#include <gtest/gtest.h>

#include <sstream>

#include "lint.h"

namespace lint = scishuffle::lint;

namespace {

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path(LINT_TESTDATA_DIR) / name;
}

testing::AssertionResult hasDiagnostic(const std::vector<lint::Diagnostic>& diags,
                                       const std::string& fileSuffix,
                                       const std::string& messagePiece) {
  for (const auto& d : diags) {
    if (d.file.size() >= fileSuffix.size() &&
        d.file.compare(d.file.size() - fileSuffix.size(), fileSuffix.size(), fileSuffix) == 0 &&
        d.message.find(messagePiece) != std::string::npos) {
      if (d.line <= 0) {
        return testing::AssertionFailure()
               << "diagnostic for " << fileSuffix << " has no line number: "
               << lint::formatDiagnostic(d);
      }
      return testing::AssertionSuccess();
    }
  }
  std::ostringstream os;
  for (const auto& d : diags) os << "  " << lint::formatDiagnostic(d) << "\n";
  return testing::AssertionFailure() << "no diagnostic matching file=*" << fileSuffix
                                     << " message~\"" << messagePiece << "\" in:\n"
                                     << os.str();
}

TEST(LintCounters, MissingDocMappingIsReportedWithFileAndLine) {
  const auto diags = lint::checkCounters(fixture("missing_counter"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "src/hadoop/counters.h", "GHOST_RECORDS"));
  EXPECT_TRUE(hasDiagnostic(diags, "counters.h", "not documented in docs/OBSERVABILITY.md"));
  EXPECT_EQ(diags[0].line, 6);  // the kGhostRecords declaration line
}

TEST(LintCounters, DuplicateReportNameIsReported) {
  const auto diags = lint::checkCounters(fixture("duplicate_counter"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "counters.h", "mapped by both kMapOutputRecords"));
}

TEST(LintCounters, StaleCounterTableRowIsReported) {
  const auto diags = lint::checkCounters(fixture("stale_counter_row"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "docs/OBSERVABILITY.md", "`RETIRED_SEGMENTS`"));
  EXPECT_TRUE(hasDiagnostic(diags, "OBSERVABILITY.md", "names no constant in src/hadoop/counters.h"));
  EXPECT_EQ(diags[0].line, 6);  // the stale counter row
}

TEST(LintFormats, StaleDocVersionIsReportedAgainstTheDoc) {
  const auto diags = lint::checkFormats(fixture("stale_version"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "docs/FORMATS.md", "u8(version=2)"));
  EXPECT_TRUE(hasDiagnostic(diags, "docs/FORMATS.md", "u8(version=3)"));  // the expected value
}

TEST(LintFormats, UndocumentedFrameTypeIsReportedAgainstTheEnum) {
  const auto diags = lint::checkFormats(fixture("undocumented_frame_type"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "src/net/frame.h", "FrameType::kShadow (= 3)"));
  EXPECT_TRUE(hasDiagnostic(diags, "frame.h", "has no row in docs/FORMATS.md"));
  EXPECT_EQ(diags[0].line, 9);  // the kShadow enumerator
}

TEST(LintFormats, StaleFrameTypeRowsAreReportedAgainstTheDoc) {
  const auto diags = lint::checkFormats(fixture("stale_frame_type_row"));
  ASSERT_EQ(diags.size(), 2u);
  // A row naming no enumerator...
  EXPECT_TRUE(hasDiagnostic(diags, "docs/FORMATS.md", "`kRetired` names no FrameType"));
  // ...and a row whose value disagrees with the enum.
  EXPECT_TRUE(hasDiagnostic(diags, "docs/FORMATS.md", "`kAssign` says 7"));
  EXPECT_TRUE(hasDiagnostic(diags, "docs/FORMATS.md", "defines 2"));
}

TEST(LintSpans, UndocumentedSpanNameIsReported) {
  const auto diags = lint::checkSpans(fixture("undocumented_span"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "src/hadoop/foo.cc", "mystery_span"));
  EXPECT_EQ(diags[0].line, 4);
}

TEST(LintSpans, StaleTaxonomyRowIsReported) {
  const auto diags = lint::checkSpans(fixture("stale_span_row"));
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_TRUE(hasDiagnostic(diags, "docs/OBSERVABILITY.md", "`retired_copy`"));
  EXPECT_TRUE(hasDiagnostic(diags, "OBSERVABILITY.md", "names no ScopedSpan under src/"));
  EXPECT_EQ(diags[0].line, 6);  // the `retired_copy` row
  // A row naming two spans is checked name by name.
  EXPECT_TRUE(hasDiagnostic(diags, "docs/OBSERVABILITY.md", "`stride_inverse`"));
  EXPECT_EQ(diags[1].line, 7);
}

TEST(LintFaultSites, UndocumentedSiteIsReported) {
  const auto diags = lint::checkFaultSites(fixture("undocumented_site"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "src/testing/fault_injector.h", "shadow.site"));
}

TEST(LintFaultSites, UndocumentedTransportSiteIsReported) {
  // The violation lives in src/net/socket.h, not the core injector header —
  // the linter must scan both against docs/FAULTS.md.
  const auto diags = lint::checkFaultSites(fixture("undocumented_net_site"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "src/net/socket.h", "net.shadow"));
  EXPECT_TRUE(hasDiagnostic(diags, "socket.h", "not documented in docs/FAULTS.md"));
}

TEST(LintFaultSites, TreeWithoutTransportLayerStillLints) {
  // undocumented_site has no src/net/: the transport scan must skip quietly,
  // reporting only the seeded core-injector violation.
  const auto diags = lint::checkFaultSites(fixture("undocumented_site"));
  for (const auto& d : diags) {
    EXPECT_EQ(d.file.find("net/socket.h"), std::string::npos) << lint::formatDiagnostic(d);
  }
}

TEST(LintFaultSites, StaleSiteTableRowIsReported) {
  // Sites of both headers are declared; only the row whose site neither
  // header declares is stale.
  const auto diags = lint::checkFaultSites(fixture("stale_fault_site_row"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "docs/FAULTS.md", "\"retired.admit\""));
  EXPECT_TRUE(hasDiagnostic(diags, "FAULTS.md", "names no site constant"));
  EXPECT_EQ(diags[0].line, 6);  // the stale site row
}

TEST(LintSimdKernels, UndocumentedKernelIsReported) {
  const auto diags = lint::checkSimdKernels(fixture("undocumented_kernel"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "src/io/simd.h", "byteShuffle"));
  EXPECT_TRUE(hasDiagnostic(diags, "simd.h", "not documented in docs/PERFORMANCE.md"));
  EXPECT_EQ(diags[0].line, 17);  // the SCISHUFFLE_SIMD_KERNEL(byteShuffle, ...) line
}

TEST(LintSimdKernels, MissingScalarReferenceIsReported) {
  const auto diags = lint::checkSimdKernels(fixture("dangling_scalar"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "src/io/simd.h", "byteSumReference"));
  EXPECT_TRUE(hasDiagnostic(diags, "simd.h", "does not appear elsewhere in this file"));
}

TEST(LintSimdKernels, StaleKernelTableRowIsReported) {
  const auto diags = lint::checkSimdKernels(fixture("stale_kernel_row"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "docs/PERFORMANCE.md", "byteSubtractFrom"));
  EXPECT_TRUE(hasDiagnostic(diags, "PERFORMANCE.md", "has no SCISHUFFLE_SIMD_KERNEL registration"));
  EXPECT_EQ(diags[0].line, 6);  // the `byteSubtractFrom` table row
}

TEST(LintGauges, UndocumentedGaugeIsReportedWithFileAndLine) {
  const auto diags = lint::checkGauges(fixture("undocumented_gauge"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "src/obs/sampler.h", "shadow.bytes"));
  EXPECT_TRUE(hasDiagnostic(diags, "sampler.h", "not documented in docs/OBSERVABILITY.md"));
  EXPECT_EQ(diags[0].line, 6);  // the kShadowBytes declaration line
}

TEST(LintGauges, DuplicateWireNameIsReported) {
  const auto diags = lint::checkGauges(fixture("duplicate_gauge"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "sampler.h", "mapped by both kProcessRssBytes"));
}

TEST(LintGauges, StaleTaxonomyRowIsReported) {
  const auto diags = lint::checkGauges(fixture("stale_gauge_row"));
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_TRUE(hasDiagnostic(diags, "docs/OBSERVABILITY.md", "`retired.outstanding_bytes`"));
  EXPECT_TRUE(hasDiagnostic(diags, "OBSERVABILITY.md", "names no constant in src/obs/sampler.h"));
  EXPECT_EQ(diags[0].line, 6);  // the stale gauge row
  EXPECT_TRUE(hasDiagnostic(diags, "docs/OBSERVABILITY.md", "`retired.event`"));
  EXPECT_EQ(diags[1].line, 11);  // the stale event row
}

TEST(LintSync, RawPrimitiveOutsideAnnotationsIsReported) {
  const auto diags = lint::checkSyncPrimitives(fixture("raw_sync_primitive"));
  ASSERT_EQ(diags.size(), 2u);  // the std::mutex decl and the std::lock_guard use
  EXPECT_TRUE(hasDiagnostic(diags, "src/hadoop/bad_sync.cc", "std::mutex"));
  EXPECT_TRUE(hasDiagnostic(diags, "src/hadoop/bad_sync.cc", "std::lock_guard"));
  EXPECT_TRUE(hasDiagnostic(diags, "bad_sync.cc", "io/annotations.h"));
}

TEST(LintSync, UnrankedMutexAndUndocumentedLevelAreReported) {
  const auto diags = lint::checkLockHierarchy(fixture("unregistered_mutex"));
  ASSERT_EQ(diags.size(), 2u);
  // kGhost is declared in the hierarchy header but missing from the doc.
  EXPECT_TRUE(hasDiagnostic(diags, "src/io/lock_order.h", "test.ghost"));
  EXPECT_TRUE(hasDiagnostic(diags, "lock_order.h", "docs/LOCK_ORDER.md"));
  // naked_ declares no lock_rank:: level at all.
  EXPECT_TRUE(hasDiagnostic(diags, "src/hadoop/state.h", "naked_"));
}

TEST(LintSync, StaleHierarchyRowIsReported) {
  const auto diags = lint::checkLockHierarchy(fixture("stale_lock_row"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(hasDiagnostic(diags, "docs/LOCK_ORDER.md", "`test.retired`"));
  EXPECT_TRUE(hasDiagnostic(diags, "LOCK_ORDER.md", "names no level declared in"));
  EXPECT_EQ(diags[0].line, 6);  // the stale rank-20 row
}

TEST(LintSync, UnguardedCondVarWaitIsReported) {
  const auto diags = lint::checkCondVarWaits(fixture("unguarded_cond_wait"));
  ASSERT_EQ(diags.size(), 1u);  // goodWait/goodPoll must not be flagged
  EXPECT_TRUE(hasDiagnostic(diags, "src/hadoop/waiter.cc", "ready_"));
  EXPECT_EQ(diags[0].line, 10);  // the bare ready_.wait(lock) in badWait()
}

TEST(LintMissingInputs, AbsentFilesProduceDiagnosticsNotCrashes) {
  const auto root = fixture("does_not_exist");
  EXPECT_FALSE(lint::checkCounters(root).empty());
  EXPECT_FALSE(lint::checkFormats(root).empty());
  EXPECT_FALSE(lint::checkSpans(root).empty());
  EXPECT_FALSE(lint::checkFaultSites(root).empty());
  EXPECT_FALSE(lint::checkSimdKernels(root).empty());
  EXPECT_FALSE(lint::checkGauges(root).empty());
  EXPECT_FALSE(lint::checkLockHierarchy(root).empty());
}

// The real tree must hold every invariant — the same gate `lint.repo` runs.
TEST(LintRepo, RealRepositoryIsClean) {
  std::ostringstream os;
  const int violations = lint::runAllChecks(SCISHUFFLE_REPO_ROOT, os);
  EXPECT_EQ(violations, 0) << os.str();
}

}  // namespace
