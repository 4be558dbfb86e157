// Repo-invariant linter for scishuffle (ctest label: lint).
//
// Generic tools prove generic properties; this tool checks the cross-file
// contracts only this repo knows about — the same "exploit structure you
// know statically" philosophy the paper applies to intermediate keys,
// applied to our own sources and docs:
//
//   * counters   — every counter constant in src/hadoop/counters.h maps to
//                  exactly one report name, is referenced by the runtime
//                  (dead counters rot silently), and is documented in
//                  docs/OBSERVABILITY.md.
//   * formats    — the SBF1 magic/version constants in
//                  src/compress/block_format.h match the grammar lines in
//                  docs/FORMATS.md and the header's own file comment, and
//                  every SNF1 FrameType enumerator in src/net/frame.h (when
//                  present) has a row with its value in that doc's
//                  frame-type table, and every row names an enumerator.
//   * spans      — every ScopedSpan name emitted anywhere under src/ appears
//                  in docs/OBSERVABILITY.md's span taxonomy, and every span
//                  that taxonomy table names is emitted under src/.
//   * sites      — every fault-injection site constant in
//                  src/testing/fault_injector.h and in the transport header
//                  src/net/socket.h (when present) is documented in
//                  docs/FAULTS.md.
//   * kernels    — every SCISHUFFLE_SIMD_KERNEL(kernel, scalarRef)
//                  registration names a scalar reference defined in the same
//                  file and a kernel documented in docs/PERFORMANCE.md, and
//                  every row of that doc's kernel table names a registered
//                  kernel.
//   * gauges     — every gauge/event name constant in src/obs/sampler.h maps
//                  to exactly one wire name, is referenced outside the
//                  sampler subsystem (dead telemetry rots silently), and is
//                  documented in docs/OBSERVABILITY.md's gauge/event tables,
//                  and every name those tables list is such a constant.
//   * sync       — raw std sync primitives stay confined to io/annotations.h
//                  and the checker/scheduler layer, every Mutex under src/
//                  declares a lock_rank:: level that docs/LOCK_ORDER.md
//                  documents, every level that doc lists is declared, and
//                  every CondVar wait sits in a re-check loop.
//
// Each check takes the repo root, reads only the files it names, and returns
// diagnostics carrying file:line so CI output is clickable. Header
// self-containment probes are the CMake half of the lint suite (see
// tools/lint/CMakeLists.txt).
#pragma once

#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

namespace scishuffle::lint {

struct Diagnostic {
  std::string file;  // repo-relative path
  int line = 0;      // 1-based; 0 when the finding is file-level
  std::string message;
};

/// "file:line: error: message" (file-level findings omit the line).
std::string formatDiagnostic(const Diagnostic& d);

std::vector<Diagnostic> checkCounters(const std::filesystem::path& root);
std::vector<Diagnostic> checkFormats(const std::filesystem::path& root);
std::vector<Diagnostic> checkSpans(const std::filesystem::path& root);
std::vector<Diagnostic> checkFaultSites(const std::filesystem::path& root);
std::vector<Diagnostic> checkSimdKernels(const std::filesystem::path& root);
std::vector<Diagnostic> checkGauges(const std::filesystem::path& root);

/// Sync discipline (docs/LOCK_ORDER.md): raw std::mutex / std::lock_guard /
/// std::condition_variable are banned outside io/annotations.h and the
/// checker/scheduler layer beneath it — code using them is invisible to the
/// thread-safety analysis, the lock-order checker and the model-check
/// scheduler alike.
std::vector<Diagnostic> checkSyncPrimitives(const std::filesystem::path& root);

/// The declared lock hierarchy: ranks and names in src/io/lock_order.h are
/// unique, every level has a row in docs/LOCK_ORDER.md and every row names a
/// declared level, and every Mutex declared under src/ is constructed with a
/// lock_rank:: level.
std::vector<Diagnostic> checkLockHierarchy(const std::filesystem::path& root);

/// Every CondVar wait/wait_for sits inside a while/for re-check loop.
std::vector<Diagnostic> checkCondVarWaits(const std::filesystem::path& root);

/// Runs every check, prints diagnostics to `os`, returns the total count.
int runAllChecks(const std::filesystem::path& root, std::ostream& os);

}  // namespace scishuffle::lint
