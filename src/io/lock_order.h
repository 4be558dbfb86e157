// The checked-in lock hierarchy (docs/LOCK_ORDER.md) plus the debug-build
// runtime order checker behind it.
//
// Every long-lived `Mutex` in src/ is constructed with a `LockLevel` from
// `lock_rank` below: a human-readable name plus an integer rank. The rule is
// strict ascent — a thread may only acquire a mutex whose rank is greater
// than the rank of every ranked mutex it already holds. Because ranks are a
// total order, any program that obeys the rule cannot form an acquisition
// cycle, so lock-ordering deadlocks are impossible by construction; the
// checker turns "impossible" into "enforced" by validating every acquisition
// in debug/TSan/model-check builds and reporting violations as file:line
// chains through the observed acquisition graph.
//
// Release builds compile the whole layer out: `Mutex` carries no level field
// and `Mutex(LockLevel)` is an empty constructor, so the annotated wrappers
// stay zero-cost shims over std::mutex (bench-guarded — see docs/LOCK_ORDER.md).
//
// Adding a lock: pick the smallest rank band that is above everything the new
// lock's critical sections acquire and below everything held when it is
// acquired, add a `kYourLock` constant here, document it in
// docs/LOCK_ORDER.md, and pass it to the Mutex constructor. tools/lint
// enforces that every `Mutex` member in src/ names a level and that every
// level is documented.
#pragma once

#include <cstdint>

#if defined(SCISHUFFLE_MODEL_CHECK) && !defined(SCISHUFFLE_LOCK_ORDER_CHECK)
#define SCISHUFFLE_LOCK_ORDER_CHECK 1
#endif

#ifdef SCISHUFFLE_LOCK_ORDER_CHECK
#include <source_location>
#include <stdexcept>
#include <string>
#endif

namespace scishuffle {

/// A named rank in the global lock hierarchy. `name == nullptr` means
/// unranked: the mutex is tracked in deadlock reports but exempt from order
/// validation (used by test-local mutexes; src/ members must be ranked).
struct LockLevel {
  int rank = 0;
  const char* name = nullptr;
};

// The hierarchy. Lower rank = acquired earlier (outermost); a thread holding
// rank R may only acquire ranks strictly greater than R. Bands are spaced so
// new locks slot in without renumbering. The table in docs/LOCK_ORDER.md
// mirrors this list and records *why* each edge exists; tools/lint keeps the
// two in sync.
namespace lock_rank {

// -- Outermost: registries that invoke component callbacks under their lock.
inline constexpr LockLevel kGaugeRegistry{10, "obs.gauge_registry"};

// -- Service/control plane: owns fleets, calls down into them under its lock.
inline constexpr LockLevel kJobService{20, "service.jobs"};
inline constexpr LockLevel kGovernor{30, "service.governor"};
inline constexpr LockLevel kCoordinator{40, "dist.coordinator"};
inline constexpr LockLevel kCoordinatorMonitor{45, "dist.coordinator_monitor"};

// -- Data plane: the shuffle server sits below its governors and the gauge
//    registry that reads it; its own critical sections acquire nothing.
inline constexpr LockLevel kShuffleServer{50, "shuffle.server"};

// -- Per-task tag-binding registries (lookup only; released before use).
inline constexpr LockLevel kTraceBindings{55, "obs.trace_bindings"};
inline constexpr LockLevel kMetricsBindings{56, "obs.metrics_bindings"};

// -- Leaf infrastructure: nothing is acquired while these are held, but they
//    are acquired from inside higher layers' critical sections.
inline constexpr LockLevel kThreadPool{60, "io.thread_pool"};
inline constexpr LockLevel kServiceEndpoint{61, "service.endpoint"};
inline constexpr LockLevel kSignalGuard{62, "service.signals"};
inline constexpr LockLevel kSegmentStore{63, "dist.segment_store"};
inline constexpr LockLevel kDataPlane{64, "dist.data_plane"};
inline constexpr LockLevel kHeartbeat{65, "dist.heartbeat"};
inline constexpr LockLevel kNetListener{66, "net.listener"};
inline constexpr LockLevel kNetConnectionSend{67, "net.connection_send"};
inline constexpr LockLevel kWorkloadRegistry{68, "service.workload_registry"};

// -- Telemetry leaves.
inline constexpr LockLevel kHistogram{71, "obs.histogram"};
inline constexpr LockLevel kTraceRecorder{75, "obs.trace_recorder"};
inline constexpr LockLevel kMetricsStream{76, "obs.metrics_stream"};
inline constexpr LockLevel kSampler{80, "obs.sampler"};

// -- Deep leaves reached from data-plane critical sections.
inline constexpr LockLevel kCounters{90, "hadoop.counters"};
inline constexpr LockLevel kErrorSlot{92, "hadoop.error_slot"};
inline constexpr LockLevel kJobOutputs{94, "hadoop.job_outputs"};
inline constexpr LockLevel kCodecRegistry{95, "compress.codec_registry"};
inline constexpr LockLevel kFaultInjector{96, "testing.fault_injector"};

}  // namespace lock_rank

#ifdef SCISHUFFLE_LOCK_ORDER_CHECK

/// Thrown (in checked builds only) when an acquisition violates the declared
/// hierarchy. The what() string carries the full file:line cycle report.
class LockOrderError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace lockorder {

/// Validates acquiring `mu` at `level` against the caller's held-set.
/// Throws LockOrderError (after printing the report to stderr and bumping the
/// violation counter) when the edge descends or repeats a rank. Unranked
/// levels skip validation. Called before the mutex is (possibly blockingly)
/// acquired so the report fires even when the acquisition would deadlock.
void preAcquire(const void* mu, LockLevel level, const std::source_location& loc);

/// Records `mu` on the caller's held-stack and the edge (deepest ranked held
/// lock -> level) in the global acquisition graph used for cycle reports.
void postAcquire(const void* mu, LockLevel level, const std::source_location& loc);

/// Removes `mu` from the caller's held-stack (any position: mid-scope
/// unlock() of an outer lock is legal).
void release(const void* mu);

/// True in builds where the checker is compiled in (CI's TSan job asserts
/// this so the "on by default under the tsan label" wiring cannot silently
/// regress).
bool enabled();

/// Total violations observed process-wide (also counted when the throw is
/// swallowed by a caller).
std::uint64_t violationCount();

/// Human-readable dump of the calling thread's held locks with acquisition
/// sites; the model-check scheduler embeds this in deadlock reports.
std::string heldLocksDescription();

/// Test hook: clears the observed-edge graph and the violation counter (the
/// calling thread must hold no tracked locks).
void resetForTest();

}  // namespace lockorder

#endif  // SCISHUFFLE_LOCK_ORDER_CHECK

}  // namespace scishuffle
