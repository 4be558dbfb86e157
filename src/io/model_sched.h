// Deterministic cooperative scheduler for model-check builds
// (-DSCISHUFFLE_MODEL_CHECK=ON).
//
// When a Scheduler is installed, every `Mutex`/`MutexLock`/`CondVar`
// operation (io/annotations.h) and every `scishuffle::Thread`
// (io/thread.h) routes through it instead of the OS: exactly one managed
// thread runs at a time, and at every synchronization operation the scheduler
// consults a pluggable Strategy to decide who runs next. Because the token
// handoff is the only source of interleaving, a schedule is fully determined
// by the Strategy's choice sequence — which is what lets
// testing/schedule.h replay a failing seed exactly, or enumerate all
// schedules of a small program by DFS.
//
// Model semantics (see docs/STATIC_ANALYSIS.md):
//   * The real std::mutex underneath a managed Mutex is never locked while a
//     scheduler is active; ownership lives in the model. Single-token
//     execution plus the real mutex/condvar used for the handoff provide the
//     happens-before edges, so the model is sound for data (TSan-clean).
//   * notify_one picks the woken waiter via the Strategy — the lost-wakeup
//     and wrong-waiter bugs become explorable choices.
//   * wait_for timeouts fire only as deadlock rescue: when no thread is
//     runnable, all timed waiters time out at once. This models "the periodic
//     thread eventually ticks" without exploding the schedule space.
//   * If no thread is runnable and no timed waiter can be rescued, the
//     scheduler prints every thread's state (with the lock-order layer's
//     held-at file:line sets) and fails the schedule — an explored deadlock
//     is a test failure with a replayable seed, not a hang.
//
// Threads that block in the OS (socket accept/read loops in net/) must NOT
// be managed: they would hold the token across a real block. They keep raw
// std::thread; model-check tests exercise the in-process components whose
// threads all use scishuffle::Thread.
#pragma once

#include <cstdint>
#include <source_location>
#include <stdexcept>
#include <string>
#include <vector>

namespace scishuffle::sched {

/// Thrown into managed threads when a schedule is being torn down after a
/// failure (deadlock, step-limit, first recorded exception). Thread bodies
/// unwind; the wrapper in io/thread.h swallows it.
class SchedulerAborted : public std::runtime_error {
 public:
  SchedulerAborted() : std::runtime_error("model-check schedule aborted") {}
};

/// Picks the next runnable thread (or notify target) at every choice point.
class Strategy {
 public:
  virtual ~Strategy() = default;
  /// `candidates` holds thread ids in registration order; returns an index
  /// into it. Must be deterministic given the same call sequence.
  virtual std::size_t pick(const std::vector<int>& candidates) = 0;
  virtual void onThreadRegistered(int tid) { (void)tid; }
};

class Scheduler {
 public:
  /// `maxSteps` bounds one schedule (livelock guard); exceeded => failure.
  explicit Scheduler(Strategy* strategy, std::uint64_t maxSteps = 2'000'000);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// The scheduler every hook consults; nullptr outside explore() runs.
  static Scheduler* active();

  /// Registers the calling thread as the root (tid 0) and hands it the
  /// token. Must be called with no tracked locks held and no other managed
  /// threads live.
  void install();
  /// Detaches; all managed threads must have finished (guaranteed after a
  /// body that joins its Threads, or after an aborted teardown).
  void uninstall();

  // --- hooks from annotations.h ---
  void lockMutex(const void* mu, const std::source_location& loc);
  bool tryLockMutex(const void* mu, const std::source_location& loc);
  void unlockMutex(const void* mu);
  void condWait(const void* cv, const void* mu, const std::source_location& loc);
  /// Returns true when woken by a notify, false on (rescue) timeout.
  bool condWaitTimed(const void* cv, const void* mu, const std::source_location& loc);
  void notifyOne(const void* cv);
  void notifyAll(const void* cv);

  // --- hooks from io/thread.h ---
  /// Parent side: allocates a tid for a child about to be spawned.
  int registerChild();
  /// Scheduling point right after a spawn (never throws: runs in Thread's
  /// constructor with a live std::thread member).
  void spawnPoint();
  /// First statement of the child body: parks until scheduled.
  void childBegin(int tid);
  /// Last statement of the child body: wakes joiners, hands off the token.
  void childEnd(int tid);
  /// Blocks the caller until `tid` has finished (then the real join is
  /// instant and cannot hold the token across an OS wait).
  void joinThread(int tid);

  /// Scheduling point that prefers to hand the token to someone else
  /// (awaitFuture's poll loop; prevents self-spin livelocks under DFS).
  void yield();

  /// Records the first failure (later ones are dropped) and tears the
  /// schedule down: every parked thread is woken into SchedulerAborted.
  void recordFailure(const std::string& what);

  bool hasFailure() const;
  std::string failureText() const;
  /// Scheduling decisions taken this schedule (a cheap schedule fingerprint).
  std::uint64_t steps() const;

  /// True once a failure started tearing the schedule down. annotations.h
  /// routes new operations to the real primitives in this window so
  /// destructor-driven unwinding cannot depend on scheduling.
  bool aborted() const;

 private:
  struct Impl;
  /// Model-thread id of the calling OS thread (lazily registers strangers).
  int selfTid();
  Impl* impl_;
};

}  // namespace scishuffle::sched
