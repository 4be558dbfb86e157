#include "io/model_sched.h"

#ifdef SCISHUFFLE_MODEL_CHECK

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "io/lock_order.h"

namespace scishuffle::sched {

namespace {

std::atomic<Scheduler*> gActive{nullptr};

// Which scheduler (if any) the calling OS thread is registered with, and as
// which model-thread id. A stale pointer from a previous explore() run is
// harmless: it never equals the new scheduler, so the thread re-registers.
thread_local Scheduler* tSched = nullptr;
thread_local int tTid = -1;

std::string site(const std::source_location& loc) {
  std::ostringstream os;
  os << loc.file_name() << ":" << loc.line();
  return os.str();
}

}  // namespace

struct Scheduler::Impl {
  enum class St {
    kRunnable,      // wants the token
    kRunning,       // holds the token (exactly one thread, except in abort)
    kBlockedMutex,  // waiting for waitMu to be released
    kBlockedCond,   // in CondVar::wait
    kBlockedTimed,  // in CondVar::wait_for — eligible for timeout rescue
    kBlockedJoin,   // in Thread::join on joinTarget
    kFinished,
  };

  struct ThreadRec {
    St st = St::kRunnable;
    std::condition_variable cv;
    const void* waitMu = nullptr;
    const void* waitCv = nullptr;
    int joinTarget = -1;
    bool wokenByNotify = false;
    bool timedOut = false;
    std::string lastOp = "spawned";
  };

  struct Owner {
    int tid = -1;
    std::string at;
  };

  Strategy* strategy = nullptr;
  std::uint64_t maxSteps = 0;

  std::mutex m;
  std::condition_variable doneCv;  // signaled as threads finish (for uninstall)
  std::vector<std::unique_ptr<ThreadRec>> threads;
  std::unordered_map<const void*, Owner> owner;                  // model mutex -> holder
  std::unordered_map<const void*, std::vector<int>> waiters;     // model condvar -> wait queue
  int current = -1;
  bool aborting = false;
  bool failed = false;
  std::string failure;
  std::uint64_t steps = 0;

  static const char* stName(St st) {
    switch (st) {
      case St::kRunnable: return "runnable";
      case St::kRunning: return "running";
      case St::kBlockedMutex: return "blocked on mutex";
      case St::kBlockedCond: return "blocked in wait()";
      case St::kBlockedTimed: return "blocked in wait_for()";
      case St::kBlockedJoin: return "blocked in join()";
      case St::kFinished: return "finished";
    }
    return "?";
  }

  void failLocked(const std::string& what) {
    if (!failed) {
      failed = true;
      failure = what;
    }
  }

  void abortLocked() {
    aborting = true;
    for (auto& t : threads) t->cv.notify_all();
    doneCv.notify_all();
  }

  std::string deadlockReportLocked() {
    std::ostringstream os;
    os << "model-check deadlock: no runnable thread and no timed waiter to rescue\n";
    for (std::size_t i = 0; i < threads.size(); ++i) {
      const ThreadRec& t = *threads[i];
      os << "  thread " << i << ": " << stName(t.st) << " — " << t.lastOp;
      if (t.st == St::kBlockedMutex) {
        const auto it = owner.find(t.waitMu);
        if (it != owner.end()) {
          os << " (mutex held by thread " << it->second.tid << ", acquired at " << it->second.at
             << ")";
        }
      }
      if (t.st == St::kBlockedJoin) os << " (joining thread " << t.joinTarget << ")";
      os << "\n";
    }
    os << "  detecting thread's tracked locks:\n" << lockorder::heldLocksDescription();
    return os.str();
  }

  /// Rescue path: when nothing is runnable, every timed waiter times out at
  /// once. Returns true when at least one thread became runnable.
  bool rescueTimedWaitersLocked() {
    bool any = false;
    for (std::size_t i = 0; i < threads.size(); ++i) {
      ThreadRec& t = *threads[i];
      if (t.st != St::kBlockedTimed) continue;
      auto& ws = waiters[t.waitCv];
      ws.erase(std::remove(ws.begin(), ws.end(), static_cast<int>(i)), ws.end());
      t.timedOut = true;
      t.st = St::kRunnable;
      any = true;
    }
    return any;
  }

  /// Picks the next token holder among runnable threads. `exclude` (when >= 0
  /// and others are runnable) implements yield()'s must-switch. Returns false
  /// when a deadlock was detected (failure recorded, abort started).
  bool pickAndGrantLocked(int exclude) {
    ++steps;
    if (steps > maxSteps) {
      failLocked("model-check step limit exceeded (possible livelock); raise "
                 "ExploreOptions::max_steps if the workload is legitimately this long");
      abortLocked();
      return false;
    }
    for (;;) {
      std::vector<int> cands;
      for (std::size_t i = 0; i < threads.size(); ++i) {
        if (threads[i]->st == St::kRunnable && static_cast<int>(i) != exclude)
          cands.push_back(static_cast<int>(i));
      }
      if (cands.empty() && exclude >= 0 && threads[exclude]->st == St::kRunnable) {
        cands.push_back(exclude);  // nobody else to switch to
      }
      if (cands.empty()) {
        if (rescueTimedWaitersLocked()) continue;
        failLocked(deadlockReportLocked());
        abortLocked();
        return false;
      }
      std::size_t idx = cands.size() == 1 ? 0 : strategy->pick(cands);
      if (idx >= cands.size()) idx = cands.size() - 1;
      const int next = cands[idx];
      threads[next]->st = St::kRunning;
      current = next;
      threads[next]->cv.notify_all();
      return true;
    }
  }

  /// Parks the calling thread until it holds the token. With canThrow, an
  /// abort surfaces as SchedulerAborted; without (unlock / join / destructor
  /// paths, which must not throw) the thread simply proceeds — the schedule
  /// is already failed and every thread is unwinding.
  void parkUntilRunningLocked(std::unique_lock<std::mutex>& lk, int tid, bool canThrow) {
    ThreadRec& me = *threads[tid];
    me.cv.wait(lk, [&] { return me.st == St::kRunning || aborting; });
    if (aborting) {
      me.st = St::kRunning;  // let it proceed/unwind freely
      if (canThrow) throw SchedulerAborted();
    }
  }

  /// A plain scheduling point: self stays a candidate.
  void schedulePointLocked(std::unique_lock<std::mutex>& lk, int tid, bool mustSwitch,
                           bool canThrow) {
    if (aborting) {
      if (canThrow) throw SchedulerAborted();
      return;
    }
    threads[tid]->st = St::kRunnable;
    if (!pickAndGrantLocked(mustSwitch ? tid : -1)) {
      if (canThrow) throw SchedulerAborted();
      threads[tid]->st = St::kRunning;
      return;
    }
    parkUntilRunningLocked(lk, tid, canThrow);
  }

  /// Blocking point: caller has already moved self to a Blocked state.
  void blockAndScheduleLocked(std::unique_lock<std::mutex>& lk, int tid, bool canThrow) {
    if (!pickAndGrantLocked(-1)) {
      if (canThrow) throw SchedulerAborted();
      threads[tid]->st = St::kRunning;
      return;
    }
    parkUntilRunningLocked(lk, tid, canThrow);
  }

  void releaseMutexLocked(const void* mu) {
    owner.erase(mu);
    for (auto& t : threads) {
      if (t->st == St::kBlockedMutex && t->waitMu == mu) t->st = St::kRunnable;
    }
  }

  void acquireMutexLocked(std::unique_lock<std::mutex>& lk, int tid, const void* mu,
                          const std::string& at) {
    ThreadRec& me = *threads[tid];
    while (owner.count(mu) != 0) {
      me.st = St::kBlockedMutex;
      me.waitMu = mu;
      blockAndScheduleLocked(lk, tid, /*canThrow=*/true);
    }
    owner[mu] = Owner{tid, at};
  }
};

Scheduler::Scheduler(Strategy* strategy, std::uint64_t maxSteps) : impl_(new Impl) {
  impl_->strategy = strategy;
  impl_->maxSteps = maxSteps;
}

Scheduler::~Scheduler() {
  if (gActive.load(std::memory_order_acquire) == this) uninstall();
  delete impl_;
}

Scheduler* Scheduler::active() { return gActive.load(std::memory_order_acquire); }

void Scheduler::install() {
  Impl& s = *impl_;
  {
    std::unique_lock<std::mutex> lk(s.m);
    auto root = std::make_unique<Impl::ThreadRec>();
    root->st = Impl::St::kRunning;
    root->lastOp = "root";
    s.threads.push_back(std::move(root));
    s.current = 0;
    s.strategy->onThreadRegistered(0);
  }
  tSched = this;
  tTid = 0;
  Scheduler* expected = nullptr;
  if (!gActive.compare_exchange_strong(expected, this)) {
    std::fputs("model-check: nested Scheduler::install()\n", stderr);
    std::abort();
  }
}

void Scheduler::uninstall() {
  Impl& s = *impl_;
  gActive.store(nullptr, std::memory_order_release);
  std::unique_lock<std::mutex> lk(s.m);
  // The root thread is the caller: it has returned from the body, so it is
  // finished by definition (after an abort it woke as kRunning without ever
  // being re-granted, so don't gate this on s.current).
  if (s.threads[0]->st == Impl::St::kRunning) s.threads[0]->st = Impl::St::kFinished;
  auto allDone = [&] {
    for (const auto& t : s.threads) {
      if (t->st != Impl::St::kFinished) return false;
    }
    return true;
  };
  if (!allDone()) {
    // Body returned with managed threads still live (or a failure left them
    // parked): tear the schedule down and wait for the unwind.
    s.failLocked("explore() body returned while managed threads were still live");
    s.abortLocked();
    if (!s.doneCv.wait_for(lk, std::chrono::seconds(10), allDone)) {
      std::fputs("model-check: managed threads did not unwind after abort\n", stderr);
      std::fputs(s.deadlockReportLocked().c_str(), stderr);
      std::abort();
    }
  }
  tSched = nullptr;
  tTid = -1;
}

bool Scheduler::aborted() const { return impl_->aborting; }

int Scheduler::selfTid() {
  if (tSched == this) return tTid;
  // An OS thread the harness did not spawn (not wrapped in scishuffle::Thread)
  // touched managed state: register it lazily and park until scheduled.
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  const int tid = static_cast<int>(s.threads.size());
  auto rec = std::make_unique<Impl::ThreadRec>();
  rec->lastOp = "lazily registered";
  s.threads.push_back(std::move(rec));
  s.strategy->onThreadRegistered(tid);
  tSched = this;
  tTid = tid;
  s.parkUntilRunningLocked(lk, tid, /*canThrow=*/true);
  return tid;
}

void Scheduler::lockMutex(const void* mu, const std::source_location& loc) {
  const int tid = selfTid();
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  if (s.aborting) throw SchedulerAborted();
  s.threads[tid]->lastOp = "acquiring mutex at " + site(loc);
  s.schedulePointLocked(lk, tid, /*mustSwitch=*/false, /*canThrow=*/true);
  s.acquireMutexLocked(lk, tid, mu, site(loc));
}

bool Scheduler::tryLockMutex(const void* mu, const std::source_location& loc) {
  const int tid = selfTid();
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  if (s.aborting) throw SchedulerAborted();
  s.threads[tid]->lastOp = "try_lock at " + site(loc);
  s.schedulePointLocked(lk, tid, /*mustSwitch=*/false, /*canThrow=*/true);
  if (s.owner.count(mu) != 0) return false;
  s.owner[mu] = Impl::Owner{tid, site(loc)};
  return true;
}

void Scheduler::unlockMutex(const void* mu) {
  const int tid = selfTid();
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  s.releaseMutexLocked(mu);
  if (s.aborting) return;
  s.threads[tid]->lastOp = "released mutex";
  // Unlock is a preemption point (the classic place racing threads slip in),
  // but must never throw: it runs from MutexLock's destructor.
  s.schedulePointLocked(lk, tid, /*mustSwitch=*/false, /*canThrow=*/false);
}

void Scheduler::condWait(const void* cv, const void* mu, const std::source_location& loc) {
  const int tid = selfTid();
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  if (s.aborting) throw SchedulerAborted();
  Impl::ThreadRec& me = *s.threads[tid];
  s.releaseMutexLocked(mu);
  me.st = Impl::St::kBlockedCond;
  me.waitCv = cv;
  me.waitMu = mu;
  me.wokenByNotify = false;
  me.lastOp = "wait() at " + site(loc);
  s.waiters[cv].push_back(tid);
  s.blockAndScheduleLocked(lk, tid, /*canThrow=*/true);
  me.wokenByNotify = false;
  s.acquireMutexLocked(lk, tid, mu, site(loc));
}

bool Scheduler::condWaitTimed(const void* cv, const void* mu, const std::source_location& loc) {
  const int tid = selfTid();
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  if (s.aborting) throw SchedulerAborted();
  Impl::ThreadRec& me = *s.threads[tid];
  s.releaseMutexLocked(mu);
  me.st = Impl::St::kBlockedTimed;
  me.waitCv = cv;
  me.waitMu = mu;
  me.wokenByNotify = false;
  me.timedOut = false;
  me.lastOp = "wait_for() at " + site(loc);
  s.waiters[cv].push_back(tid);
  s.blockAndScheduleLocked(lk, tid, /*canThrow=*/true);
  const bool notified = me.wokenByNotify && !me.timedOut;
  me.wokenByNotify = false;
  me.timedOut = false;
  s.acquireMutexLocked(lk, tid, mu, site(loc));
  return notified;
}

void Scheduler::notifyOne(const void* cv) {
  selfTid();
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  if (s.aborting) return;
  auto& ws = s.waiters[cv];
  if (ws.empty()) return;
  // Which waiter wakes is a genuine nondeterministic choice — hand it to the
  // strategy so wrong-waiter bugs are explorable.
  std::size_t idx = ws.size() == 1 ? 0 : s.strategy->pick(ws);
  if (idx >= ws.size()) idx = ws.size() - 1;
  const int w = ws[idx];
  ws.erase(ws.begin() + static_cast<std::ptrdiff_t>(idx));
  s.threads[w]->wokenByNotify = true;
  s.threads[w]->st = Impl::St::kRunnable;
}

void Scheduler::notifyAll(const void* cv) {
  selfTid();
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  if (s.aborting) return;
  auto& ws = s.waiters[cv];
  for (const int w : ws) {
    s.threads[w]->wokenByNotify = true;
    s.threads[w]->st = Impl::St::kRunnable;
  }
  ws.clear();
}

int Scheduler::registerChild() {
  selfTid();
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  const int tid = static_cast<int>(s.threads.size());
  auto rec = std::make_unique<Impl::ThreadRec>();
  // Runnable from the moment of registration (not from when the OS actually
  // starts the thread) — candidate sets must not depend on wall-clock races
  // or DFS replay and seed replay would diverge.
  rec->st = Impl::St::kRunnable;
  s.threads.push_back(std::move(rec));
  s.strategy->onThreadRegistered(tid);
  return tid;
}

void Scheduler::spawnPoint() {
  const int tid = selfTid();
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  if (s.aborting) return;
  s.threads[tid]->lastOp = "spawned a thread";
  // canThrow=false: throwing from Thread's constructor with a live std::thread
  // member would terminate.
  s.schedulePointLocked(lk, tid, /*mustSwitch=*/false, /*canThrow=*/false);
}

void Scheduler::childBegin(int tid) {
  tSched = this;
  tTid = tid;
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  s.threads[tid]->lastOp = "started";
  s.parkUntilRunningLocked(lk, tid, /*canThrow=*/true);
}

void Scheduler::childEnd(int tid) {
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  Impl::ThreadRec& me = *s.threads[tid];
  me.st = Impl::St::kFinished;
  me.lastOp = "finished";
  for (auto& t : s.threads) {
    if (t->st == Impl::St::kBlockedJoin && t->joinTarget == tid) t->st = Impl::St::kRunnable;
  }
  s.doneCv.notify_all();
  if (s.aborting) return;
  // Hand the token off; never park (the OS thread is about to exit) and
  // never throw (we are past the body's catch).
  s.pickAndGrantLocked(-1);
}

void Scheduler::joinThread(int tid) {
  const int self = selfTid();
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  if (s.aborting) return;
  Impl::ThreadRec& me = *s.threads[self];
  if (s.threads[tid]->st == Impl::St::kFinished) return;
  me.st = Impl::St::kBlockedJoin;
  me.joinTarget = tid;
  me.lastOp = "join()";
  // canThrow=false: joins run from destructors (Sampler, ThreadPool). On
  // abort the real join below still completes because every child unwinds.
  s.blockAndScheduleLocked(lk, self, /*canThrow=*/false);
  me.joinTarget = -1;
}

void Scheduler::yield() {
  const int tid = selfTid();
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  if (s.aborting) throw SchedulerAborted();
  s.threads[tid]->lastOp = "yield";
  s.schedulePointLocked(lk, tid, /*mustSwitch=*/true, /*canThrow=*/true);
}

void Scheduler::recordFailure(const std::string& what) {
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  s.failLocked(what);
  s.abortLocked();
}

bool Scheduler::hasFailure() const {
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  return s.failed;
}

std::string Scheduler::failureText() const {
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  return s.failure;
}

std::uint64_t Scheduler::steps() const {
  Impl& s = *impl_;
  std::unique_lock<std::mutex> lk(s.m);
  return s.steps;
}

}  // namespace scishuffle::sched

#endif  // SCISHUFFLE_MODEL_CHECK
