// scishuffle::Thread — std::thread with model-check scheduler integration.
//
// Components whose worker threads only synchronize through io/annotations.h
// primitives (ThreadPool workers, the obs Sampler) spawn with this wrapper.
// Outside a model-check run it is a zero-cost shim over std::thread. When a
// deterministic scheduler is installed (testing/schedule.h), the child
// registers before the constructor returns — so the candidate set never
// depends on an OS wall-clock race — parks until scheduled, reports any
// escaping exception as a schedule failure, and join() blocks through the
// scheduler instead of holding the token across an OS wait.
//
// Threads that block in the OS (socket accept/read loops) must stay raw
// std::thread: they cannot hand the token back while parked in a syscall.
// See io/model_sched.h.
#pragma once

#include <chrono>
#include <exception>
#include <functional>
#include <future>
#include <thread>
#include <utility>

#ifdef SCISHUFFLE_MODEL_CHECK
#include <string>

#include "io/model_sched.h"
#endif

namespace scishuffle {

class Thread {
 public:
  Thread() noexcept = default;

  template <typename F, typename... Args>
  explicit Thread(F&& f, Args&&... args) {
#ifdef SCISHUFFLE_MODEL_CHECK
    if (auto* s = sched::Scheduler::active(); s != nullptr && !s->aborted()) {
      sched_ = s;
      tid_ = s->registerChild();
      t_ = std::thread(
          [s, tid = tid_, fn = std::bind(std::forward<F>(f), std::forward<Args>(args)...)]() mutable {
            try {
              s->childBegin(tid);
              fn();
            } catch (const sched::SchedulerAborted&) {
              // Teardown unwind — the originating failure is already recorded.
            } catch (const std::exception& e) {
              s->recordFailure(std::string("exception escaped a managed thread: ") + e.what());
            } catch (...) {
              s->recordFailure("non-std exception escaped a managed thread");
            }
            s->childEnd(tid);
          });
      s->spawnPoint();
      return;
    }
#endif
    t_ = std::thread(std::forward<F>(f), std::forward<Args>(args)...);
  }

  Thread(Thread&& other) noexcept = default;
  Thread& operator=(Thread&& other) noexcept = default;
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  ~Thread() = default;  // std::thread semantics: terminate if still joinable

  bool joinable() const noexcept { return t_.joinable(); }

  void join() {
#ifdef SCISHUFFLE_MODEL_CHECK
    if (sched_ != nullptr && sched_ == sched::Scheduler::active()) {
      // Block through the scheduler first so the token is never held across
      // the OS-level join below (which is then effectively instant).
      sched_->joinThread(tid_);
    }
#endif
    t_.join();
  }

 private:
  std::thread t_;
#ifdef SCISHUFFLE_MODEL_CHECK
  sched::Scheduler* sched_ = nullptr;
  int tid_ = -1;
#endif
};

/// Blocking future wait that stays schedulable under model check: f.get()
/// would hold the scheduler token across an OS block while the task that
/// fulfills the future waits for that very token. The poll loop yields the
/// token between readiness checks; outside a model run it is exactly f.get().
template <typename T>
T awaitFuture(std::future<T>& f) {
#ifdef SCISHUFFLE_MODEL_CHECK
  if (auto* s = sched::Scheduler::active(); s != nullptr && !s->aborted()) {
    while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) s->yield();
  }
#endif
  return f.get();
}

}  // namespace scishuffle
