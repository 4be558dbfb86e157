// Minimal fixed-size thread pool. The hadoop layer uses it to model
// map/reduce "slots" (at most `slots` tasks execute concurrently, the rest
// queue, mirroring Hadoop's per-node task slots); the block-framed codec
// container uses it to fan per-block compression and decode-ahead work out
// across cores. Lock discipline is proven by Clang's thread-safety analysis
// (see io/annotations.h and docs/STATIC_ANALYSIS.md).
//
// A thread that waits on one of the pool's futures through await() runs the
// pool's queued tasks itself until its result is ready: a map task closing a
// segment compresses queued blocks, a reducer decodes queued frames, and
// neither sits idle beside a backlog the pool's own workers cannot clear.
// Only codec tasks (block compression and decode) are ever queued where a
// waiter can reach them. wait() never helps, so the map and reduce pools,
// which are joined with wait(), still run at most `slots` tasks at once.
#pragma once

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <type_traits>
#include <vector>

#include "io/annotations.h"
#include "io/thread.h"
#include "io/common.h"

namespace scishuffle {

class ThreadPool {
 public:
  explicit ThreadPool(int slots);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw; wrap exceptions yourself. The
  /// task runs with the submitter's job sinks installed (io/task_tag.h).
  void submit(std::function<void()> task);

  /// Enqueues a callable and returns a future for its result; exceptions
  /// thrown by the callable are captured into the future.
  template <typename F>
  auto submitTask(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    submit([task] { (*task)(); });
    return task->get_future();
  }

  /// Waits for `f`, a future of this pool's, and returns its value or
  /// rethrows its exception. Until `f` is ready the calling thread runs the
  /// oldest queued task, as a worker would; it blocks (through awaitFuture,
  /// so model-check builds still yield) only once the queue is empty. A task
  /// run here may be any submitter's and takes the fault injector's and the
  /// trace recorder's locks: the caller must hold no lock.
  template <typename T>
  T await(std::future<T>& f) {
    while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready && runQueuedTask()) {
    }
    return awaitFuture(f);
  }

  /// Blocks until every submitted task has finished. Runs no task itself.
  void wait();

  /// Tasks submitted but not yet picked up by a worker. Gauge accessor for
  /// the telemetry sampler (`threadpool.queue_depth`); safe from any thread.
  std::size_t queueDepth() const;

  /// Tasks executing right now, on a worker or on a thread inside await()
  /// (`threadpool.active_workers`).
  int activeWorkers() const;

 private:
  void workerLoop();
  /// Pops the oldest queued task and runs it on the calling thread; false
  /// when the queue is empty.
  bool runQueuedTask();
  /// Runs a popped task and retires it from inFlight_.
  void run(std::function<void()>& task);

  std::vector<Thread> workers_;
  mutable Mutex mutex_{lock_rank::kThreadPool};
  CondVar wake_;
  CondVar idle_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mutex_);
  int inFlight_ GUARDED_BY(mutex_) = 0;
  bool stopping_ GUARDED_BY(mutex_) = false;
};

}  // namespace scishuffle
