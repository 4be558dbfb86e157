// Minimal fixed-size thread pool. The hadoop layer uses it to model
// map/reduce "slots" (at most `slots` tasks execute concurrently, the rest
// queue, mirroring Hadoop's per-node task slots); the block-framed codec
// container uses it to fan per-block compression and decode-ahead work out
// across cores. Lock discipline is proven by Clang's thread-safety analysis
// (see io/annotations.h and docs/STATIC_ANALYSIS.md).
#pragma once

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

  /// Blocks until every submitted task has finished.
  void wait();

  /// Tasks submitted but not yet picked up by a worker. Gauge accessor for
  /// the telemetry sampler (`threadpool.queue_depth`); safe from any thread.
  std::size_t queueDepth() const;

  /// Workers currently executing a task (`threadpool.active_workers`).
  int activeWorkers() const;

 private:
  void workerLoop();

  std::vector<Thread> workers_;
  mutable Mutex mutex_{lock_rank::kThreadPool};
  CondVar wake_;
  CondVar idle_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mutex_);
  int inFlight_ GUARDED_BY(mutex_) = 0;
  bool stopping_ GUARDED_BY(mutex_) = false;
};

}  // namespace scishuffle
