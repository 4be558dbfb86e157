#include "io/thread_pool.h"

#include "io/task_tag.h"

namespace scishuffle {

ThreadPool::ThreadPool(int slots) {
  check(slots >= 1, "need at least one slot");
  workers_.reserve(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  // Carry the submitter's job sinks: work enqueued by a job's thread (a map
  // task spilling onto the codec pool, say) writes to that job's recorder
  // and stream. A thread without sinks submits the task unwrapped.
  if (const obs::JobSinks* sinks = currentJobSinks(); sinks != nullptr) {
    task = [sinks, inner = std::move(task)] {
      ScopedJobSinks scope(sinks);
      inner();
    };
  }
  {
    MutexLock lock(mutex_);
    queue_.push(std::move(task));
    ++inFlight_;
  }
  wake_.notify_one();
}

void ThreadPool::wait() {
  MutexLock lock(mutex_);
  while (inFlight_ != 0) idle_.wait(lock);
}

std::size_t ThreadPool::queueDepth() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

int ThreadPool::activeWorkers() const {
  // inFlight_ counts submitted-but-unfinished tasks; subtracting the queued
  // ones leaves the tasks executing right now, on a worker or in await().
  MutexLock lock(mutex_);
  return inFlight_ - static_cast<int>(queue_.size());
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) wake_.wait(lock);
      if (queue_.empty()) return;  // stopping
      task = std::move(queue_.front());
      queue_.pop();
    }
    run(task);
  }
}

bool ThreadPool::runQueuedTask() {
  std::function<void()> task;
  {
    MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  // As on a worker, which carries no sinks: a task submitted from a thread
  // without them must not write to the helping thread's job.
  ScopedJobSinks none(nullptr);
  run(task);
  return true;
}

void ThreadPool::run(std::function<void()>& task) {
  task();
  {
    MutexLock lock(mutex_);
    --inFlight_;
  }
  idle_.notify_all();
}

}  // namespace scishuffle
