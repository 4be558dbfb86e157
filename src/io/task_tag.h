// Per-thread job telemetry sinks. Two standalone runJob calls can overlap
// in one process, each running its map/reduce/codec work on pool threads —
// so "which job's recorder and stream does this span or event belong to?"
// cannot be answered by process-global state. Each thread carries a pointer
// to its running job's obs::JobSinks (nullptr = none), installed with
// ScopedJobSinks; ThreadPool::submit captures the submitter's pointer and
// installs it around the task, so work inherits its job's sinks transitively
// across pool hops (map task -> spill -> codec pool block). activeTrace() and
// activeMetrics() read it (src/obs/trace.h, src/obs/metrics_stream.h) without
// a lock, and fall back to the process-global slot only on a thread that
// carries no job: a span or event lands in one place, never in two.
//
// Lifetime: the pointer is raw. It stays valid because the JobSinks lives in
// the job's obs::TelemetrySession, and every task a job submits finishes
// before runJob returns: the map and reduce pools are waited, and
// BlockCompressedWriter and BlockDecodeSource await their codec-pool futures
// in their destructors. Work that could outlive the call that installed the
// sinks must not be submitted from a thread that carries them.
//
// This lives in io (not obs) because ThreadPool must propagate it and obs
// already links against io; io only forward-declares the struct, and a plain
// thread_local keeps the no-job path at one TLS read.
#pragma once

namespace scishuffle {

namespace obs {
struct JobSinks;
}  // namespace obs

namespace detail {
inline thread_local const obs::JobSinks* t_job_sinks = nullptr;
}  // namespace detail

/// The calling thread's job sinks; nullptr = no job telemetry installed.
inline const obs::JobSinks* currentJobSinks() { return detail::t_job_sinks; }

/// Installs `sinks` on the calling thread for the scope and restores the
/// previous pointer on destruction (scopes nest).
class ScopedJobSinks {
 public:
  explicit ScopedJobSinks(const obs::JobSinks* sinks) : prev_(detail::t_job_sinks) {
    detail::t_job_sinks = sinks;
  }
  ~ScopedJobSinks() { detail::t_job_sinks = prev_; }

  ScopedJobSinks(const ScopedJobSinks&) = delete;
  ScopedJobSinks& operator=(const ScopedJobSinks&) = delete;

 private:
  const obs::JobSinks* prev_;
};

}  // namespace scishuffle
