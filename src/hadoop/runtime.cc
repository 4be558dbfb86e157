#include "hadoop/runtime.h"

#include <algorithm>
#include <exception>
#include <fstream>
#include <iterator>
#include <optional>
#include <thread>

#include "compress/block_format.h"
#include "compress/codec.h"
#include "hadoop/merge.h"
#include "hadoop/retry.h"
#include "hadoop/shuffle.h"
#include "io/annotations.h"
#include "io/clock.h"
#include "io/task_tag.h"
#include "io/thread_pool.h"
#include "obs/metrics_stream.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "testing/fault_injector.h"
#include "transform/transform_codec.h"

namespace scishuffle::hadoop {

namespace {

bool cancelRequested(const JobContext* ctx) {
  return ctx != nullptr && ctx->cancelled != nullptr &&
         ctx->cancelled->load(std::memory_order_relaxed);
}

/// Reads a shuffle overflow file back into memory (reduce-side merge needs
/// the bytes resident; the shuffle window did not).
Bytes readOverflowFile(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  check(in.good(), "cannot open shuffle overflow file for merge");
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// Announces the job's ShuffleServer to the hosting service (the memory
/// governor adjusts its pending-bytes limit, cancel() aborts it). Declared
/// right after the server so detach runs before the server is destroyed.
struct FleetAttachGuard {
  FleetAttachGuard(const JobContext* ctx, ShuffleServer& server) : ctx_(ctx), server_(server) {
    if (ctx_ != nullptr && ctx_->attach_shuffle) ctx_->attach_shuffle(server_);
  }
  ~FleetAttachGuard() {
    if (ctx_ != nullptr && ctx_->detach_shuffle) ctx_->detach_shuffle(server_);
  }
  FleetAttachGuard(const FleetAttachGuard&) = delete;
  FleetAttachGuard& operator=(const FleetAttachGuard&) = delete;

 private:
  const JobContext* ctx_;
  ShuffleServer& server_;
};

/// Registers a ThreadPool's queue-depth/active-workers gauges for the pool's
/// lifetime; every live pool registers under the same names, so the sampler
/// reads the process-wide totals. Declare directly after the pool: the
/// registrations then unregister before the pool is destroyed.
struct PoolGauges {
  explicit PoolGauges(ThreadPool& pool)
      : depth(obs::processGauges().add(obs::gauge::kThreadPoolQueueDepth,
                                       [&pool] { return static_cast<u64>(pool.queueDepth()); })),
        active(obs::processGauges().add(obs::gauge::kThreadPoolActiveWorkers, [&pool] {
          return static_cast<u64>(std::max(0, pool.activeWorkers()));
        })) {}
  obs::GaugeRegistration depth;
  obs::GaugeRegistration active;
};

/// Full decode scan of a block-framed segment; false on any frame/CRC error.
bool segmentIntact(const Bytes& segment, const Codec* codec) {
  try {
    BlockCompressedReader reader(segment, codec);
    while (reader.nextBlock()) {
    }
    return true;
  } catch (const FormatError&) {
    return false;
  }
}

/// Decode-scans a fetched segment; a corrupt one is re-fetched from the
/// server's retained pristine copy, bounded by the retry policy — the
/// in-memory version of Hadoop's reducer re-fetching a bad map output copy.
/// Throws RetryExhaustedError (site "segment.integrity") when recovery fails.
void verifyAndRecoverSegment(const JobConfig& config, ShuffleServer& server, const Codec* codec,
                             ShuffleServer::Fetched& fetched, int reducer, Counters& counters) {
  {
    obs::ScopedSpan span("segment_verify", "shuffle");
    span.arg("map", fetched.map_index);
    span.arg("bytes", fetched.segment.size());
    if (segmentIntact(fetched.segment, codec)) return;
  }
  counters.add(counter::kBlocksCorruptDetected, 1);
  obs::emitEvent(obs::event::kShuffleCorruptionDetected, "segment.integrity",
                 fetched.map_index);
  obs::ScopedSpan span("segment_refetch", "shuffle");
  span.arg("map", fetched.map_index);
  span.arg("reducer", static_cast<u64>(reducer));
  fetched.segment = retryWithPolicy(config.shuffle_retry, "segment.integrity", [&]() -> Bytes {
    if (!server.retainsSegments()) {
      throw FormatError("segment from map " + std::to_string(fetched.map_index) +
                        " is corrupt and no retained copy exists to re-fetch");
    }
    counters.add(counter::kSegmentsRefetched, 1);
    obs::emitEvent(obs::event::kShuffleSegmentRefetch, "segment.integrity", fetched.map_index);
    Bytes fresh = server.refetch(fetched.map_index, reducer);
    checkFormat(segmentIntact(fresh, codec), "re-fetched segment is still corrupt");
    return fresh;
  });
}

/// Adapter from the public executeMapTask to the pool-task shape: errors land
/// in the slot instead of propagating (pool tasks must not throw).
std::optional<MapOutput> runMapTaskWithRetries(const JobConfig& config, const Codec* codec,
                                               ThreadPool* codecPool, const MapTask& task,
                                               std::size_t taskIndex, MapTaskStats& stats,
                                               Counters& jobCounters, ErrorSlot& errors) {
  try {
    MapTaskExecution exec = executeMapTask(config, codec, codecPool, task, taskIndex);
    stats = std::move(exec.stats);
    jobCounters.merge(exec.counters);
    return std::move(exec.output);
  } catch (...) {
    errors.record();
    return std::nullopt;
  }
}

/// The Fig. 1 data path with an event-driven hand-off instead of a map
/// barrier: as each map task's output materializes, its per-reducer segments
/// are published to the ShuffleServer and fetching reducers pick them up
/// while late map tasks are still running. Per-block codec work (spill-side
/// compression, reduce-side decode-ahead) fans out across a shared pool.
JobResult runPipelined(const JobConfig& config, const std::vector<MapTask>& mapTasks,
                       const ReduceFn& reduce, const Codec* codec, const JobContext* ctx) {
  JobResult result;
  result.map_tasks.resize(mapTasks.size());
  result.reduce_tasks.resize(static_cast<std::size_t>(config.num_reducers));
  result.outputs.resize(static_cast<std::size_t>(config.num_reducers));
  Mutex outputsMutex{lock_rank::kJobOutputs};
  ErrorSlot errors;

  // Codec pool: the hosting service shares one pool across its concurrent
  // jobs (and registers its gauges once); a standalone job owns a private one.
  std::optional<ThreadPool> ownedCodecPool;
  std::optional<PoolGauges> ownedCodecPoolGauges;
  ThreadPool* codecPoolPtr = ctx != nullptr ? ctx->codec_pool : nullptr;
  if (codecPoolPtr == nullptr) {
    ownedCodecPool.emplace(codecPoolThreads(config.codec_threads));
    ownedCodecPoolGauges.emplace(*ownedCodecPool);
    codecPoolPtr = &*ownedCodecPool;
  }
  ThreadPool& codecPool = *codecPoolPtr;
  // Retry needs pristine copies to re-fetch; without it, keep today's pure
  // move semantics (no segment copies on the happy path).
  ShuffleServer server(mapTasks.size(), config.num_reducers, config.fault_injector,
                       /*retainSegments=*/config.shuffle_retry.enabled);
  FleetAttachGuard fleet(ctx, server);
  obs::GaugeRegistration shuffleSegments = obs::processGauges().add(
      obs::gauge::kShuffleInflightSegments,
      [&server] { return static_cast<u64>(server.pendingSegments()); });
  obs::GaugeRegistration shuffleBytes = obs::processGauges().add(
      obs::gauge::kShufflePendingBytes, [&server] { return server.pendingBytes(); });
  obs::GaugeRegistration shuffleOverflow = obs::processGauges().add(
      obs::gauge::kShuffleOverflowBytes, [&server] { return server.overflowBytes(); });

  const u64 jobStart = steadyNowUs();

  // Reducers start first and block on the shuffle server.
  ThreadPool reducePool(config.reduce_slots);
  PoolGauges reducePoolGauges(reducePool);
  for (int r = 0; r < config.num_reducers; ++r) {
    reducePool.submit([&, r] {
      fetchAndReduce(config, codec, &codecPool, reduce, server, mapTasks.size(), r, ctx, result,
                     outputsMutex, errors);
    });
  }

  {
    obs::ScopedSpan phase("map_phase", "map");
    ThreadPool mapPool(config.map_slots);
    PoolGauges mapPoolGauges(mapPool);
    for (std::size_t m = 0; m < mapTasks.size(); ++m) {
      mapPool.submit([&, m] {
        if (cancelRequested(ctx)) {
          // Cancelled before this task started: record it so the shuffle
          // aborts (fetchers are blocked waiting on publishes that will
          // never come) and stop scheduling work.
          errors.record(std::make_exception_ptr(JobCancelledError()));
          return;
        }
        auto output = runMapTaskWithRetries(config, codec, &codecPool, mapTasks[m], m,
                                            result.map_tasks[m], result.counters, errors);
        if (!output.has_value()) return;
        if (config.shuffle_retry.enabled || config.fault_injector != nullptr) {
          // Copy per attempt so a publish that throws mid-way can be retried
          // with intact segments; errors land in the slot (pool tasks must
          // not throw) and abort the shuffle after the map phase.
          try {
            retryWithPolicy(
                config.shuffle_retry, testing::site::kShufflePublish,
                [&] { server.publish(m, output->segments); },
                [&](int attempt, const std::string&) {
                  obs::emitEvent(obs::event::kShufflePublishRetry,
                                 testing::site::kShufflePublish, static_cast<u64>(attempt));
                });
          } catch (...) {
            errors.record();
          }
        } else {
          server.publish(m, std::move(output->segments));
        }
      });
    }
    mapPool.wait();
  }
  const u64 mapEnd = steadyNowUs();
  if (errors.any() || cancelRequested(ctx)) {
    // A map never published (failure or cancellation); unblock fetchers.
    server.abort();
    obs::emitEvent(obs::event::kShuffleAbort, testing::site::kShufflePublish);
  }

  reducePool.wait();
  foldJobEnd(server, jobStart, mapEnd, steadyNowUs(), result);

  // Cancellation outranks whatever secondary error the teardown produced
  // (aborted fetchers record runtime_errors into the slot).
  if (cancelRequested(ctx)) throw JobCancelledError();
  errors.rethrowIfSet();
  return result;
}

/// Routes the job's spans to its TraceRecorder for the duration of the run.
/// Standalone job (tag 0): installs the recorder in the process-wide slot and
/// clears it on every exit path. Service job (nonzero tag): binds the
/// recorder to the job's task tag and never touches the global slot, which
/// the service may own.
struct ActiveTraceGuard {
  ActiveTraceGuard(obs::TraceRecorder* recorder, u64 tag) : tag_(tag) {
    if (tag_ != 0) {
      if (recorder != nullptr) {
        obs::bindJobTrace(tag_, recorder);
        bound_ = true;
      }
    } else {
      if (recorder != nullptr) obs::setActiveTrace(recorder);
      ownsGlobal_ = true;
    }
  }
  ~ActiveTraceGuard() {
    if (bound_) obs::unbindJobTrace(tag_);
    if (ownsGlobal_) obs::setActiveTrace(nullptr);
  }

 private:
  u64 tag_;
  bool bound_ = false;
  bool ownsGlobal_ = false;
};

/// Same pattern for the metrics stream: structured events (retry, corruption,
/// backpressure) reach the JSONL file only while a job with a metrics_path is
/// running; emitEvent() is a single relaxed load otherwise.
struct ActiveMetricsGuard {
  ActiveMetricsGuard(obs::MetricsStream* stream, u64 tag) : tag_(tag) {
    if (tag_ != 0) {
      if (stream != nullptr) {
        obs::bindJobMetrics(tag_, stream);
        bound_ = true;
      }
    } else {
      if (stream != nullptr) obs::setActiveMetrics(stream);
      ownsGlobal_ = true;
    }
  }
  ~ActiveMetricsGuard() {
    if (bound_) obs::unbindJobMetrics(tag_);
    if (ownsGlobal_) obs::setActiveMetrics(nullptr);
  }

 private:
  u64 tag_;
  bool bound_ = false;
  bool ownsGlobal_ = false;
};

}  // namespace

MapTaskExecution executeMapTask(const JobConfig& config, const Codec* codec,
                                ThreadPool* codecPool, const MapTask& task,
                                std::size_t taskIndex) {
  // Fault tolerance: a failed attempt is discarded wholesale (fresh
  // MapOutputBuffer, fresh counters) and the task re-executes.
  for (int attempt = 1;; ++attempt) {
    try {
      obs::ScopedSpan span("map_task", "map");
      span.arg("task", taskIndex);
      span.arg("attempt", static_cast<u64>(attempt));
      MapTaskExecution exec;
      Counters& taskCounters = exec.counters;
      MapOutputBuffer buffer(config, codec, taskCounters, codecPool);
      const u64 taskStart = steadyNowUs();
      const EmitFn emit = [&](Bytes key, Bytes value) {
        auto routed =
            config.router(KeyValue{std::move(key), std::move(value)}, config.num_reducers);
        for (const auto& [partition, kv] : routed) buffer.collect(partition, kv.key, kv.value);
      };
      task.run(emit);
      taskCounters.add(counter::kMapCpuUs, steadyNowUs() - taskStart);
      exec.output = buffer.finish();
      exec.stats.cpu_us = taskCounters.get(counter::kMapCpuUs) +
                          taskCounters.get(counter::kSortCpuUs) +
                          taskCounters.get(counter::kCodecCompressCpuUs);
      exec.stats.segment_bytes.reserve(exec.output.segments.size());
      u64 materialized = 0;
      for (const Bytes& segment : exec.output.segments) {
        exec.stats.segment_bytes.push_back(segment.size());
        materialized += segment.size();
      }
      span.arg("records", taskCounters.get(counter::kMapOutputRecords));
      span.arg("materialized_bytes", materialized);
      return exec;
    } catch (...) {
      if (attempt >= config.max_task_attempts) throw;
      obs::emitEvent(obs::event::kTaskRetry, "map_task", static_cast<u64>(attempt));
    }
  }
}

ReduceTaskExecution executeReduceTask(const JobConfig& config, const Codec* codec,
                                      ThreadPool* codecPool, const ReduceFn& reduce,
                                      const std::vector<Bytes>& segments, int reducer,
                                      Counters* retryCounters) {
  // Reduce retry needs the input segments intact across attempts, so it
  // borrows them and decodes per attempt (as a re-fetch would).
  // Corrupt-data (FormatError) failures get the shuffle retry budget when it
  // is larger: a transient corrupt block deserves the same bounded-backoff
  // discipline as a dropped fetch, not just task-level maxattempts.
  Backoff decodeBackoff(config.shuffle_retry, testing::site::kBlockDecode);
  const int formatAttempts = std::max(config.max_task_attempts, config.shuffle_retry.attempts());
  for (int attempt = 1;; ++attempt) {
    try {
      obs::ScopedSpan span("reduce_task", "reduce");
      span.arg("reducer", static_cast<u64>(reducer));
      span.arg("attempt", static_cast<u64>(attempt));
      ReduceTaskExecution exec;
      Counters& taskCounters = exec.counters;
      MergedSegmentStream stream(segments, codec, config, taskCounters, codecPool);
      const EmitFn emit = [&](Bytes key, Bytes value) {
        exec.output.push_back(KeyValue{std::move(key), std::move(value)});
      };
      const u64 taskStart = steadyNowUs();
      config.grouper->run(stream, reduce, emit, taskCounters);
      taskCounters.add(counter::kReduceCpuUs, steadyNowUs() - taskStart);
      if (!exec.output.empty()) {
        taskCounters.add(counter::kReduceOutputRecords, exec.output.size());
      }
      span.arg("input_records", taskCounters.get(counter::kReduceInputRecords));
      span.arg("output_records", exec.output.size());
      exec.stats.cpu_us = taskCounters.get(counter::kReduceCpuUs) +
                          taskCounters.get(counter::kCodecDecompressCpuUs);
      exec.stats.merge_materialized_bytes =
          taskCounters.get(counter::kReduceMergeMaterializedBytes);
      exec.stats.merge_resident_peak_bytes =
          taskCounters.get(counter::kReduceMergeResidentPeakBytes);
      for (const auto& kv : exec.output)
        exec.stats.output_bytes += kv.key.size() + kv.value.size();
      return exec;
    } catch (const FormatError& e) {
      // Corrupt intermediate data surfaced mid-merge (a frame/CRC failure
      // fetch-time verification did not catch). Re-execute the reduce task;
      // exhaustion yields a structured error naming the decode site.
      if (retryCounters != nullptr) retryCounters->add(counter::kBlocksCorruptDetected, 1);
      obs::emitEvent(obs::event::kShuffleCorruptionDetected, testing::site::kBlockDecode,
                     static_cast<u64>(reducer));
      if (attempt >= formatAttempts) {
        throw RetryExhaustedError(
            FailureReport{testing::site::kBlockDecode, attempt, e.what()});
      }
      obs::emitEvent(obs::event::kTaskRetry, "reduce_task", static_cast<u64>(attempt));
      decodeBackoff.wait(attempt + 1);
    } catch (...) {
      if (attempt >= config.max_task_attempts) throw;
      obs::emitEvent(obs::event::kTaskRetry, "reduce_task", static_cast<u64>(attempt));
    }
  }
}

int codecPoolThreads(int configured) {
  if (configured > 0) return configured;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void fetchAndReduce(const JobConfig& config, const Codec* codec, ThreadPool* codecPool,
                    const ReduceFn& reduce, ShuffleServer& server, std::size_t numMaps,
                    int reducer, const JobContext* ctx, JobResult& result, Mutex& outputsMutex,
                    ErrorSlot& errors) {
  const bool verifySegments = config.shuffle_retry.enabled;
  try {
    // Slotted by map index, so the merge sees one deterministic order
    // whatever the arrival order.
    std::vector<Bytes> segments(numMaps);
    // Overflowed segments stay on disk through the shuffle window and
    // materialize right before the merge (which needs them resident).
    std::vector<std::pair<std::size_t, std::filesystem::path>> deferred;
    u64 shuffled = 0;
    for (;;) {
      // The span covers the blocking wait too: fetch-wait time is the
      // "reducer idle behind stragglers" signal a trace should show.
      obs::ScopedSpan span("segment_fetch", "shuffle");
      auto fetched = retryWithPolicy(
          config.shuffle_retry, testing::site::kShuffleFetch,
          [&] { return server.fetch(reducer); },
          [&](int attempt, const std::string&) {
            result.counters.add(counter::kShuffleFetchRetries, 1);
            obs::emitEvent(obs::event::kShuffleFetchRetry, testing::site::kShuffleFetch,
                           static_cast<u64>(attempt));
          });
      if (!fetched) break;
      span.arg("reducer", static_cast<u64>(reducer));
      span.arg("map", fetched->map_index);
      if (!fetched->overflow_file.empty()) {
        span.arg("bytes", fetched->overflow_bytes);
        shuffled += fetched->overflow_bytes;
        deferred.emplace_back(fetched->map_index, std::move(fetched->overflow_file));
        continue;
      }
      span.arg("bytes", fetched->segment.size());
      if (verifySegments) {
        verifyAndRecoverSegment(config, server, codec, *fetched, reducer, result.counters);
      }
      shuffled += fetched->segment.size();
      segments[fetched->map_index] = std::move(fetched->segment);
    }
    for (auto& [mapIndex, file] : deferred) {
      ShuffleServer::Fetched loaded{mapIndex, readOverflowFile(file), {}, 0};
      if (verifySegments) {
        verifyAndRecoverSegment(config, server, codec, loaded, reducer, result.counters);
      }
      segments[mapIndex] = std::move(loaded.segment);
    }
    ReduceTaskStats& stats = result.reduce_tasks[static_cast<std::size_t>(reducer)];
    result.counters.add(counter::kReduceShuffleBytes, shuffled);
    stats.shuffled_bytes = shuffled;
    if (cancelRequested(ctx)) return;  // cancelled: skip the merge/reduce

    ReduceTaskExecution exec = executeReduceTask(config, codec, codecPool, reduce, segments,
                                                 reducer, &result.counters);
    stats.cpu_us = exec.stats.cpu_us;
    stats.merge_materialized_bytes = exec.stats.merge_materialized_bytes;
    stats.merge_resident_peak_bytes = exec.stats.merge_resident_peak_bytes;
    stats.output_bytes = exec.stats.output_bytes;
    {
      MutexLock lock(outputsMutex);
      result.outputs[static_cast<std::size_t>(reducer)] = std::move(exec.output);
    }
    result.counters.merge(exec.counters);
  } catch (...) {
    errors.record();  // shuffle aborted (the map error is already recorded) or reduce failed
  }
}

void foldJobEnd(const ShuffleServer& server, u64 jobStartUs, u64 mapEndUs, u64 jobEndUs,
                JobResult& result) {
  result.timings.map_phase_us = mapEndUs - jobStartUs;
  result.timings.reduce_phase_us = jobEndUs - mapEndUs;
  const u64 firstPublish = server.firstPublishUs();
  const u64 lastFetch = server.lastFetchUs();
  if (firstPublish != 0 && lastFetch > firstPublish) {
    result.timings.shuffle_us = lastFetch - firstPublish;
    result.timings.shuffle_overlap_us =
        std::min(lastFetch, mapEndUs) - std::min(firstPublish, mapEndUs);
  }
  if (const u64 overflowed = server.overflowSegments(); overflowed != 0) {
    result.counters.add(counter::kShuffleSegmentsOverflowed, overflowed);
  }
  u64 maxResidentPeak = 0;
  for (const ReduceTaskStats& t : result.reduce_tasks) {
    maxResidentPeak = std::max(maxResidentPeak, t.merge_resident_peak_bytes);
  }
  if (result.counters.get(counter::kReduceMergeResidentPeakBytes) > 0) {
    result.counters.set(counter::kReduceMergeResidentPeakBytes, maxResidentPeak);
  }
}

JobResult runJob(const JobConfig& config, const std::vector<MapTask>& mapTasks,
                 const ReduceFn& reduce) {
  return runJob(config, mapTasks, reduce, nullptr);
}

JobResult runJob(const JobConfig& config, const std::vector<MapTask>& mapTasks,
                 const ReduceFn& reduce, const JobContext* ctx) {
  check(config.num_reducers >= 1, "need at least one reducer");
  registerTransformCodecs();  // ensure codec names resolve
  const auto codecPtr = config.intermediate_codec == "null"
                            ? nullptr
                            : CodecRegistry::instance().create(config.intermediate_codec);

  const u64 tag = ctx != nullptr ? ctx->job_tag : 0;
  // Every thread of this call tree (including pool work it submits — the
  // ThreadPool propagates the tag) resolves per-job telemetry by this tag.
  std::optional<ScopedTaskTag> tagScope;
  if (tag != 0) tagScope.emplace(tag);

  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!config.trace_path.empty() || config.collect_histograms) {
    recorder = std::make_unique<obs::TraceRecorder>();
  }
  std::unique_ptr<obs::MetricsStream> metrics;
  if (!config.metrics_path.empty()) {
    metrics = std::make_unique<obs::MetricsStream>(config.metrics_path, config.sample_interval_ms);
  }

  JobResult result;
  std::map<std::string, obs::GaugeRollup> rollups;
  {
    ActiveTraceGuard guard(recorder.get(), tag);
    ActiveMetricsGuard metricsGuard(metrics.get(), tag);
    obs::Sampler sampler(config.sample_interval_ms, obs::processGauges(), recorder.get(),
                         metrics.get());
    sampler.start();
    {
      obs::ScopedSpan jobSpan("job", "job");
      jobSpan.arg("map_tasks", mapTasks.size());
      jobSpan.arg("reducers", static_cast<u64>(config.num_reducers));
      result = runPipelined(config, mapTasks, reduce, codecPtr.get(), ctx);
    }
    sampler.stop();  // takes the final sample before the gauges unregister
    rollups = sampler.rollups();
    if (metrics != nullptr) metrics->writeSummary(rollups);
  }

  if (recorder != nullptr) {
    const std::vector<obs::Span> spans = recorder->snapshot();
    if (config.collect_histograms) result.telemetry = obs::telemetryFromSpans(spans);
    result.telemetry.span_count = spans.size();
    if (!config.trace_path.empty()) recorder->writeChromeTrace(config.trace_path);
  }
  // After telemetryFromSpans, which replaces `telemetry` wholesale.
  for (const auto& [name, r] : rollups) {
    result.telemetry.gauges[name + ".max"] = r.max;
    result.telemetry.gauges[name + ".mean"] = static_cast<u64>(r.mean() + 0.5);
  }
  result.telemetry.counters = result.counters.snapshot();
  return result;
}

}  // namespace scishuffle::hadoop
