// perfbench: end-to-end and per-layer benchmark of the scishuffle job
// runtime on four workloads (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 times whole hadoop::runJob calls (tracing off) for --seconds and
// reports the end-to-end metrics; --trace 1 repeats the layer pass plus an
// untraced, a histogram-collecting and a sampler-on job for --seconds and
// reports the per-layer metrics. Every job's output is checked against a
// reference. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// Exit status: 0 when every check passed, 1 when any failed, 2 on bad usage.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/bench_util.h"
#include "hadoop/counters.h"
#include "layer_pass.h"
#include "measure.h"
#include "obs/json.h"
#include "transform/transform_codec.h"
#include "workloads.h"

namespace hadoop = scishuffle::hadoop;
namespace obs = scishuffle::obs;

namespace perfbench {
namespace {

/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepeats = 3;

/// Interval of the telemetry sampler for the obs.sampler_overhead job.
constexpr u64 kSamplerIntervalMs = 5;

struct Args {
  std::string workload;
  u32 seed = 0;
  double seconds = 0;
  bool trace = false;
  std::filesystem::path out_dir = "perfbench-out";
};

std::optional<Args> parseArgs(int argc, char** argv) {
  Args args;
  bool haveWorkload = false, haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
        haveWorkload = true;
      } else if (flag == "--seed") {
        args.seed = static_cast<u32>(std::stoul(value));
        haveSeed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        haveSeconds = args.seconds > 0;
      } else if (flag == "--trace") {
        args.trace = value == "1";
        haveTrace = value == "0" || value == "1";
      } else if (flag == "--out") {
        args.out_dir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !haveWorkload || !haveSeed || !haveSeconds || !haveTrace) {
    return std::nullopt;
  }
  return args;
}

/// Jobs attempted and failed in this run, plus what went wrong.
struct Tally {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> problems;

  void problem(const std::string& what) {
    problems.push_back(what);
    std::cout << "CHECK FAILED: " << what << "\n";
  }
};

struct JobSample {
  bool ok = false;
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  u64 intermediate_bytes = 0;
  u64 raw_bytes = 0;
  hadoop::PhaseTimings timings;
  std::vector<obs::HistogramSnapshot> histograms;
};

/// One runJob call, timed from the call to its return with the resident
/// high-water mark reset beforehand; the output is verified afterwards,
/// outside the timed region. A throw or a wrong output counts as failed.
JobSample timedJob(const Workload& w, const Reference& ref, const hadoop::JobConfig& config,
                   Tally& tally) {
  JobSample s;
  ++tally.attempted;
  resetPeakRss();
  const double cpu0 = cpuSeconds();
  const scishuffle::bench::Timer timer;
  std::string wrong;
  try {
    hadoop::JobResult result = hadoop::runJob(config, w.job.map_tasks, w.job.reduce);
    s.wall_s = timer.seconds();
    s.cpu_s = cpuSeconds() - cpu0;
    s.peak_rss_mb = static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0);
    s.intermediate_bytes = result.counters.get(hadoop::counter::kMapOutputMaterializedBytes);
    s.raw_bytes = result.counters.get(hadoop::counter::kMapOutputBytes);
    s.timings = result.timings;
    s.histograms = std::move(result.telemetry.histograms);
    wrong = verifyOutput(w, ref, result);
  } catch (const std::exception& e) {
    s.wall_s = timer.seconds();
    wrong = std::string("job threw: ") + e.what();
  }
  s.ok = wrong.empty();
  if (!s.ok) {
    ++tally.failed;
    tally.problem(w.name + ": " + wrong);
  }
  return s;
}

std::vector<double> field(const std::vector<JobSample>& jobs, double JobSample::*member) {
  std::vector<double> values;
  for (const JobSample& j : jobs) {
    if (j.ok) values.push_back(j.*member);
  }
  return values;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

void printResult(const Tally& tally, const std::vector<Metric>& metrics) {
  obs::JsonWriter w(std::cout, /*pretty=*/false);
  w.beginObject();
  w.kv("correct", tally.problems.empty() && tally.failed == 0);
  w.kv("attempted", tally.attempted);
  w.kv("failed", tally.failed);
  w.key("metrics").beginObject();
  for (const Metric& m : metrics) {
    w.key(m.name).beginObject();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  std::cout << std::endl;
}

/// The human-readable details of a run, also kept as JSON next to the trace.
void writeDetails(const std::filesystem::path& path, const Args& args, const RunShape& shape,
                  const Tally& tally, const std::vector<Metric>& metrics,
                  const std::vector<double>& setupS, const std::vector<JobSample>& jobs) {
  scishuffle::bench::JsonFile file(path);
  obs::JsonWriter& w = file.writer();
  w.beginObject();
  w.kv("workload", args.workload);
  w.kv("seed", static_cast<u64>(args.seed));
  w.kv("trace", args.trace);
  w.kv("seconds", args.seconds);
  w.kv("nproc", static_cast<u64>(std::thread::hardware_concurrency()));
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.key("run_shape").beginObject();
  w.kv("map_slots", shape.map_slots);
  w.kv("reduce_slots", shape.reduce_slots);
  w.kv("codec_threads", shape.codec_threads);
  w.kv("num_reducers", shape.num_reducers);
  w.endObject();
  w.kv("attempted", tally.attempted);
  w.kv("failed", tally.failed);
  w.kv("error_rate", static_cast<double>(tally.failed) / static_cast<double>(tally.attempted));
  w.key("problems").beginArray();
  for (const std::string& p : tally.problems) w.value(p);
  w.endArray();
  w.key("metrics").beginObject();
  for (const Metric& m : metrics) w.kv(m.name, m.value);
  w.endObject();
  w.key("setup_s_samples").beginArray();
  for (const double s : setupS) w.value(s);
  w.endArray();
  w.key("jobs").beginArray();
  for (const JobSample& j : jobs) {
    w.beginObject();
    w.kv("ok", j.ok);
    w.kv("wall_s", j.wall_s);
    w.kv("cpu_s", j.cpu_s);
    w.kv("peak_rss_mb", j.peak_rss_mb);
    w.kv("intermediate_bytes", j.intermediate_bytes);
    w.endObject();
  }
  w.endArray();
  w.endObject();
}

void printSpread(const std::string& name, const std::string& unit,
                 const std::vector<double>& values) {
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  std::cout << "  " << name << " = " << median(values) << " " << unit << "  (median of "
            << values.size() << "; min " << (values.empty() ? 0 : *lo) << ", max "
            << (values.empty() ? 0 : *hi) << ")\n";
}

/// --trace 0: whole jobs back to back, tracing off, for args.seconds.
std::vector<Metric> endToEnd(const Args& args, const Workload& w, const Reference& ref,
                             const std::vector<double>& setupS,
                             const std::vector<JobSample>& warmups, std::vector<JobSample>& jobs,
                             Tally& tally) {
  const scishuffle::bench::Timer runTimer;
  do {
    jobs.push_back(timedJob(w, ref, w.job.job, tally));
  } while (runTimer.seconds() < args.seconds);

  // Byte counts are exact: every job of one input must materialize the same.
  u64 bytes = 0;
  const auto checkBytes = [&](const JobSample& j) {
    if (!j.ok) return;
    if (bytes != 0 && j.intermediate_bytes != bytes) {
      tally.problem("intermediate_bytes differ between jobs of one input");
    }
    bytes = j.intermediate_bytes;
  };
  for (const JobSample& j : warmups) checkBytes(j);
  for (const JobSample& j : jobs) checkBytes(j);
  const std::vector<double> walls = field(jobs, &JobSample::wall_s);
  const std::vector<double> cpus = field(jobs, &JobSample::cpu_s);
  const std::vector<double> rss = field(jobs, &JobSample::peak_rss_mb);
  std::cout << "end-to-end (" << walls.size() << " timed jobs, tracing off):\n";
  printSpread("job_wall_s", "s", walls);
  printSpread("cpu_s", "s", cpus);
  std::cout << "  intermediate_bytes = " << bytes << " B  (raw "
            << (jobs.empty() ? 0 : jobs.front().raw_bytes) << " B)\n";
  printSpread("peak_rss_mb", "MB", rss);
  printSpread("setup_s", "s", setupS);
  return {{"job_wall_s", "s", median(walls)},
          {"cpu_s", "s", median(cpus)},
          {"intermediate_bytes", "B", static_cast<double>(bytes)},
          {"peak_rss_mb", "MB", median(rss)},
          {"setup_s", "s", median(setupS)}};
}

/// --trace 1: the layer pass, then an untraced, a collect_histograms and a
/// sampler-on job, repeated for args.seconds; writes the benchmark's trace
/// and the program's span histograms side by side.
std::vector<Metric> perLayer(const Args& args, const RunShape& shape, const Workload& w,
                             const Reference& ref, std::vector<JobSample>& jobs, Tally& tally) {
  scishuffle::ThreadPool codecPool(shape.codec_threads);
  obs::TraceRecorder trace;
  std::vector<LayerPass> passes;
  std::vector<JobSample> traced, sampled;
  hadoop::JobConfig tracedConfig = w.job.job;
  tracedConfig.collect_histograms = true;
  hadoop::JobConfig samplerConfig = w.job.job;
  samplerConfig.sample_interval_ms = kSamplerIntervalMs;
  // An iteration is long (a layer pass plus three jobs), so the loop stops
  // when another one would end further past --seconds than the run is short
  // of it: runs last about --seconds instead of up to one iteration more.
  const scishuffle::bench::Timer runTimer;
  double iterationS = 0;
  do {
    const scishuffle::bench::Timer iterationTimer;
    passes.push_back(runLayerPass(w, ref, codecPool, trace));
    {
      obs::ScopedSpan span(&trace, "job.untraced", "perfbench");
      jobs.push_back(timedJob(w, ref, w.job.job, tally));
    }
    {
      obs::ScopedSpan span(&trace, "job.collect_histograms", "perfbench");
      traced.push_back(timedJob(w, ref, tracedConfig, tally));
    }
    {
      obs::ScopedSpan span(&trace, "job.sampler", "perfbench");
      sampled.push_back(timedJob(w, ref, samplerConfig, tally));
    }
    iterationS = iterationTimer.seconds();
  } while (runTimer.seconds() + iterationS / 2 < args.seconds);

  std::map<std::string, std::vector<double>> samples;
  std::vector<double> layerSums;
  for (const LayerPass& p : passes) {
    for (const auto& [name, value] : p.metrics) samples[name].push_back(value);
    for (const std::string& f : p.failures) tally.problem(f);
    layerSums.push_back(p.layer_sum_s);
    for (const JobSample& j : jobs) {
      if (j.ok && p.segment_bytes != j.intermediate_bytes) {
        tally.problem("layer pass segment bytes " + std::to_string(p.segment_bytes) +
                      " != job intermediate_bytes " + std::to_string(j.intermediate_bytes));
        break;
      }
    }
  }
  for (const JobSample& j : jobs) {
    if (!j.ok) continue;
    const auto shuffleUs = static_cast<double>(j.timings.shuffle_us);
    samples["hadoop.shuffle_window_s"].push_back(shuffleUs * 1e-6);
    samples["hadoop.shuffle_overlap_frac"].push_back(
        shuffleUs == 0 ? 0 : static_cast<double>(j.timings.shuffle_overlap_us) / shuffleUs);
    samples["hadoop.reduce_tail_s"].push_back(static_cast<double>(j.timings.reduce_phase_us) *
                                              1e-6);
  }
  const double untracedWall = median(field(jobs, &JobSample::wall_s));
  samples["obs.trace_overhead"] = {median(field(traced, &JobSample::wall_s)) / untracedWall};
  samples["obs.sampler_overhead"] = {median(field(sampled, &JobSample::wall_s)) / untracedWall};

  std::vector<Metric> metrics;
  std::cout << "per-layer (" << passes.size() << " layer passes):\n";
  for (const LayerMetric& def : layerMetrics()) {
    metrics.push_back({def.name, def.unit, median(samples[def.name])});
    std::cout << "  " << def.name << " = " << metrics.back().value << " " << def.unit << "\n";
  }
  const double cpuS = median(field(jobs, &JobSample::cpu_s));
  std::cout << "  layer sum (executeMapTask + executeReduceTask, serial) = " << median(layerSums)
            << " s next to cpu_s = " << cpuS << " s of an untraced job; unaccounted "
            << cpuS - median(layerSums) << " s\n";

  const std::filesystem::path tracePath = args.out_dir / (args.workload + ".layers.trace.json");
  trace.writeChromeTrace(tracePath);
  const std::filesystem::path histPath = args.out_dir / (args.workload + ".histograms.json");
  {
    scishuffle::bench::JsonFile file(histPath);
    scishuffle::bench::writeHistogramSummaries(file.writer(), traced.back().histograms);
  }
  std::cout << "  wrote " << tracePath.string() << " (benchmark spans) and " << histPath.string()
            << " (program span histograms)\n";
  return metrics;
}

int run(const Args& args) {
  const RunShape shape;
  std::cout << "perfbench " << args.workload << ": seed " << args.seed << ", " << args.seconds
            << " s, trace " << args.trace << ", nproc " << std::thread::hardware_concurrency()
            << ", build " << PERFBENCH_BUILD_TYPE << ", map_slots " << shape.map_slots
            << ", reduce_slots " << shape.reduce_slots << ", codec_threads "
            << shape.codec_threads << ", reducers " << shape.num_reducers << "\n";
  std::filesystem::create_directories(args.out_dir);
  Tally tally;

  // The reference, computed once from its own copy of the input.
  Reference ref;
  {
    const scishuffle::bench::Timer timer;
    ref = computeReference(*buildWorkload(args.workload, args.seed, shape));
    std::cout << "  reference computed in " << timer.seconds() << " s\n";
  }

  // Set-up: input generation, codec registration, job construction and one
  // warm-up job, repeated; the last built workload is the one measured.
  std::unique_ptr<Workload> w;
  std::vector<double> setupS;
  std::vector<JobSample> warmups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    w.reset();
    const scishuffle::bench::Timer timer;
    w = buildWorkload(args.workload, args.seed, shape);
    scishuffle::registerTransformCodecs();
    const double built = timer.seconds();
    warmups.push_back(timedJob(*w, ref, w->job.job, tally));
    setupS.push_back(built + warmups.back().wall_s);
  }

  std::vector<JobSample> jobs;
  const std::vector<Metric> metrics = args.trace
                                          ? perLayer(args, shape, *w, ref, jobs, tally)
                                          : endToEnd(args, *w, ref, setupS, warmups, jobs, tally);

  std::cout << "  error_rate = "
            << static_cast<double>(tally.failed) / static_cast<double>(tally.attempted) << " ("
            << tally.failed << " of " << tally.attempted << " jobs)\n";
  writeDetails(args.out_dir / (args.workload + (args.trace ? ".layers.json" : ".e2e.json")), args,
               shape, tally, metrics, setupS, jobs);
  printResult(tally, metrics);
  return tally.problems.empty() && tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args = perfbench::parseArgs(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <dir>]\n";
    return 2;
  }
  try {
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
