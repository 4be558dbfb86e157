// scishuffle_cli — command-line driver tying the library together:
//
//   scishuffle_cli gen <file.nc> <name> <dim> [dim...]      generate a dataset
//   scishuffle_cli info <file.nc>                           list variables
//   scishuffle_cli query <file.nc> <variable> <median|mean|sum>
//                  [--aggregate] [--radius R] [--mappers M] [--reducers R]
//                  [--codec C] [--curve C] [--report] [--json-report]
//                  [--trace trace.json] [--metrics-out m.jsonl]
//                  [--sample-interval MS] [--out out.seq]   run a sliding query
//   scishuffle_cli slab <file.nc> <variable> <median|mean|sum> <dim> [dim...]
//                  [--mappers M] [--reducers R] [--combiner] [--report]
//                  [--json-report] [--trace trace.json] [--metrics-out m.jsonl]
//                  [--sample-interval MS]                   reduce away dims
//
// --trace writes a Chrome trace_event JSON covering the full shuffle data
// path (open in chrome://tracing or ui.perfetto.dev); --json-report prints
// the machine-readable run report with per-stage histograms. --metrics-out
// streams scishuffle.metrics.v1 JSONL (sampler gauge snapshots + structured
// events) and turns the telemetry sampler on at a 10 ms default interval;
// --sample-interval overrides the interval (and with --trace alone adds
// "ph":"C" counter tracks to the trace). All documented in
// docs/OBSERVABILITY.md.
//   scishuffle_cli stat <metrics.jsonl>                     summarize a metrics file
//   scishuffle_cli codec <name> <in> <out.z>                compress a file
//   scishuffle_cli decodec <name> <in.z> <out>              decompress a file
//   scishuffle_cli inspect <file>                           stride detection report
//   scishuffle_cli faultdemo [--out report.json] [--metrics-out m.jsonl]
//                                                           faulted run + recovery
//   scishuffle_cli distrun <workload> [args...] [--workers N] [--workdir d]
//                  [--metrics-out m.jsonl] [--sample-interval MS]
//                                        run a workload across N forked worker
//                                        processes (docs/CLUSTER.md)
//   scishuffle_cli worker --control <sock> --data <sock> --id N --workload W ...
//                                        one worker process (normally spawned by
//                                        the coordinator, not by hand)
//   scishuffle_cli selftest                                 end-to-end smoke test
//
// faultdemo runs the canonical fault-injection scenario from docs/FAULTS.md:
// a word-count job with one corrupted segment and one dropped fetch, healed
// by the shuffle retry layer. It exits non-zero unless the output matches the
// reference evaluation AND the recovery counters are non-zero; --out writes
// the faulted run's JSON report (CI uploads it as an artifact).
#include <cstring>
#include <filesystem>
#include <iostream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "grid/ncfile.h"
#include "hadoop/reference.h"
#include "hadoop/report.h"
#include "hadoop/runtime.h"
#include "hadoop/sequence_file.h"
#include "io/streams.h"
#include "io/primitives.h"
#include "obs/json.h"
#include "obs/stat.h"
#include "scikey/slab_query.h"
#include "scikey/sliding_query.h"
#include "service/coordinator.h"
#include "service/worker.h"
#include "testing/fault_injector.h"
#include "transform/stride_model.h"
#include "transform/transform_codec.h"

using namespace scishuffle;

namespace {

int usage() {
  std::cerr << "usage: scishuffle_cli "
               "<gen|info|query|slab|stat|codec|decodec|inspect|faultdemo|distrun|worker|"
               "selftest> ...\n"
               "see the header of examples/scishuffle_cli.cpp for details\n";
  return 2;
}

/// Resolves the sampler flags: --metrics-out alone turns the sampler on at a
/// 10 ms default interval; --sample-interval sets it explicitly (useful with
/// --trace alone for "ph":"C" counter tracks without a JSONL file).
void resolveSamplerInterval(hadoop::JobConfig& job, u64 sampleIntervalMs) {
  if (sampleIntervalMs > 0) {
    job.sample_interval_ms = sampleIntervalMs;
  } else if (!job.metrics_path.empty()) {
    job.sample_interval_ms = 10;
  }
}

void reportMetricsPath(const hadoop::JobConfig& job) {
  if (!job.metrics_path.empty()) {
    std::cerr << "wrote metrics to " << job.metrics_path
              << " (summarize with scishuffle_cli stat)\n";
  }
}

int cmdGen(const std::vector<std::string>& args) {
  if (args.size() < 3) return usage();
  const std::filesystem::path path = args[0];
  std::vector<i64> dims;
  for (std::size_t i = 2; i < args.size(); ++i) dims.push_back(std::stol(args[i]));
  grid::Dataset ds;
  auto& v = ds.addVariable(args[1], grid::DataType::kInt32, grid::Shape(dims));
  grid::gen::fillRandomInt(v, 2012, 1 << 16);
  grid::saveDataset(path, ds);
  std::cout << "wrote " << path << " with int32 variable '" << args[1] << "' of shape "
            << v.shape().toString() << "\n";
  return 0;
}

int cmdInfo(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  const grid::Dataset ds = grid::loadDataset(args[0]);
  for (const auto& name : ds.variableNames()) {
    const auto& v = ds.variable(name);
    std::cout << name << "  " << grid::dataTypeName(v.type()) << "  " << v.shape().toString()
              << "  (" << v.raw().size() << " bytes)\n";
  }
  return 0;
}

int cmdQuery(const std::vector<std::string>& args) {
  if (args.size() < 3) return usage();
  const grid::Dataset ds = grid::loadDataset(args[0]);
  const grid::Variable& input = ds.variable(args[1]);
  check(input.type() == grid::DataType::kInt32, "query requires an int32 variable");

  scikey::SlidingQueryConfig query;
  if (args[2] == "median") {
    query.op = scikey::CellOp::kMedian;
  } else if (args[2] == "mean") {
    query.op = scikey::CellOp::kMean;
  } else if (args[2] == "sum") {
    query.op = scikey::CellOp::kSum;
  } else {
    return usage();
  }

  hadoop::JobConfig job;
  bool aggregate = false;
  bool report = false;
  bool jsonReport = false;
  u64 sampleIntervalMs = 0;
  std::filesystem::path outPath;
  for (std::size_t i = 3; i < args.size(); ++i) {
    auto next = [&]() -> const std::string& {
      check(i + 1 < args.size(), "flag needs a value");
      return args[++i];
    };
    if (args[i] == "--aggregate") {
      aggregate = true;
    } else if (args[i] == "--report") {
      report = true;
    } else if (args[i] == "--json-report") {
      jsonReport = true;
      job.collect_histograms = true;
    } else if (args[i] == "--trace") {
      job.trace_path = next();
      job.collect_histograms = true;
    } else if (args[i] == "--metrics-out") {
      job.metrics_path = next();
    } else if (args[i] == "--sample-interval") {
      sampleIntervalMs = static_cast<u64>(std::stoul(next()));
    } else if (args[i] == "--radius") {
      query.window_radius = std::stoi(next());
    } else if (args[i] == "--mappers") {
      query.num_mappers = std::stoi(next());
      job.map_slots = query.num_mappers;
    } else if (args[i] == "--reducers") {
      job.num_reducers = std::stoi(next());
    } else if (args[i] == "--codec") {
      job.intermediate_codec = next();
    } else if (args[i] == "--curve") {
      query.curve = sfc::curveKindFromName(next());
    } else if (args[i] == "--out") {
      outPath = next();
    } else {
      std::cerr << "unknown flag " << args[i] << "\n";
      return usage();
    }
  }

  resolveSamplerInterval(job, sampleIntervalMs);
  const scikey::PreparedJob prepared = aggregate
                                           ? buildAggregateSlidingJob(input, query, job)
                                           : buildSimpleSlidingJob(input, query, job);
  const auto result = scikey::runPreparedJob(prepared);

  if (jsonReport) {
    std::cout << hadoop::jobReportJson(result);
  } else if (report) {
    std::cout << hadoop::jobReport(result);
  } else {
    std::cout << result.counters.toString();
    std::cout << "map phase " << result.timings.map_phase_us / 1000 << " ms, reduce phase "
              << result.timings.reduce_phase_us / 1000 << " ms\n";
  }
  if (!job.trace_path.empty()) {
    std::cerr << "wrote trace to " << job.trace_path << " (open in chrome://tracing)\n";
  }
  reportMetricsPath(job);

  if (!outPath.empty()) {
    FileSink sink(outPath);
    hadoop::SequenceFileHeader header;
    header.key_class = aggregate ? "scikey.AggregateKey" : "scikey.SimpleKey";
    header.value_class = "int32";
    writeJobOutputs(sink, result.outputs, header);
    std::cout << "wrote outputs to " << outPath << "\n";
  }
  return 0;
}

scikey::CellOp parseOp(const std::string& name) {
  if (name == "median") return scikey::CellOp::kMedian;
  if (name == "mean") return scikey::CellOp::kMean;
  if (name == "sum") return scikey::CellOp::kSum;
  throw std::out_of_range("unknown op: " + name);
}

int cmdSlab(const std::vector<std::string>& args) {
  if (args.size() < 4) return usage();
  const grid::Dataset ds = grid::loadDataset(args[0]);
  const grid::Variable& input = ds.variable(args[1]);
  check(input.type() == grid::DataType::kInt32, "slab query requires an int32 variable");

  scikey::SlabQueryConfig query;
  query.op = parseOp(args[2]);
  hadoop::JobConfig job;
  bool report = false;
  bool jsonReport = false;
  u64 sampleIntervalMs = 0;
  for (std::size_t i = 3; i < args.size(); ++i) {
    auto next = [&]() -> const std::string& {
      check(i + 1 < args.size(), "flag needs a value");
      return args[++i];
    };
    if (args[i] == "--mappers") {
      query.num_mappers = std::stoi(next());
      job.map_slots = query.num_mappers;
    } else if (args[i] == "--reducers") {
      job.num_reducers = std::stoi(next());
    } else if (args[i] == "--combiner") {
      query.use_combiner = true;
    } else if (args[i] == "--report") {
      report = true;
    } else if (args[i] == "--json-report") {
      jsonReport = true;
      job.collect_histograms = true;
    } else if (args[i] == "--trace") {
      job.trace_path = next();
      job.collect_histograms = true;
    } else if (args[i] == "--metrics-out") {
      job.metrics_path = next();
    } else if (args[i] == "--sample-interval") {
      sampleIntervalMs = static_cast<u64>(std::stoul(next()));
    } else if (!args[i].empty() && args[i][0] != '-') {
      query.reduced_dims.push_back(std::stoi(args[i]));
    } else {
      std::cerr << "unknown flag " << args[i] << "\n";
      return usage();
    }
  }

  resolveSamplerInterval(job, sampleIntervalMs);
  const auto prepared = buildAggregateSlabJob(input, query, job);
  const auto result = scikey::runPreparedJob(prepared);
  if (jsonReport) {
    std::cout << hadoop::jobReportJson(result);
  } else {
    std::cout << (report ? hadoop::jobReport(result) : hadoop::jobSummaryLine(result) + "\n");
  }
  if (!job.trace_path.empty()) {
    std::cerr << "wrote trace to " << job.trace_path << " (open in chrome://tracing)\n";
  }
  reportMetricsPath(job);
  return 0;
}

int cmdStat(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  const obs::MetricsSummary summary = obs::summarizeMetricsFile(args[0]);
  obs::renderMetricsSummary(summary, std::cout);
  return 0;
}

int cmdCodec(const std::vector<std::string>& args, bool decompress) {
  if (args.size() != 3) return usage();
  registerTransformCodecs();
  const auto codec = CodecRegistry::instance().create(args[0]);
  FileSource in(args[1]);
  const Bytes data = in.readAll();
  const Bytes out = decompress ? codec->decompress(data) : codec->compress(data);
  FileSink sink(args[2]);
  sink.write(out);
  std::cout << data.size() << " -> " << out.size() << " bytes ("
            << (decompress ? "decompressed" : "compressed") << " with " << codec->name() << ")\n";
  return 0;
}

int cmdInspect(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  FileSource in(args[0]);
  const Bytes data = in.readAll();
  transform::TransformConfig config;
  transform::StrideModel model(config);
  u64 predicted = 0;
  for (const u8 b : data) {
    if (model.predict()) ++predicted;
    model.consume(b);
  }
  std::cout << "bytes: " << data.size() << ", predicted: " << predicted << " ("
            << (data.empty() ? 0 : 100 * predicted / data.size()) << "%)\nactive strides:";
  for (const int s : model.activeStrides()) std::cout << " " << s;
  std::cout << "\n";
  return 0;
}

int cmdFaultDemo(const std::vector<std::string>& args) {
  std::filesystem::path outPath;
  std::filesystem::path metricsPath;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) {
      outPath = args[++i];
    } else if (args[i] == "--metrics-out" && i + 1 < args.size()) {
      metricsPath = args[++i];
    } else {
      std::cerr << "unknown flag " << args[i] << "\n";
      return usage();
    }
  }

  // The canonical word-count job under a fault plan that corrupts one
  // shuffled segment and drops one fetch (docs/FAULTS.md), checked against
  // the in-memory reference evaluation.
  const std::vector<std::string> vocab = {"the", "windspeed", "grid", "key",
                                          "map", "reduce",    "sci", "curve"};
  std::vector<hadoop::MapTask> tasks;
  for (int m = 0; m < 4; ++m) {
    tasks.push_back(hadoop::MapTask{[m, &vocab](const hadoop::EmitFn& emit) {
      for (int i = 0; i < 500; ++i) {
        const std::string& word = vocab[static_cast<std::size_t>((i * 7 + m) % 8)];
        Bytes value;
        MemorySink sink(value);
        writeI64(sink, 1);
        emit(Bytes(word.begin(), word.end()), std::move(value));
      }
    }});
  }
  const hadoop::ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values,
                                     const hadoop::EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) {
      MemorySource src(v);
      sum += readI64(src);
    }
    Bytes out;
    MemorySink sink(out);
    writeI64(sink, sum);
    emit(key, std::move(out));
  };

  hadoop::JobConfig faulted;
  faulted.num_reducers = 3;
  faulted.intermediate_codec = "gzipish";
  const auto expected = hadoop::referenceOutputs(faulted, tasks, reduce);

  testing::FaultPlan plan;
  plan.seed = 20260806;
  plan.rules.push_back({testing::site::kShuffleFetch, testing::FaultKind::kCorruptBytes});
  plan.rules.push_back({testing::site::kShuffleFetch, testing::FaultKind::kThrowIo});
  testing::FaultInjector faults(plan);

  faulted.fault_injector = &faults;
  faulted.shuffle_retry.enabled = true;
  faulted.collect_histograms = true;
  if (!metricsPath.empty()) {
    // A faulted run with the sampler on: the metrics JSONL then carries the
    // retry/corruption/re-fetch event timeline alongside the gauge samples
    // (CI uploads it as an artifact next to the JSON report).
    faulted.metrics_path = metricsPath;
    faulted.sample_interval_ms = 5;
  }
  const auto result = hadoop::runJob(faulted, tasks, reduce);

  const u64 fetchRetries = result.counters.get(hadoop::counter::kShuffleFetchRetries);
  const u64 corruptBlocks = result.counters.get(hadoop::counter::kBlocksCorruptDetected);
  const u64 refetched = result.counters.get(hadoop::counter::kSegmentsRefetched);
  std::cout << "recovery: " << fetchRetries << " fetch retries, " << corruptBlocks
            << " corrupt blocks detected, " << refetched << " segments re-fetched\n";

  if (!outPath.empty()) {
    FileSink sink(outPath);
    const std::string json = hadoop::jobReportJson(result);
    sink.write(ByteSpan(reinterpret_cast<const u8*>(json.data()), json.size()));
    std::cout << "wrote JSON report to " << outPath << "\n";
  }

  if (!metricsPath.empty()) {
    // The metrics file must summarize and carry the recovery events.
    const obs::MetricsSummary summary = obs::summarizeMetricsFile(metricsPath);
    u64 eventLines = 0;
    for (const auto& [name, count] : summary.event_counts) eventLines += count;
    check(summary.samples >= 2, "metrics file is missing sampler snapshots");
    check(eventLines >= 1, "metrics file recorded no recovery events");
    std::cout << "wrote metrics to " << metricsPath << " (" << summary.samples << " samples, "
              << eventLines << " events)\n";
  }

  check(result.outputs == expected, "faulted run diverged from the reference evaluation");
  check(fetchRetries >= 1, "expected at least one shuffle fetch retry");
  check(corruptBlocks >= 1, "expected at least one corrupt block detection");
  check(refetched >= 1, "expected at least one segment re-fetch");
  std::cout << "faultdemo OK: output bit-identical to the reference evaluation\n";
  return 0;
}

/// Runs a named workload (service/workload.h) across N forked worker
/// processes: the CLI re-execs itself with the `worker` subcommand, so one
/// binary is both coordinator and worker (docs/CLUSTER.md). An unknown name
/// throws before any worker is forked.
int cmdDistrun(const std::vector<std::string>& args, const std::string& selfExe) {
  if (args.empty()) return usage();
  const std::string workloadName = args[0];
  std::vector<std::string> workloadArgs;
  service::DistributedConfig config;
  config.worker_command = {selfExe, "worker"};
  u64 sampleIntervalMs = 0;
  for (std::size_t i = 1; i < args.size(); ++i) {
    auto next = [&]() -> const std::string& {
      check(i + 1 < args.size(), "flag needs a value");
      return args[++i];
    };
    if (args[i] == "--workers") {
      config.num_workers = std::stoi(next());
    } else if (args[i] == "--workdir") {
      config.work_dir = next();
    } else if (args[i] == "--metrics-out") {
      config.metrics_path = next();
    } else if (args[i] == "--sample-interval") {
      sampleIntervalMs = std::stoull(next());
    } else if (args[i].rfind("--", 0) == 0) {
      std::cerr << "unknown flag " << args[i] << "\n";
      return usage();
    } else {
      workloadArgs.push_back(args[i]);
    }
  }
  if (config.work_dir.empty()) {
    config.work_dir = std::filesystem::temp_directory_path() /
                      ("scishuffle-dist-" + std::to_string(std::random_device{}()));
  }
  config.sample_interval_ms =
      sampleIntervalMs > 0 ? sampleIntervalMs : (config.metrics_path.empty() ? 0 : 10);
  config.transport_retry.enabled = true;

  const service::DistributedResult result =
      service::runDistributedJob(workloadName, workloadArgs, config);
  u64 outputRecords = 0;
  for (const auto& reducer : result.job.outputs) outputRecords += reducer.size();
  std::cout << "distrun OK: " << result.job.map_tasks.size() << " map task(s) on "
            << result.workers_spawned << " worker(s), " << result.job.outputs.size()
            << " reducer(s), " << outputRecords << " output record(s)\n";
  std::cout << "  map " << result.job.timings.map_phase_us / 1000 << " ms, shuffle "
            << result.job.timings.shuffle_us / 1000 << " ms, reduce "
            << result.job.timings.reduce_phase_us / 1000 << " ms\n";
  if (result.worker_deaths > 0) {
    std::cout << "  recovered from " << result.worker_deaths << " worker death(s): "
              << result.tasks_reexecuted << " task(s) re-executed, worst recovery "
              << result.recovery_latency_us / 1000 << " ms\n";
  }
  if (!config.metrics_path.empty()) {
    std::cerr << "wrote metrics to " << config.metrics_path
              << " (summarize with scishuffle_cli stat)\n";
  }
  return 0;
}

int cmdSelftest() {
  const auto dir = std::filesystem::temp_directory_path() / "scishuffle_cli_selftest";
  std::filesystem::create_directories(dir);
  const auto nc = (dir / "data.nc").string();
  const auto seq = (dir / "out.seq").string();
  const auto z = (dir / "data.z").string();
  const auto back = (dir / "data.back").string();

  int rc = cmdGen({nc, "pressure", "48", "48"});
  if (rc == 0) rc = cmdInfo({nc});
  if (rc == 0) {
    rc = cmdQuery({nc, "pressure", "median", "--aggregate", "--mappers", "4", "--reducers", "3",
                   "--out", seq});
  }
  if (rc == 0) rc = cmdSlab({nc, "pressure", "sum", "1", "--combiner", "--report"});
  if (rc == 0) {
    // Observability round trip: a traced run must leave a Chrome trace that
    // holds the job's spans, and a JSON report on stdout whose counters
    // include the router's key splits and the aggregators' flushes.
    const auto trace = (dir / "trace.json").string();
    std::ostringstream report;
    std::streambuf* const stdoutBuf = std::cout.rdbuf(report.rdbuf());
    try {
      rc = cmdQuery({nc, "pressure", "median", "--aggregate", "--mappers", "4", "--reducers",
                     "3", "--trace", trace, "--json-report"});
    } catch (...) {
      std::cout.rdbuf(stdoutBuf);
      throw;
    }
    std::cout.rdbuf(stdoutBuf);
    std::cout << report.str();
    if (rc == 0) {
      const obs::JsonValue doc = obs::parseJson(report.str());
      for (const obs::JsonValue* counters :
           {&doc.at("counters"), &doc.at("telemetry").at("counters")}) {
        const auto get = [&](const char* name) {
          const obs::JsonValue* v = counters->find(name);
          return v != nullptr ? v->asU64() : 0;
        };
        check(get(hadoop::counter::kKeySplitsRouting) > 0,
              "query report is missing the router's key splits");
        check(get(hadoop::counter::kAggregateFlushes) >= 4,
              "query report is missing the aggregators' flushes");
      }
    }
    if (rc == 0) {
      FileSource t(trace);
      const Bytes text = t.readAll();
      const obs::JsonValue doc =
          obs::parseJson(std::string_view(reinterpret_cast<const char*>(text.data()), text.size()));
      std::set<std::string> names;
      for (const obs::JsonValue& e : doc.at("traceEvents").array) names.insert(e.at("name").string);
      for (const char* span : {"job", "map_task", "reduce_task"}) {
        check(names.count(span) == 1, "trace file is missing a job, map_task or reduce_task span");
      }
    }
  }
  if (rc == 0) {
    // Metrics round trip: a sampled run must leave a JSONL file that `stat`
    // can summarize (at least the t≈0 and job-end samples).
    const auto metrics = (dir / "metrics.jsonl").string();
    rc = cmdQuery({nc, "pressure", "median", "--aggregate", "--mappers", "4", "--reducers", "3",
                   "--metrics-out", metrics, "--sample-interval", "2"});
    if (rc == 0) {
      const obs::MetricsSummary summary = obs::summarizeMetricsFile(metrics);
      check(summary.samples >= 2, "metrics file is missing sampler snapshots");
      check(summary.gauges.count("process.rss_bytes") == 1, "metrics file has no RSS gauge");
      rc = cmdStat({metrics});
    }
  }
  if (rc == 0) rc = cmdCodec({"transform+gzipish", nc, z}, /*decompress=*/false);
  if (rc == 0) rc = cmdCodec({"transform+gzipish", z, back}, /*decompress=*/true);
  if (rc == 0) {
    FileSource a(nc), b(back);
    check(a.readAll() == b.readAll(), "codec round trip through files failed");
  }
  if (rc == 0) rc = cmdInspect({nc});
  if (rc == 0) rc = cmdFaultDemo({"--metrics-out", (dir / "fault_metrics.jsonl").string()});
  if (rc == 0) {
    // The SequenceFile we wrote must parse.
    FileSource s(seq);
    const Bytes file = s.readAll();
    hadoop::SequenceFileReader reader(file);
    u64 records = 0;
    while (reader.next()) ++records;
    check(records > 0, "no records in query output");
    std::cout << "query output records: " << records << "\n";
  }
  std::filesystem::remove_all(dir);
  std::cout << (rc == 0 ? "selftest OK\n" : "selftest FAILED\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "gen") return cmdGen(args);
    if (cmd == "info") return cmdInfo(args);
    if (cmd == "query") return cmdQuery(args);
    if (cmd == "slab") return cmdSlab(args);
    if (cmd == "stat") return cmdStat(args);
    if (cmd == "codec") return cmdCodec(args, false);
    if (cmd == "decodec") return cmdCodec(args, true);
    if (cmd == "inspect") return cmdInspect(args);
    if (cmd == "faultdemo") return cmdFaultDemo(args);
    if (cmd == "distrun") return cmdDistrun(args, argv[0]);
    if (cmd == "worker") return service::workerMainFromArgs(args);
    if (cmd == "selftest") return cmdSelftest();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
