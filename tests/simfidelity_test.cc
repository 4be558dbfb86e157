// Simulator fidelity gate: run a real multi-process distributed job, feed its
// measured per-task stats into the discrete-event cluster simulator with a
// spec matching the actual topology, and require the simulated phase timings
// to land within tolerance of the wall clock we just measured. This keeps the
// simulator honest against the thing it claims to model — if the distributed
// runtime's phase structure drifts, this test fails before the paper-scale
// extrapolations silently go wrong.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/simulator.h"
#include "service/coordinator.h"
#include "service/workload.h"

namespace {

using namespace scishuffle;
namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    char tmpl[] = "/tmp/scishuffle-simfi-XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    if (p == nullptr) throw std::runtime_error("mkdtemp failed");
    path = p;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST(SimFidelityTest, SimulatorTracksMeasuredDistributedPhases) {
  TempDir dir;
  service::DistributedConfig cfg;
  cfg.num_workers = 2;
  cfg.worker_command = {SCISHUFFLE_WORKER_BIN};
  cfg.work_dir = dir.path;
  // Big enough that per-task CPU dominates the fork/hello/assign overheads
  // the simulator does not model: tasks report thread CPU, about 90 ms each
  // here, against some 50 ms of those overheads per run.
  const std::vector<std::string> args = {"6", "200000"};
  const service::DistributedResult dist = service::runDistributedJob("wordcount", args, cfg);
  ASSERT_EQ(dist.worker_deaths, 0);
  ASSERT_GT(dist.job.timings.map_phase_us, 0u);
  ASSERT_GT(dist.job.timings.reduce_phase_us, 0u);

  // Spec mirrors the run we just did: one node per worker, one concurrent
  // map per worker (the coordinator keeps one assignment in flight each),
  // reduce slots as configured in the workload. Disk/net are set absurdly
  // fast because the loopback UNIX-socket transport is not the bottleneck —
  // what is left is the CPU model, which is what fidelity means here.
  cluster::ClusterSpec spec;
  spec.nodes = cfg.num_workers;
  spec.map_slots = cfg.num_workers;
  spec.reduce_slots = service::buildWorkload("wordcount", args).config.reduce_slots;
  spec.disk_mb_per_s = 50'000.0;
  spec.net_mb_per_s = 50'000.0;
  spec.cpu_scale = 1.0;

  const cluster::SimJob job = cluster::simJobFromResult(dist.job, spec, 1.0);
  const cluster::SimOutcome sim = cluster::EventSimulator(spec).run(job);
  ASSERT_GT(sim.map_phase_done_s, 0.0);
  ASSERT_GT(sim.total_s, 0.0);

  const double measuredMapS = static_cast<double>(dist.job.timings.map_phase_us) / 1e6;
  const double measuredTotalS =
      static_cast<double>(dist.job.timings.map_phase_us + dist.job.timings.reduce_phase_us) / 1e6;

  const double mapRatio = sim.map_phase_done_s / measuredMapS;
  const double totalRatio = sim.total_s / measuredTotalS;
  RecordProperty("measured_map_s", std::to_string(measuredMapS));
  RecordProperty("sim_map_s", std::to_string(sim.map_phase_done_s));
  RecordProperty("measured_total_s", std::to_string(measuredTotalS));
  RecordProperty("sim_total_s", std::to_string(sim.total_s));

  // Tolerance is deliberately loose (5x either way): the simulator omits
  // process spawn, frame round-trips and scheduler latency, and CI machines
  // are noisy — but a broken mapping is off by orders of magnitude, not 5x.
  EXPECT_GT(mapRatio, 0.2) << "sim map phase far below measurement: sim=" << sim.map_phase_done_s
                           << "s measured=" << measuredMapS << "s";
  EXPECT_LT(mapRatio, 5.0) << "sim map phase far above measurement: sim=" << sim.map_phase_done_s
                           << "s measured=" << measuredMapS << "s";
  EXPECT_GT(totalRatio, 0.2) << "sim total far below measurement: sim=" << sim.total_s
                             << "s measured=" << measuredTotalS << "s";
  EXPECT_LT(totalRatio, 5.0) << "sim total far above measurement: sim=" << sim.total_s
                             << "s measured=" << measuredTotalS << "s";

  // Structural sanity, independent of wall-clock noise: phases are ordered
  // and every simulated task finished.
  EXPECT_LE(sim.map_phase_done_s, sim.shuffle_done_s);
  EXPECT_LE(sim.shuffle_done_s, sim.total_s);
  EXPECT_EQ(sim.map_finish_s.size(), dist.job.map_tasks.size());
  EXPECT_EQ(sim.reduce_finish_s.size(), dist.job.outputs.size());
}

}  // namespace
