// X4 — data locality ablation (Fig. 1 step 1): map tasks reading their HDFS
// block from a local replica vs across the network, under the event-driven
// cluster simulator. SciHadoop's partitioning exists precisely to keep map
// input reads local; this quantifies what that buys on our simulated 5-node
// cluster for an input-heavy job. Aborts unless balanced placement reads no
// remote input under either scheduler and, in every placement, locality-aware
// scheduling reads no more remote input than earliest-slot scheduling.
#include <iostream>

#include "bench_util/bench_util.h"
#include "cluster/simulator.h"

using namespace scishuffle;

int main() {
  bench::banner("X4: map input locality (HDFS replica placement + event simulator)");

  cluster::ClusterSpec spec;
  spec.nodes = 5;
  spec.map_slots = 10;
  spec.reduce_slots = 5;
  const cluster::EventSimulator sim(spec);

  // Placement scenarios: balanced writers spread blocks evenly (HDFS after a
  // distributed ingest); a single writer with low replication concentrates
  // every block on one node (the "hot node" a local ingest produces).
  struct Scenario {
    const char* name;
    int replication;
    bool singleWriter;
  };
  const Scenario scenarios[] = {{"balanced, rep 3", 3, false},
                                {"hot node, rep 1", 1, true},
                                {"hot node, rep 2", 2, true}};

  bench::Table table({"placement", "scheduling", "local input", "remote input",
                      "map phase (s)", "job (s)"});
  for (const auto& scenario : scenarios) {
    // One full 64 MB block per map task.
    constexpr u64 kBlockBytes = 64u << 20;
    const int numBlocks = 32;
    std::vector<int> writers;
    for (int b = 0; b < numBlocks; ++b) {
      writers.push_back(scenario.singleWriter ? 0 : b % spec.nodes);
    }
    const auto placement = cluster::placeReplicas(spec.nodes, scenario.replication, writers);

    u64 remoteAware = 0;
    u64 remoteEarliest = 0;
    for (const bool locality : {true, false}) {
      cluster::SimJob job;
      job.honor_locality = locality;
      for (const auto& replicas : placement) {
        cluster::SimJob::MapTask task;
        task.input_bytes = kBlockBytes;
        task.preferred_nodes = replicas;
        task.cpu_s = 2.0;                          // light compute
        task.segment_bytes = {1u << 20, 1u << 20,  // small shuffle
                              1u << 20, 1u << 20, 1u << 20};
        job.maps.push_back(std::move(task));
      }
      for (int r = 0; r < 5; ++r) job.reduces.push_back({1.0, 0, 1u << 20});

      const auto outcome = sim.run(job);
      if (locality) {
        remoteAware = outcome.remote_input_bytes;
      } else {
        remoteEarliest = outcome.remote_input_bytes;
      }
      table.addRow({scenario.name, locality ? "locality-aware" : "earliest slot",
                    bench::humanBytes(static_cast<double>(outcome.local_input_bytes)),
                    bench::humanBytes(static_cast<double>(outcome.remote_input_bytes)),
                    bench::fixed(outcome.map_phase_done_s, 1),
                    bench::fixed(outcome.total_s, 1)});
    }
    check(scenario.singleWriter || (remoteAware == 0 && remoteEarliest == 0),
          "balanced placement read input across the network");
    check(remoteAware <= remoteEarliest,
          "locality-aware scheduling read more remote input than earliest-slot");
  }
  table.print();
  std::cout << "\nbalanced placement makes every task local under either scheduler; skewed\n"
               "placement forces the trade-off — wait for the hot node's slots (locality)\n"
               "or pull blocks through its single NIC (earliest slot).\n";
  return 0;
}
