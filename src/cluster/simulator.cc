#include "cluster/simulator.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace scishuffle::cluster {

namespace {

/// A serially-shared resource (one disk, one NIC): exclusive use, FCFS.
struct Resource {
  double nextFree = 0;

  /// Occupies the resource for `duration` starting no earlier than
  /// `earliest`; returns the completion time.
  double use(double earliest, double duration) {
    const double start = std::max(earliest, nextFree);
    nextFree = start + duration;
    return nextFree;
  }
};

}  // namespace

std::vector<std::vector<int>> placeReplicas(int nodes, int replication,
                                            const std::vector<int>& writers) {
  check(nodes >= 1, "need at least one node");
  check(replication >= 1, "replication must be positive");
  replication = std::min(replication, nodes);
  std::vector<std::vector<int>> blocks;
  blocks.reserve(writers.size());
  int next = 0;  // the rotation the non-writer replicas take turns on
  for (const int writer : writers) {
    check(writer >= 0 && writer < nodes, "writer node out of range");
    std::vector<int> replicas{writer};
    while (static_cast<int>(replicas.size()) < replication) {
      const int candidate = next++ % nodes;
      if (std::find(replicas.begin(), replicas.end(), candidate) == replicas.end()) {
        replicas.push_back(candidate);
      }
    }
    blocks.push_back(std::move(replicas));
  }
  return blocks;
}

SimJob simJobFromResult(const hadoop::JobResult& result, const ClusterSpec& spec, double scale) {
  SimJob job;
  job.maps.reserve(result.map_tasks.size());
  for (const auto& m : result.map_tasks) {
    SimJob::MapTask task;
    task.cpu_s = scale * spec.cpu_scale * static_cast<double>(m.cpu_us) / 1e6;
    task.segment_bytes.reserve(m.segment_bytes.size());
    for (const u64 b : m.segment_bytes) {
      task.segment_bytes.push_back(static_cast<u64>(scale * static_cast<double>(b)));
    }
    job.maps.push_back(std::move(task));
  }
  job.reduces.reserve(result.reduce_tasks.size());
  for (const auto& r : result.reduce_tasks) {
    SimJob::ReduceTask task;
    task.cpu_s = scale * spec.cpu_scale * static_cast<double>(r.cpu_us) / 1e6;
    task.merge_bytes = static_cast<u64>(scale * static_cast<double>(r.merge_materialized_bytes));
    task.output_bytes = static_cast<u64>(scale * static_cast<double>(r.output_bytes));
    job.reduces.push_back(task);
  }
  return job;
}

std::string SimOutcome::toString() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << "map phase " << map_phase_done_s << "s, shuffle drained " << shuffle_done_s
     << "s, job " << total_s << "s";
  return os.str();
}

SimOutcome EventSimulator::run(const SimJob& job) const {
  check(spec_.nodes >= 1 && spec_.map_slots >= 1 && spec_.reduce_slots >= 1,
        "degenerate cluster spec");
  const double diskBw = spec_.disk_mb_per_s * 1e6;  // bytes/s
  const double netBw = spec_.net_mb_per_s * 1e6;

  std::vector<Resource> disk(static_cast<std::size_t>(spec_.nodes));
  std::vector<Resource> nic(static_cast<std::size_t>(spec_.nodes));
  std::vector<Resource> mapSlot(static_cast<std::size_t>(spec_.map_slots));
  std::vector<Resource> reduceSlot(static_cast<std::size_t>(spec_.reduce_slots));

  auto mapSlotNode = [&](std::size_t slot) { return static_cast<int>(slot) % spec_.nodes; };
  auto reducerNode = [&](std::size_t r) { return static_cast<int>(r) % spec_.nodes; };

  SimOutcome outcome;
  outcome.map_finish_s.assign(job.maps.size(), 0);
  std::vector<int> mapNode(job.maps.size(), 0);

  // ---- Map phase: tasks dispatched FCFS; with locality on, a slot on a
  // node holding the input replica wins ties against the earliest-free slot.
  for (std::size_t m = 0; m < job.maps.size(); ++m) {
    const auto& task = job.maps[m];
    auto slotIt = std::min_element(
        mapSlot.begin(), mapSlot.end(),
        [](const Resource& a, const Resource& b) { return a.nextFree < b.nextFree; });
    if (job.honor_locality && !task.preferred_nodes.empty()) {
      const double earliest = slotIt->nextFree;
      auto bestLocal = mapSlot.end();
      for (auto it = mapSlot.begin(); it != mapSlot.end(); ++it) {
        const int node = mapSlotNode(static_cast<std::size_t>(it - mapSlot.begin()));
        const bool local = std::find(task.preferred_nodes.begin(), task.preferred_nodes.end(),
                                     node) != task.preferred_nodes.end();
        if (local && (bestLocal == mapSlot.end() || it->nextFree < bestLocal->nextFree)) {
          bestLocal = it;
        }
      }
      // Take the local slot if waiting for it costs no more than the remote
      // read would (a crude form of delay scheduling).
      if (bestLocal != mapSlot.end()) {
        const double remotePenalty =
            2.0 * static_cast<double>(task.input_bytes) / (spec_.net_mb_per_s * 1e6);
        if (bestLocal->nextFree <= earliest + remotePenalty) slotIt = bestLocal;
      }
    }
    const std::size_t slot = static_cast<std::size_t>(slotIt - mapSlot.begin());
    const int node = mapSlotNode(slot);
    mapNode[m] = node;

    // Input read (step 1): local replica = one disk pass; remote = source
    // disk + both NICs.
    double inputReady = slotIt->nextFree;
    if (task.input_bytes > 0 && !task.preferred_nodes.empty()) {
      const bool local = std::find(task.preferred_nodes.begin(), task.preferred_nodes.end(),
                                   node) != task.preferred_nodes.end();
      const double d = static_cast<double>(task.input_bytes) / diskBw;
      if (local) {
        inputReady = disk[static_cast<std::size_t>(node)].use(inputReady, d);
        outcome.local_input_bytes += task.input_bytes;
      } else {
        const int src = task.preferred_nodes.front();
        double t = disk[static_cast<std::size_t>(src)].use(inputReady, d);
        t = nic[static_cast<std::size_t>(src)].use(
            t, static_cast<double>(task.input_bytes) / netBw);
        inputReady = nic[static_cast<std::size_t>(node)].use(
            t, static_cast<double>(task.input_bytes) / netBw);
        outcome.remote_input_bytes += task.input_bytes;
      }
    }

    const double cpuDone = slotIt->use(inputReady, task.cpu_s);
    const u64 outBytes = std::accumulate(job.maps[m].segment_bytes.begin(),
                                         job.maps[m].segment_bytes.end(), u64{0});
    const double written = disk[static_cast<std::size_t>(node)].use(
        cpuDone, static_cast<double>(outBytes) / diskBw);
    // The slot is held through the materializing write, as in Hadoop.
    slotIt->nextFree = written;
    outcome.map_finish_s[m] = written;
    outcome.map_phase_done_s = std::max(outcome.map_phase_done_s, written);
  }

  // ---- Shuffle: per-(m, r) transfers start as each mapper finishes
  // (overlapping the rest of the map phase). Processed in map-finish order.
  const std::size_t numReduces = job.reduces.size();
  std::vector<double> segmentLanded(job.maps.size() * numReduces, 0);
  std::vector<std::size_t> mapOrder(job.maps.size());
  std::iota(mapOrder.begin(), mapOrder.end(), 0);
  std::stable_sort(mapOrder.begin(), mapOrder.end(), [&](std::size_t a, std::size_t b) {
    return outcome.map_finish_s[a] < outcome.map_finish_s[b];
  });

  for (const std::size_t m : mapOrder) {
    for (std::size_t r = 0; r < numReduces; ++r) {
      const u64 bytes = r < job.maps[m].segment_bytes.size() ? job.maps[m].segment_bytes[r] : 0;
      const int src = mapNode[m];
      const int dst = reducerNode(r);
      double t = disk[static_cast<std::size_t>(src)].use(outcome.map_finish_s[m],
                                                         static_cast<double>(bytes) / diskBw);
      if (src != dst) {
        t = nic[static_cast<std::size_t>(src)].use(t, static_cast<double>(bytes) / netBw);
        t = nic[static_cast<std::size_t>(dst)].use(t, static_cast<double>(bytes) / netBw);
      }
      t = disk[static_cast<std::size_t>(dst)].use(t, static_cast<double>(bytes) / diskBw);
      segmentLanded[m * numReduces + r] = t;
      outcome.shuffle_done_s = std::max(outcome.shuffle_done_s, t);
    }
  }

  // ---- Reduce phase: a reducer is ready when its last segment lands.
  outcome.reduce_finish_s.assign(numReduces, 0);
  std::vector<std::size_t> reduceOrder(numReduces);
  std::iota(reduceOrder.begin(), reduceOrder.end(), 0);
  std::vector<double> ready(numReduces, 0);
  for (std::size_t r = 0; r < numReduces; ++r) {
    for (std::size_t m = 0; m < job.maps.size(); ++m) {
      ready[r] = std::max(ready[r], segmentLanded[m * numReduces + r]);
    }
  }
  std::stable_sort(reduceOrder.begin(), reduceOrder.end(),
                   [&](std::size_t a, std::size_t b) { return ready[a] < ready[b]; });

  for (const std::size_t r : reduceOrder) {
    const auto slotIt = std::min_element(
        reduceSlot.begin(), reduceSlot.end(),
        [](const Resource& a, const Resource& b) { return a.nextFree < b.nextFree; });
    const int node = reducerNode(r);
    const double start = std::max(ready[r], slotIt->nextFree);
    // Extra merge passes read + write their bytes on the local disk.
    const double merged = disk[static_cast<std::size_t>(node)].use(
        start, 2.0 * static_cast<double>(job.reduces[r].merge_bytes) / diskBw);
    const double cpuDone = merged + job.reduces[r].cpu_s;
    const double written = disk[static_cast<std::size_t>(node)].use(
        cpuDone, static_cast<double>(job.reduces[r].output_bytes) / diskBw);
    slotIt->nextFree = written;
    outcome.reduce_finish_s[r] = written;
    outcome.total_s = std::max(outcome.total_s, written);
  }
  // A job with no reducers ends with the map phase.
  outcome.total_s = std::max({outcome.total_s, outcome.map_phase_done_s, outcome.shuffle_done_s});
  return outcome;
}

}  // namespace scishuffle::cluster
