// E6 — §III-E: the byte-level transform codec on the cluster sliding-median
// run. Paper: intermediate data -77.8% (55.5 -> 12.3 GB) but total runtime
// +106% (183 -> 377 min) because the transform costs ~2.9x gzip's CPU.
//
// We execute the job for real at laptop scale (simple keys, 10 mappers,
// 5 reducers) with codec "null" vs "transform+gzipish", then project each
// task's bytes and CPU seconds to the paper's dataset on the 5-node event
// simulator.
#include <iostream>

#include "cluster_median_common.h"

using namespace scishuffle;
using namespace scishuffle::bench;

int main() {
  banner("E6: §III-E — transform codec on the cluster sliding median");
  const grid::Variable input = makeIntGrid("pressure", {kLocalSide, kLocalSide}, 33);
  std::cout << "local run: " << kLocalSide << "x" << kLocalSide
            << " grid, 3x3 median, 10 mappers, 5 reducers; projected to "
            << fixed(kPaperCells / 1e6, 0) << "M cells on 5 nodes\n";

  const RunOutcome plain = runConfiguration(input, /*aggregate=*/false, "null");
  const RunOutcome gz = runConfiguration(input, /*aggregate=*/false, "gzipish");
  const RunOutcome transformed =
      runConfiguration(input, /*aggregate=*/false, "transform+gzipish");

  const double scale = paperScale();
  auto gb = [&](u64 bytes) { return humanBytes(static_cast<double>(bytes) * scale); };

  Table table({"configuration", "intermediate (projected)", "reduction", "runtime (projected)",
               "vs plain"});
  table.addRow({"plain (no codec)", gb(plain.materialized), "-",
                fixed(plain.simulated.total_s / 60.0, 1) + " min", "-"});
  table.addRow({"gzipish codec", gb(gz.materialized),
                percentChange(static_cast<double>(plain.materialized),
                              static_cast<double>(gz.materialized)),
                fixed(gz.simulated.total_s / 60.0, 1) + " min",
                percentChange(plain.simulated.total_s, gz.simulated.total_s)});
  table.addRow({"transform+gzipish codec", gb(transformed.materialized),
                percentChange(static_cast<double>(plain.materialized),
                              static_cast<double>(transformed.materialized)),
                fixed(transformed.simulated.total_s / 60.0, 1) + " min",
                percentChange(plain.simulated.total_s, transformed.simulated.total_s)});
  table.print();

  const double gzCpu =
      static_cast<double>(gz.counters.get(hadoop::counter::kCodecCompressCpuUs));
  const double trCpu =
      static_cast<double>(transformed.counters.get(hadoop::counter::kCodecCompressCpuUs));
  std::cout << "\ncompression CPU, transform+gzipish vs gzipish alone: "
            << fixed(trCpu / gzCpu, 1) << "x (paper: ~2.9x)\n";
  std::cout << "paper: intermediate -77.8% (55.5 -> 12.3 GB); runtime +106% (183 -> 377 min)\n";
  std::cout << "\nsimulated timeline (transform+gzipish): " << transformed.simulated.toString()
            << "\n";
  std::cout << "simulated timeline (plain):              " << plain.simulated.toString() << "\n";
  return 0;
}
