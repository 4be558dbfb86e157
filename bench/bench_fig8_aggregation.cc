// E7 — Fig. 8: effect of key aggregation on total intermediate data size,
// broken into values / keys / file overhead, for a grid of integers keyed
// per point (ideal case: one mapper, so aggregation is maximal).
//
// Paper bars (reconstructed, DESIGN.md §3): original = 3.81 MB values +
// 19.07 MB keys + 1.91 MB file overhead; compressed = same values + keys
// and overhead collapsed to KB scale; total reduction "up to 84.5%".
// Also reproduces the note that partitioning across map tasks yields less
// aggregation.
#include <iostream>

#include "bench_util/bench_util.h"
#include "grid/dataset.h"
#include "hadoop/ifile.h"
#include "scikey/aggregate_key.h"
#include "scikey/aggregator.h"
#include "scikey/curve_space.h"
#include "scikey/simple_key.h"

using namespace scishuffle;

namespace {

constexpr i64 kSide = 1000;

struct Breakdown {
  u64 values = 0;
  u64 keys = 0;
  u64 overhead = 0;  // per-record framing + end marker + checksum
  u64 records = 0;
  u64 total() const { return values + keys + overhead; }
};

Breakdown simpleBreakdown(const grid::Variable& v) {
  Breakdown b;
  hadoop::IFileWriter writer;
  const grid::Box domain(grid::Coord(4, 0), {1, 1, kSide, kSide});
  domain.forEachCell([&](const grid::Coord& c) {
    const Bytes key = serializeSimpleKey(scikey::SimpleKey{0, "", c}, scikey::VariableTag::kIndex);
    const Bytes value = v.serializedValueAt({c[2], c[3]});
    writer.append(key, value);
    b.keys += key.size();
    b.values += value.size();
    ++b.records;
  });
  const u64 file = writer.close().size();
  b.overhead = file - b.keys - b.values;
  return b;
}

Breakdown aggregateBreakdown(const grid::Variable& v, int numSplits) {
  Breakdown b;
  // Aggregate keys name curve ranges over the variable's real 2-D domain.
  const grid::Box domain(grid::Coord(2, 0), {kSide, kSide});
  const scikey::CurveSpace space(sfc::CurveKind::kZOrder, domain);
  hadoop::IFileWriter writer;

  scikey::AggregatorConfig config;
  config.value_size = 4;
  config.flush_threshold_bytes = 256u << 20;

  const i64 rowsPerSplit = (kSide + numSplits - 1) / numSplits;
  for (int s = 0; s < numSplits; ++s) {
    const i64 lo = s * rowsPerSplit;
    const i64 hi = std::min<i64>(kSide, lo + rowsPerSplit);
    if (lo >= hi) continue;
    scikey::Aggregator agg(space, config, [&](Bytes key, Bytes value) {
      writer.append(key, value);
      b.keys += key.size();
      b.values += value.size();
      ++b.records;
    });
    const grid::Box split({lo, 0}, {hi - lo, kSide});
    split.forEachCell([&](const grid::Coord& c) {
      agg.add(0, c, v.serializedValueAt(c));
    });
  }
  const u64 file = writer.close().size();
  b.overhead = file - b.keys - b.values;
  return b;
}

std::string mb(u64 bytes) { return bench::humanBytes(static_cast<double>(bytes)); }

}  // namespace

int main() {
  bench::banner("E7: Fig. 8 — key aggregation data-size breakdown (1000x1000 ints)");
  const grid::Variable v = bench::makeIntGrid("field", {kSide, kSide}, 88);

  const Breakdown original = simpleBreakdown(v);
  const Breakdown ideal = aggregateBreakdown(v, 1);

  bench::Table table({"component", "original", "compressed (1 mapper)", "paper original",
                      "paper compressed"});
  table.addRow({"values", mb(original.values), mb(ideal.values), "3.81 MB", "3.81 MB"});
  table.addRow({"keys", mb(original.keys), mb(ideal.keys), "19.07 MB", "~KB"});
  table.addRow({"file overhead", mb(original.overhead), mb(ideal.overhead), "1.91 MB", "5.84 KB"});
  table.addRow({"total", mb(original.total()), mb(ideal.total()), "24.80 MB", "~3.9 MB"});
  table.addRow({"records", bench::withCommas(original.records), bench::withCommas(ideal.records),
                "1,000,000", "~thousands"});
  table.print();

  const double reduction = (1.0 - static_cast<double>(ideal.total()) /
                                      static_cast<double>(original.total())) *
                           100.0;
  std::cout << "\ntotal reduction (ideal case): " << bench::fixed(reduction, 1)
            << "%   (paper: up to 84.5%)\n";

  bench::banner("E7b: partitioning across map tasks reduces aggregation");
  bench::Table parts({"map tasks", "aggregate records", "total intermediate", "reduction"});
  for (const int splits : {1, 4, 16, 64}) {
    const Breakdown b = aggregateBreakdown(v, splits);
    const double red =
        (1.0 - static_cast<double>(b.total()) / static_cast<double>(original.total())) * 100.0;
    parts.addRow({std::to_string(splits), bench::withCommas(b.records), mb(b.total()),
                  bench::fixed(red, 1) + "%"});
  }
  parts.print();
  std::cout << "paper: \"Partitioning the data set across Map tasks results in less"
               " aggregation.\"\n";
  return 0;
}
