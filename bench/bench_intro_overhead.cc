// E1 — §I intro arithmetic: intermediate-file blowup of per-point keys.
//
// Paper: a 4-byte-float field keyed per grid point yields a 26,000,006-byte
// intermediate file with a variable *index* (overhead vs the 4,000,000 bytes
// of data) and 33,000,006 bytes with the variable *name* "windspeed1"
// (keys 6.75x the size of values); a (corner,size) aggregate representation
// reduces the overhead to a constant.
//
// Reconstruction (DESIGN.md §3): 10^6 grid points, keys carry the variable
// plus four int32 coordinates. We regenerate all three representations
// through the real IFile writer and report exact byte counts.
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

/// Serializes every cell's key/value into an (uncompressed) IFile and
/// returns (file size, key bytes, value bytes).
struct Sizes {
  u64 file = 0;
  u64 keys = 0;
  u64 values = 0;
  u64 records = 0;
};

Sizes simpleKeyFile(const grid::Variable& wind, scikey::VariableTag tag) {
  hadoop::IFileWriter writer;
  Sizes sizes;
  const grid::Box domain(grid::Coord(4, 0), {1, 1, kSide, kSide});
  domain.forEachCell([&](const grid::Coord& c) {
    const scikey::SimpleKey key{0, "windspeed1", c};
    const Bytes keyBytes = serializeSimpleKey(key, tag);
    const Bytes value = wind.serializedValueAt({c[2], c[3]});
    writer.append(keyBytes, value);
    sizes.keys += keyBytes.size();
    sizes.values += value.size();
    ++sizes.records;
  });
  sizes.file = writer.close().size();
  return sizes;
}

Sizes aggregateFile(const grid::Variable& wind) {
  // The curve is built over the variable's real 2-D domain: aggregate keys
  // name curve ranges, so degenerate key dimensions simply drop out.
  const grid::Box domain(grid::Coord(2, 0), {kSide, kSide});
  const scikey::CurveSpace space(sfc::CurveKind::kZOrder, domain);

  hadoop::IFileWriter writer;
  Sizes sizes;
  scikey::AggregatorConfig config;
  config.value_size = 4;
  config.flush_threshold_bytes = 256u << 20;
  {
    scikey::Aggregator agg(space, config, [&](Bytes key, Bytes value) {
      sizes.keys += key.size();
      sizes.values += value.size();
      ++sizes.records;
      writer.append(key, value);
    });
    domain.forEachCell([&](const grid::Coord& c) {
      agg.add(0, c, wind.serializedValueAt(c));
    });
  }
  sizes.file = writer.close().size();
  return sizes;
}

}  // namespace

int main() {
  bench::banner("E1: intermediate key overhead (paper §I)");
  grid::Variable wind("windspeed1", grid::DataType::kFloat32, grid::Shape({kSide, kSide}));
  grid::gen::fillWindspeed(wind, 2012);

  const Sizes indexed = simpleKeyFile(wind, scikey::VariableTag::kIndex);
  const Sizes named = simpleKeyFile(wind, scikey::VariableTag::kName);
  const Sizes aggregated = aggregateFile(wind);

  auto overhead = [](const Sizes& s) {
    return bench::fixed(static_cast<double>(s.file - s.values) /
                            static_cast<double>(s.values) * 100.0,
                        0) +
           "%";
  };
  auto ratio = [](const Sizes& s) {
    return bench::fixed(static_cast<double>(s.keys) / static_cast<double>(s.values), 2);
  };

  bench::Table table({"representation", "records", "file bytes", "key bytes", "key/value",
                      "overhead vs data", "paper file bytes"});
  table.addRow({"simple key, var index", bench::withCommas(indexed.records),
                bench::withCommas(indexed.file), bench::withCommas(indexed.keys), ratio(indexed),
                overhead(indexed), "26,000,006"});
  table.addRow({"simple key, var name", bench::withCommas(named.records),
                bench::withCommas(named.file), bench::withCommas(named.keys), ratio(named),
                overhead(named), "33,000,006"});
  table.addRow({"aggregate (corner,size)", bench::withCommas(aggregated.records),
                bench::withCommas(aggregated.file), bench::withCommas(aggregated.keys),
                ratio(aggregated), overhead(aggregated), "~values + const"});
  table.print();

  std::cout << "\npaper: key/value = 6.75 for windspeed1 (27-byte key / 4-byte value);\n"
               "       aggregate keys make the key side a constant-factor term.\n";
  return 0;
}
