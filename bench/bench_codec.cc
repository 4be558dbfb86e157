// Codec microbenchmark: sweeps codec x block size x entropy class and times
// the SIMD kernel layer against its scalar references (docs/PERFORMANCE.md
// explains how to read the output). Writes BENCH_codec.json with two
// sections:
//   kernels — per-kernel scalar vs dispatched throughput (the before/after
//             numbers for the src/io/simd.h layer), plus the backend name;
//   sweep   — compress/decompress throughput and ratio per configuration.
//
// `--quick` runs a single small configuration plus kernel equivalence
// asserts; it is wired into the tier-1 CI job as a smoke test that the
// dispatched kernels exist, run, and agree with their references.
#include <cstring>
#include <iostream>
#include <random>
#include <string>

#include "bench_util/bench_util.h"
#include "compress/deflate.h"
#include "compress/lz77.h"
#include "io/crc32.h"
#include "io/simd.h"
#include "transform/transform_codec.h"

using namespace scishuffle;

namespace {

// ------------------------------------------------------------- workloads

/// Entropy classes spanning the codec's behavior space: trivially
/// compressible, run-structured, stride-structured (the paper's key
/// streams), and incompressible.
Bytes makeWorkload(const std::string& kind, std::size_t n) {
  Bytes data(n);
  if (kind == "zeros") {
    // all zero already
  } else if (kind == "runny") {
    for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<u8>((i / 97) & 0xFF);
  } else if (kind == "grid") {
    // Stride-structured int32 triples, like the canonical grid-walk keys.
    const Bytes walk = bench::gridWalkStream(100);
    for (std::size_t i = 0; i < n; ++i) data[i] = walk[i % walk.size()];
  } else if (kind == "random") {
    std::mt19937 rng(0xC0DEC);
    for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<u8>(rng());
  } else {
    check(false, "unknown workload kind");
  }
  return data;
}

/// Times `fn` (which must consume `bytes` input bytes per call), repeating
/// until `minSeconds` of wall clock has elapsed; returns MB/s.
template <typename Fn>
double throughputMBps(std::size_t bytes, double minSeconds, Fn&& fn) {
  // One warm-up call (pulls tables/pools into cache, like steady state).
  fn();
  bench::Timer t;
  int reps = 0;
  do {
    fn();
    ++reps;
  } while (t.seconds() < minSeconds);
  return static_cast<double>(bytes) * reps / t.seconds() / 1e6;
}

// --------------------------------------------------------------- kernels

struct KernelRow {
  std::string name;
  double scalarMBps = 0;
  double simdMBps = 0;
};

/// Asserts each dispatched kernel agrees with its scalar reference on a
/// deterministic pseudo-random input (the property tests cover adversarial
/// shapes; this is the cheap always-on smoke check).
void checkKernelEquivalence() {
  std::mt19937 rng(7);
  Bytes a(4096);
  Bytes b(4096);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<u8>(rng());
    b[i] = (i % 37 == 0) ? static_cast<u8>(rng()) : a[i];  // agree in long stretches
  }
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{37}, a.size()}) {
    check(simd::matchLength(a.data(), b.data(), len) ==
              simd::matchLengthScalar(a.data(), b.data(), len),
          "matchLength disagrees with scalar reference");
  }
  check(crc32(a) == crc32Reference(a), "crc32 disagrees with scalar reference");
}

std::vector<KernelRow> benchKernels(double minSeconds) {
  std::vector<KernelRow> rows;
  const std::size_t n = 1 << 20;
  Bytes a = makeWorkload("random", n);
  Bytes b = a;
  // Long agreeing stretches so matchLength exercises its word-at-a-time loop.
  for (std::size_t i = 0; i < n; i += 511) b[i] = static_cast<u8>(b[i] + 1);

  {
    KernelRow r{"matchLength", 0, 0};
    volatile std::size_t sink = 0;
    auto sweep = [&](auto&& kernel) {
      std::size_t total = 0;
      for (std::size_t pos = 0; pos + 512 <= n; pos += 512) {
        total += kernel(a.data() + pos, b.data() + pos, 512);
      }
      sink = total;
    };
    r.scalarMBps = throughputMBps(n, minSeconds, [&] {
      sweep([](const u8* x, const u8* y, std::size_t len) {
        return simd::matchLengthScalar(x, y, len);
      });
    });
    r.simdMBps = throughputMBps(n, minSeconds, [&] {
      sweep([](const u8* x, const u8* y, std::size_t len) {
        return simd::matchLength(x, y, len);
      });
    });
    rows.push_back(r);
  }
  {
    KernelRow r{"crc32Slice8", 0, 0};
    volatile u32 sink = 0;
    r.scalarMBps = throughputMBps(n, minSeconds, [&] { sink = crc32Reference(a); });
    r.simdMBps = throughputMBps(n, minSeconds, [&] { sink = crc32(a); });
    rows.push_back(r);
  }
  return rows;
}

// ----------------------------------------------------------------- sweep

struct SweepRow {
  std::string codec;
  std::size_t blockBytes = 0;
  std::string workload;
  double ratio = 0;  // compressed / raw
  double compressMBps = 0;
  double decompressMBps = 0;
};

SweepRow benchOne(const Codec* codec, const std::string& codecName, std::size_t blockBytes,
                  const std::string& workload, double minSeconds) {
  SweepRow row;
  row.codec = codecName;
  row.blockBytes = blockBytes;
  row.workload = workload;
  const Bytes raw = makeWorkload(workload, blockBytes);
  Bytes compressed = codec != nullptr ? codec->compress(raw) : raw;
  row.ratio = static_cast<double>(compressed.size()) / static_cast<double>(raw.size());
  row.compressMBps = throughputMBps(blockBytes, minSeconds, [&] {
    Bytes c = codec != nullptr ? codec->compress(raw) : raw;
    check(!c.empty() || raw.empty(), "empty compressor output");
  });
  row.decompressMBps = throughputMBps(blockBytes, minSeconds, [&] {
    Bytes d = codec != nullptr ? codec->decompress(compressed) : compressed;
    check(d.size() == raw.size(), "round-trip size mismatch");
  });
  const Bytes back = codec != nullptr ? codec->decompress(compressed) : compressed;
  check(back == raw, "round-trip mismatch in codec bench");
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  bench::banner(std::string("codec kernels + sweep (backend: ") + simd::kBackendName +
                (quick ? ", quick)" : ")"));

  checkKernelEquivalence();

  const double minSeconds = quick ? 0.02 : 0.25;
  const std::vector<KernelRow> kernels = benchKernels(minSeconds);
  bench::Table kernelTable({"kernel", "scalar MB/s", "dispatched MB/s", "speedup"});
  for (const auto& k : kernels) {
    kernelTable.addRow({k.name, bench::fixed(k.scalarMBps, 1), bench::fixed(k.simdMBps, 1),
                        bench::fixed(k.simdMBps / k.scalarMBps, 2) + "x"});
  }
  kernelTable.print();
  std::cout << "\n";

  const DeflateCodec gzipish;
  const TransformCodec transformGzipish(std::make_unique<DeflateCodec>());
  struct NamedCodec {
    std::string name;
    const Codec* codec;
  };
  const std::vector<NamedCodec> codecs = {
      {"null", nullptr}, {"gzipish", &gzipish}, {"transform+gzipish", &transformGzipish}};
  const std::vector<std::size_t> blockSizes =
      quick ? std::vector<std::size_t>{64 * 1024}
            : std::vector<std::size_t>{64 * 1024, 256 * 1024, 1024 * 1024};
  const std::vector<std::string> workloads =
      quick ? std::vector<std::string>{"grid", "random"}
            : std::vector<std::string>{"zeros", "runny", "grid", "random"};

  std::vector<SweepRow> sweep;
  for (const auto& nc : codecs) {
    for (const std::size_t blockBytes : blockSizes) {
      for (const auto& workload : workloads) {
        sweep.push_back(benchOne(nc.codec, nc.name, blockBytes, workload, minSeconds));
      }
    }
  }

  bench::Table sweepTable(
      {"codec", "block", "workload", "ratio", "compress MB/s", "decompress MB/s"});
  for (const auto& r : sweep) {
    sweepTable.addRow({r.codec, bench::humanBytes(static_cast<double>(r.blockBytes)), r.workload,
                       bench::fixed(r.ratio, 4), bench::fixed(r.compressMBps, 1),
                       bench::fixed(r.decompressMBps, 1)});
  }
  sweepTable.print();

  bench::JsonFile out("BENCH_codec.json");
  auto& w = out.writer();
  w.beginObject();
  w.kv("bench", "codec");
  w.kv("backend", simd::kBackendName);
  w.kv("quick", quick);
  w.key("kernels").beginArray();
  for (const auto& k : kernels) {
    w.beginObject();
    w.kv("name", k.name);
    w.kv("scalar_mb_s", k.scalarMBps);
    w.kv("simd_mb_s", k.simdMBps);
    w.kv("speedup", k.simdMBps / k.scalarMBps);
    w.endObject();
  }
  w.endArray();
  w.key("sweep").beginArray();
  for (const auto& r : sweep) {
    w.beginObject();
    w.kv("codec", r.codec);
    w.kv("block_bytes", static_cast<u64>(r.blockBytes));
    w.kv("workload", r.workload);
    w.kv("ratio", r.ratio);
    w.kv("compress_mb_s", r.compressMBps);
    w.kv("decompress_mb_s", r.decompressMBps);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  std::cout << "\nkernel equivalence checks passed; wrote BENCH_codec.json\n";
  return 0;
}
