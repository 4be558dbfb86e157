#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <random>

#include "bench_util/bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transform/predictive_transform.h"
#include "transform/stride_hints.h"
#include "transform/transform_codec.h"
#include "testing_support.h"

namespace scishuffle::transform {
namespace {

double zeroFraction(ByteSpan data) {
  if (data.empty()) return 1.0;
  std::size_t zeros = 0;
  for (const u8 b : data) {
    if (b == 0) ++zeros;
  }
  return static_cast<double>(zeros) / static_cast<double>(data.size());
}

TEST(StrideModelTest, LearnsASimpleLinearSequence) {
  // Input: 0,1,2,3,... — stride 1 with delta 1 predicts perfectly after the
  // run threshold is met.
  TransformConfig config;
  config.max_stride = 8;
  StrideModel model(config);
  int predicted = 0;
  for (int i = 0; i < 100; ++i) {
    const u8 x = static_cast<u8>(i);
    const auto p = model.predict();
    if (p) {
      EXPECT_EQ(*p, x);
      ++predicted;
    }
    model.consume(x);
  }
  EXPECT_GT(predicted, 80);
}

TEST(StrideModelTest, BruteForceKeepsEverythingActive) {
  TransformConfig config;
  config.max_stride = 20;
  config.adaptive = false;
  StrideModel model(config);
  const Bytes data = testing::randomBytes(5000, 3);
  for (const u8 b : data) model.consume(b);
  EXPECT_EQ(model.activeCount(), 20);
}

TEST(StrideModelTest, AdaptiveEvictsOnRandomData) {
  TransformConfig config;
  config.max_stride = 50;
  StrideModel model(config);
  const Bytes data = testing::randomBytes(20000, 4);
  for (const u8 b : data) model.consume(b);
  // Random data defeats every stride; the active set must have collapsed to
  // roughly the re-admission churn level.
  EXPECT_LT(model.activeCount(), 10);
}

TEST(StrideModelTest, ExplicitStrideSetIsHonored) {
  TransformConfig config;
  config.explicit_strides = {12};
  config.adaptive = false;
  StrideModel model(config);
  EXPECT_EQ(model.activeCount(), 1);
  EXPECT_EQ(model.activeStrides().front(), 12);
}

struct TransformCase {
  const char* name;
  TransformConfig config;
};

/// gtest prints a case as its name. Its default byte dump would include the
/// `name` pointer, which moves with the load address, so every build would
/// discover the round-trip tests under different ctest names.
void PrintTo(const TransformCase& c, std::ostream* os) { *os << c.name; }

/// Every config the round-trip, golden-digest and batch-vs-scalar tests
/// sweep: the everyday tunings plus the edges of each knob (hit rates that
/// never / always evict, no warm-up, re-admission every byte, thresholds
/// that predict on any run / never predict, an explicit adaptive set).
const std::vector<TransformCase> kTransformCases = {
    {"default", {}},
    {"brute", {.max_stride = 30, .adaptive = false}},
    {"single12", {.explicit_strides = {12}, .adaptive = false}},
    {"tinycycle", {.max_stride = 16, .selection_cycle_bytes = 32}},
    {"bigwarmup", {.max_stride = 40, .eviction_warmup_strides = 8}},
    {"hitrate0", {.eviction_hit_rate = 0.0}},
    {"hitrate1", {.eviction_hit_rate = 1.0}},
    {"hitrate1_5", {.eviction_hit_rate = 1.5}},
    {"warmup0", {.eviction_warmup_strides = 0}},
    {"cycle1", {.selection_cycle_bytes = 1}},
    {"threshold0", {.run_length_threshold = 0}},
    {"threshold_neg1", {.run_length_threshold = -1}},
    {"explicit_adaptive", {.explicit_strides = {24, 3, 12, 7, 12}, .adaptive = true}},
};

class TransformRoundTrip : public ::testing::TestWithParam<TransformCase> {};

TEST_P(TransformRoundTrip, ForwardInverseIsIdentity) {
  const PredictiveTransform transform(GetParam().config);
  const std::vector<Bytes> inputs = {
      {},
      {1},
      testing::randomBytes(10000, 1),
      testing::runnyBytes(10000, 2),
      testing::gridWalkTriples(12, 12, 12),
      testing::namedKeyStream("windspeed1", 30, 30, 0.5f),
  };
  for (const auto& input : inputs) {
    const Bytes residuals = transform.forward(input);
    ASSERT_EQ(residuals.size(), input.size());
    EXPECT_EQ(transform.inverse(residuals), input);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TransformRoundTrip, ::testing::ValuesIn(kTransformCases),
    [](const ::testing::TestParamInfo<TransformCase>& info) { return info.param.name; });

// ------------------------------------------------------ golden residuals
//
// Residuals are part of every byte the transform codecs write, so any
// restructuring of the batch kernel must reproduce them exactly. The digests
// below were recorded from the byte-at-a-time model; a change that moves a
// single residual byte under any config fails here.

/// The four golden inputs: a 30^3 grid walk, random, runny and all-zero
/// bytes. The random and runny streams use only raw std::mt19937 output,
/// whose sequence the standard fixes, so no library-specific distribution
/// can move a digest.
std::vector<Bytes> goldenInputs() {
  constexpr std::size_t kN = 40000;
  std::mt19937 rng(20261016);
  Bytes random(kN);
  for (u8& b : random) b = static_cast<u8>(rng());
  Bytes runny;
  while (runny.size() < kN) {
    const u8 v = static_cast<u8>(rng());
    const std::size_t len = std::min<std::size_t>(1 + rng() % 300, kN - runny.size());
    runny.insert(runny.end(), len, v);
  }
  return {testing::gridWalkTriples(30, 30, 30), random, runny, Bytes(kN, 0)};
}

constexpr const char* kGoldenInputNames[] = {"walk30", "random", "runny", "zeros"};

/// fnv1a64 of the forward residuals of each goldenInputs() entry, per
/// kTransformCases config.
struct GoldenDigests {
  const char* config;
  u64 digests[4];
};

const GoldenDigests kGoldenDigests[] = {
    {"default",
     {0x5a8fd8f99fc94149ull, 0x1fd03f75f171a337ull, 0xc18a6a9b646441bdull, 0x600f98ab98233825ull}},
    {"brute",
     {0x131755d9fae24465ull, 0x1fd03f75f171a337ull, 0x6c1ebed3b5eed10dull, 0x600f98ab98233825ull}},
    {"single12",
     {0x7c83390e7727faf5ull, 0x1fd03f75f171a337ull, 0xbd0da33375b1394bull, 0x600f98ab98233825ull}},
    {"tinycycle",
     {0x61be44e884e3ea36ull, 0x1fd03f75f171a337ull, 0x9329085a16ec479bull, 0x600f98ab98233825ull}},
    {"bigwarmup",
     {0x579d56a1e21d15c7ull, 0x1fd03f75f171a337ull, 0x6c5fa5b8708c2095ull, 0x600f98ab98233825ull}},
    {"hitrate0",
     {0xfacdd550c48e9bbeull, 0xffc4290b1c41dfebull, 0x76475f01bd57b283ull, 0x600f98ab98233825ull}},
    {"hitrate1",
     {0xa00456cb134c2fadull, 0x1fd03f75f171a337ull, 0x53f066bb083c632bull, 0x600f98ab98233825ull}},
    {"hitrate1_5",
     {0xfbc19527482ec485ull, 0x1fd03f75f171a337ull, 0x0887b62a8798f242ull, 0x600f98ab98233825ull}},
    {"warmup0",
     {0x5a8fd8f99fc94149ull, 0x1fd03f75f171a337ull, 0xc18a6a9b646441bdull, 0x600f98ab98233825ull}},
    {"cycle1",
     {0x325a717e46b8cd61ull, 0x1fd03f75f171a337ull, 0x91763ff092e93f76ull, 0x600f98ab98233825ull}},
    {"threshold0",
     {0x9959b01d0c9e2cd5ull, 0x4647a2750d86c1c6ull, 0xc2a0cfb43cef0680ull, 0x600f98ab98233825ull}},
    {"threshold_neg1",
     {0xfbc19527482ec485ull, 0x1fd03f75f171a337ull, 0x0887b62a8798f242ull, 0x600f98ab98233825ull}},
    {"explicit_adaptive",
     {0x0855b992142e1e25ull, 0x1fd03f75f171a337ull, 0x0d171f861a3f757eull, 0x600f98ab98233825ull}},
};

TEST(TransformGoldenTest, ResidualDigestsAreUnchanged) {
  const std::vector<Bytes> inputs = goldenInputs();
  ASSERT_EQ(std::size(kGoldenDigests), kTransformCases.size());
  for (std::size_t c = 0; c < kTransformCases.size(); ++c) {
    const TransformCase& tc = kTransformCases[c];
    ASSERT_STREQ(kGoldenDigests[c].config, tc.name);
    const PredictiveTransform transform(tc.config);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const u64 digest = testing::fnv1a64(transform.forward(inputs[i]));
      EXPECT_EQ(digest, kGoldenDigests[c].digests[i])
          << tc.name << " / " << kGoldenInputNames[i] << ": got 0x" << std::hex << digest
          << "ull";
    }
  }
}

TEST(TransformGoldenTest, Fig3CompressedSizesAreUnchanged) {
  // The exact stream bench_fig3_compression measures (EXPERIMENTS.md E3).
  registerTransformCodecs();
  const Bytes stream = bench::gridWalkStream(100);
  ASSERT_EQ(stream.size(), 12'000'000u);
  const auto gzipish = CodecRegistry::instance().create("transform+gzipish");
  const Bytes compressed = gzipish->compress(stream);
  EXPECT_EQ(compressed.size(), 33'096u);
  EXPECT_EQ(gzipish->decompress(compressed), stream);
  EXPECT_EQ(CodecRegistry::instance().create("transform+bzip2ish")->compress(stream).size(),
            952u);
}

TEST(TransformTest, GridWalkResidualsAreMostlyZero) {
  // The whole point of §III: a serialized grid walk becomes almost all zeros.
  const Bytes stream = testing::gridWalkTriples(20, 20, 20);
  const PredictiveTransform transform(TransformConfig{.max_stride = 100});
  const Bytes residuals = transform.forward(stream);
  EXPECT_GT(zeroFraction(residuals), 0.95);
  EXPECT_LT(zeroFraction(stream), 0.80);
}

TEST(TransformTest, NamedKeyStreamResidualsAreMostlyZero) {
  const Bytes stream = testing::namedKeyStream("windspeed1", 50, 50, 2.0f);
  const PredictiveTransform transform(TransformConfig{.max_stride = 100});
  EXPECT_GT(zeroFraction(transform.forward(stream)), 0.90);
}

TEST(TransformTest, FixedStride12OnTripleStream) {
  // Keys of 12 serialized bytes: the paper's "single stride length of 12".
  const Bytes stream = testing::gridWalkTriples(16, 16, 16);
  const PredictiveTransform transform(
      TransformConfig{.explicit_strides = {12}, .adaptive = false});
  const Bytes residuals = transform.forward(stream);
  EXPECT_GT(zeroFraction(residuals), 0.9);
  EXPECT_EQ(transform.inverse(residuals), stream);
}

TEST(StrideHintsTest, RecordLengthArithmetic) {
  // The Fig. 2 stream: Text("windspeed1") + 2 coords + f32 value = 23 bytes.
  EXPECT_EQ(recordLengthForKeyStream(10, /*nameMode=*/true, 2, 4), 23u);
  // Index mode, 4-D keys, f32 value: 4 + 16 + 4 = 24.
  EXPECT_EQ(recordLengthForKeyStream(0, /*nameMode=*/false, 4, 4), 24u);
  // Inside an IFile each record pays 2 vint length bytes (small records).
  EXPECT_EQ(recordLengthInIFile(20, 4), 26u);
}

TEST(StrideHintsTest, MetadataConfigMatchesDetectedStride) {
  // A transform seeded purely from metadata must predict the named key
  // stream as well as the adaptive detector does.
  const Bytes stream = testing::namedKeyStream("windspeed1", 40, 40, 1.0f);
  const std::size_t record = recordLengthForKeyStream(10, true, 2, 4);
  const PredictiveTransform hinted(configFromMetadata(record));
  const Bytes residuals = hinted.forward(stream);
  EXPECT_GT(zeroFraction(residuals), 0.9);
  EXPECT_EQ(hinted.inverse(residuals), stream);
}

TEST(StrideHintsTest, ConfigValidation) {
  EXPECT_THROW(configFromMetadata(0), std::logic_error);
  const auto config = configFromMetadata(23, 3);
  EXPECT_EQ(config.explicit_strides, (std::vector<int>{23, 46, 69}));
  EXPECT_FALSE(config.adaptive);
}

TEST(TransformCodecTest, RoundTripsAndRegisters) {
  registerTransformCodecs();
  for (const char* name : {"transform+gzipish", "transform+bzip2ish"}) {
    const auto codec = CodecRegistry::instance().create(name);
    EXPECT_EQ(codec->name(), name);
    for (const auto& data :
         {testing::gridWalkTriples(15, 15, 15), testing::randomBytes(30000, 7)}) {
      EXPECT_EQ(codec->decompress(codec->compress(data)), data);
    }
  }
}

TEST(TransformCodecTest, StrideSpansCarryPredictedBytes) {
  // The kernel's predicted-byte count rides on both transform spans and
  // folds into a size histogram like every other *bytes arg.
  const Bytes stream = testing::gridWalkTriples(15, 15, 15);
  u64 expected = 0;
  StrideModel reference(TransformConfig{});
  for (const u8 x : stream) {
    if (reference.predict()) ++expected;
    reference.consume(x);
  }
  ASSERT_GT(expected, 0u);

  registerTransformCodecs();
  const auto codec = CodecRegistry::instance().create("transform+gzipish");
  obs::TraceRecorder recorder;
  obs::setActiveTrace(&recorder);
  const Bytes restored = codec->decompress(codec->compress(stream));
  obs::setActiveTrace(nullptr);
  EXPECT_EQ(restored, stream);

  const std::vector<obs::Span> spans = recorder.snapshot();
  for (const char* name : {"stride_forward", "stride_inverse"}) {
    const auto span = std::find_if(spans.begin(), spans.end(),
                                   [&](const obs::Span& s) { return s.name == name; });
    ASSERT_NE(span, spans.end()) << name;
    EXPECT_NE(std::find(span->args.begin(), span->args.end(),
                        std::pair<std::string, u64>{"predicted_bytes", expected}),
              span->args.end())
        << name;
  }
  const obs::JobTelemetry telemetry = obs::telemetryFromSpans(spans);
  const obs::HistogramSnapshot* h = telemetry.findHistogram("stride_forward.predicted_bytes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->sum, expected);
}

TEST(TransformCodecTest, TransformBeatsPlainCompressionOnKeyStreams) {
  registerTransformCodecs();
  const Bytes stream = testing::gridWalkTriples(30, 30, 30);
  const auto plain = CodecRegistry::instance().create("gzipish");
  const auto composed = CodecRegistry::instance().create("transform+gzipish");
  const auto plainSize = plain->compress(stream).size();
  const auto composedSize = composed->compress(stream).size();
  EXPECT_LT(composedSize * 2, plainSize);  // at least 2x better on key streams
}

// The batch entry points must be observably identical to stepping the
// scalar reference predict()/consume() byte by byte — same outputs AND the
// same final model state (offset, and the active list in order, since the
// predictor's tie-break depends on list order), under every config of the
// golden matrix.
TEST(StrideModelTest, ForwardBatchMatchesScalarReference) {
  const std::vector<Bytes> inputs = goldenInputs();
  for (const TransformCase& tc : kTransformCases) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << tc.name << " / " << kGoldenInputNames[i]);
      const Bytes& data = inputs[i];
      StrideModel batch(tc.config);
      StrideModel scalar(tc.config);

      Bytes batchOut(data.size());
      batch.forwardBatch(data.data(), batchOut.data(), data.size());

      Bytes scalarOut;
      scalarOut.reserve(data.size());
      for (const u8 x : data) {
        const auto p = scalar.predict();
        scalarOut.push_back(p ? static_cast<u8>(x - *p) : x);
        scalar.consume(x);
      }

      ASSERT_EQ(batchOut, scalarOut);
      EXPECT_EQ(batch.offset(), scalar.offset());
      EXPECT_EQ(batch.activeStrides(), scalar.activeStrides());
    }
  }
}

TEST(StrideModelTest, InverseBatchMatchesScalarReference) {
  const std::vector<Bytes> inputs = goldenInputs();
  for (const TransformCase& tc : kTransformCases) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << tc.name << " / " << kGoldenInputNames[i]);
      const Bytes& original = inputs[i];

      // Residuals from the forward pass feed both inverse implementations.
      StrideModel fwd(tc.config);
      Bytes residuals(original.size());
      fwd.forwardBatch(original.data(), residuals.data(), original.size());

      StrideModel batch(tc.config);
      Bytes batchOut(residuals.size());
      batch.inverseBatch(residuals.data(), batchOut.data(), residuals.size());

      StrideModel scalar(tc.config);
      Bytes scalarOut;
      scalarOut.reserve(residuals.size());
      for (const u8 y : residuals) {
        const auto p = scalar.predict();
        const u8 x = p ? static_cast<u8>(y + *p) : y;
        scalarOut.push_back(x);
        scalar.consume(x);
      }

      ASSERT_EQ(batchOut, original);  // the inverse really inverts
      ASSERT_EQ(scalarOut, original);
      EXPECT_EQ(batch.offset(), scalar.offset());
      EXPECT_EQ(batch.activeStrides(), scalar.activeStrides());
    }
  }
}

TEST(StrideModelTest, InverseBatchSplitPointsDoNotChangeResults) {
  // inverseBatch(a) then inverseBatch(b) == inverseBatch(a+b), the decode
  // side of the chunking invariance below.
  const Bytes data = testing::gridWalkTriples(10, 10, 10);
  TransformConfig config;
  config.max_stride = 32;

  StrideModel fwd(config);
  Bytes residuals(data.size());
  fwd.forwardBatch(data.data(), residuals.data(), data.size());

  for (const std::size_t split : {std::size_t{1}, data.size() / 3, data.size() - 1}) {
    StrideModel parts(config);
    Bytes partsOut(data.size());
    parts.inverseBatch(residuals.data(), partsOut.data(), split);
    parts.inverseBatch(residuals.data() + split, partsOut.data() + split, data.size() - split);
    EXPECT_EQ(partsOut, data) << "split at " << split;
  }
}

TEST(StrideModelTest, BatchSplitPointsDoNotChangeResults) {
  // forwardBatch(a) then forwardBatch(b) == forwardBatch(a+b): the model
  // carries all state across batch boundaries (the streaming transform
  // depends on this chunking invariance).
  const Bytes data = testing::gridWalkTriples(10, 10, 10);
  TransformConfig config;
  config.max_stride = 32;

  StrideModel whole(config);
  Bytes wholeOut(data.size());
  whole.forwardBatch(data.data(), wholeOut.data(), data.size());

  for (const std::size_t split : {std::size_t{1}, data.size() / 3, data.size() - 1}) {
    StrideModel parts(config);
    Bytes partsOut(data.size());
    parts.forwardBatch(data.data(), partsOut.data(), split);
    parts.forwardBatch(data.data() + split, partsOut.data() + split, data.size() - split);
    EXPECT_EQ(partsOut, wholeOut) << "split at " << split;
  }
}

}  // namespace
}  // namespace scishuffle::transform
