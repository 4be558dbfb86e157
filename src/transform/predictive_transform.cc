#include "transform/predictive_transform.h"

namespace scishuffle::transform {

namespace {
constexpr std::size_t kChunk = 64 * 1024;

/// Streams `in` through one of StrideModel's batch kernels, kChunk at a time.
template <typename Batch>
u64 pump(ByteSource& in, ByteSink& out, Batch batch) {
  Bytes inBuf(kChunk);
  Bytes outBuf(kChunk);
  u64 predicted = 0;
  while (const std::size_t n = in.read(MutableByteSpan(inBuf))) {
    predicted += batch(inBuf.data(), outBuf.data(), n);
    out.write(ByteSpan(outBuf.data(), n));
  }
  return predicted;
}
}  // namespace

u64 PredictiveTransform::forward(ByteSource& in, ByteSink& out) const {
  StrideModel model(config_);
  return pump(in, out, [&](const u8* src, u8* dst, std::size_t n) {
    return model.forwardBatch(src, dst, n);
  });
}

u64 PredictiveTransform::inverse(ByteSource& in, ByteSink& out) const {
  StrideModel model(config_);
  return pump(in, out, [&](const u8* src, u8* dst, std::size_t n) {
    return model.inverseBatch(src, dst, n);
  });
}

Bytes PredictiveTransform::forward(ByteSpan data, u64* predictedBytes) const {
  MemorySource in(data);
  Bytes out;
  out.reserve(data.size());
  MemorySink sink(out);
  const u64 predicted = forward(in, sink);
  if (predictedBytes != nullptr) *predictedBytes = predicted;
  return out;
}

Bytes PredictiveTransform::inverse(ByteSpan data, u64* predictedBytes) const {
  MemorySource in(data);
  Bytes out;
  out.reserve(data.size());
  MemorySink sink(out);
  const u64 predicted = inverse(in, sink);
  if (predictedBytes != nullptr) *predictedBytes = predicted;
  return out;
}

}  // namespace scishuffle::transform
