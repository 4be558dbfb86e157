#include "transform/predictive_transform.h"

#include "io/buffer_pool.h"

namespace scishuffle::transform {

namespace {
constexpr std::size_t kChunk = 64 * 1024;
}

u64 PredictiveTransform::forward(ByteSource& in, ByteSink& out) const {
  StrideModel model(config_);
  auto inBuf = sharedBytePool().lease(kChunk);
  auto outBuf = sharedBytePool().lease(kChunk);
  inBuf->resize(kChunk);
  u64 predicted = 0;
  for (;;) {
    const std::size_t n = in.read(MutableByteSpan(inBuf->data(), inBuf->size()));
    if (n == 0) break;
    outBuf->resize(n);
    predicted += model.forwardBatch(inBuf->data(), outBuf->data(), n);
    out.write(ByteSpan(outBuf->data(), n));
  }
  return predicted;
}

u64 PredictiveTransform::inverse(ByteSource& in, ByteSink& out) const {
  StrideModel model(config_);
  auto inBuf = sharedBytePool().lease(kChunk);
  auto outBuf = sharedBytePool().lease(kChunk);
  inBuf->resize(kChunk);
  u64 predicted = 0;
  for (;;) {
    const std::size_t n = in.read(MutableByteSpan(inBuf->data(), inBuf->size()));
    if (n == 0) break;
    outBuf->resize(n);
    predicted += model.inverseBatch(inBuf->data(), outBuf->data(), n);
    out.write(ByteSpan(outBuf->data(), n));
  }
  return predicted;
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
