#include "transform/predictive_transform.h"

namespace scishuffle::transform {

Bytes PredictiveTransform::forward(ByteSpan data, u64* predictedBytes) const {
  StrideModel model(config_);
  Bytes out(data.size());
  const u64 predicted = model.forwardBatch(data.data(), out.data(), data.size());
  if (predictedBytes != nullptr) *predictedBytes = predicted;
  return out;
}

Bytes PredictiveTransform::inverse(ByteSpan data, u64* predictedBytes) const {
  StrideModel model(config_);
  Bytes out(data.size());
  const u64 predicted = model.inverseBatch(data.data(), out.data(), data.size());
  if (predictedBytes != nullptr) *predictedBytes = predicted;
  return out;
}

}  // namespace scishuffle::transform
