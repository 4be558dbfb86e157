// The §III byte-level transform: subtract stride-model predictions from the
// input so a generic compressor downstream sees long runs of (mostly) zeros
// instead of almost-identical-but-drifting key bytes (predictive coding).
//
//   forward:  y_i = x_i - x̂_i        where x̂_i = x_{i-s} + δ   (eq. 3)
//   inverse:  x_i = y_i + x_{i-s} + δ                            (eq. 4)
//
// The model on both sides is driven by original-stream bytes, so forward and
// inverse stay in lockstep; the transform has constant-size state and is
// strictly streaming (linear time — Fig. 4).
#pragma once

#include "io/common.h"
#include "transform/stride_model.h"

namespace scishuffle::transform {

class PredictiveTransform {
 public:
  explicit PredictiveTransform(TransformConfig config = {}) : config_(std::move(config)) {}

  /// Forward and inverse transform of a whole buffer, each from a fresh
  /// model; output size == input size. `predictedBytes`, when non-null,
  /// receives how many bytes the model predicted.
  Bytes forward(ByteSpan data, u64* predictedBytes = nullptr) const;
  Bytes inverse(ByteSpan data, u64* predictedBytes = nullptr) const;

  const TransformConfig& config() const { return config_; }

 private:
  TransformConfig config_;
};

}  // namespace scishuffle::transform
