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

#include "io/streams.h"
#include "transform/stride_model.h"

namespace scishuffle::transform {

class PredictiveTransform {
 public:
  explicit PredictiveTransform(TransformConfig config = {}) : config_(std::move(config)) {}

  /// Streaming forward transform; output size == input size. Returns how
  /// many bytes the model predicted.
  u64 forward(ByteSource& in, ByteSink& out) const;

  /// Streaming inverse transform. Returns how many bytes were predicted.
  u64 inverse(ByteSource& in, ByteSink& out) const;

  /// Buffer conveniences; `predictedBytes`, when non-null, receives the
  /// predicted-byte count.
  Bytes forward(ByteSpan data, u64* predictedBytes = nullptr) const;
  Bytes inverse(ByteSpan data, u64* predictedBytes = nullptr) const;

  const TransformConfig& config() const { return config_; }

 private:
  TransformConfig config_;
};

}  // namespace scishuffle::transform
