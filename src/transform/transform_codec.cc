#include "transform/transform_codec.h"

#include "compress/bzip2ish.h"
#include "compress/deflate.h"
#include "obs/trace.h"

namespace scishuffle {

Bytes TransformCodec::compress(ByteSpan data) const {
  Bytes residuals;
  {
    obs::ScopedSpan span("stride_forward", "transform");
    span.arg("raw_bytes", data.size());
    u64 predicted = 0;
    residuals = transform_.forward(data, &predicted);
    span.arg("predicted_bytes", predicted);
  }
  return inner_->compress(residuals);
}

Bytes TransformCodec::decompress(ByteSpan data) const {
  const Bytes residuals = inner_->decompress(data);
  obs::ScopedSpan span("stride_inverse", "transform");
  span.arg("raw_bytes", residuals.size());
  u64 predicted = 0;
  Bytes original = transform_.inverse(residuals, &predicted);
  span.arg("predicted_bytes", predicted);
  return original;
}

void registerTransformCodecs() {
  registerBuiltinCodecs();
  auto& r = CodecRegistry::instance();
  r.registerCodec("transform+gzipish", [] {
    return std::make_unique<TransformCodec>(std::make_unique<DeflateCodec>());
  });
  r.registerCodec("transform+bzip2ish", [] {
    return std::make_unique<TransformCodec>(std::make_unique<Bzip2ishCodec>());
  });
}

}  // namespace scishuffle
