//===- data/Image.h - RGB image value type ---------------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The image type the attacks operate on: float RGB in [0,1], HWC layout.
/// Matches the paper's formalization x in [0,1]^{d1 x d2 x 3}. One-pixel
/// perturbation (`x[l <- p]`) is a single setPixel call on a copy.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_DATA_IMAGE_H
#define OPPSLA_DATA_IMAGE_H

#include "tensor/Tensor.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace oppsla {

/// One RGB pixel with channels in [0,1].
struct Pixel {
  float R = 0.0f, G = 0.0f, B = 0.0f;

  bool operator==(const Pixel &Other) const {
    return R == Other.R && G == Other.G && B == Other.B;
  }

  /// L1 distance between pixel values — the paper's pixel metric.
  float l1Distance(const Pixel &Other) const;

  /// Largest channel value.
  float maxChannel() const;
  /// Smallest channel value.
  float minChannel() const;
  /// Mean channel value.
  float avgChannel() const { return (R + G + B) / 3.0f; }
};

/// Dense float RGB image, HWC layout, values in [0,1].
class Image {
public:
  Image() = default;
  Image(size_t Height, size_t Width)
      : H(Height), W(Width), Data(Height * Width * 3, 0.0f) {}

  size_t height() const { return H; }
  size_t width() const { return W; }
  size_t numPixels() const { return H * W; }
  bool empty() const { return Data.empty(); }

  Pixel pixel(size_t Row, size_t Col) const {
    const float *P = at(Row, Col);
    return Pixel{P[0], P[1], P[2]};
  }

  void setPixel(size_t Row, size_t Col, const Pixel &Value) {
    float *P = at(Row, Col);
    P[0] = Value.R;
    P[1] = Value.G;
    P[2] = Value.B;
  }

  /// Returns a copy with pixel (\p Row, \p Col) replaced by \p Value —
  /// the paper's x[l <- p].
  Image withPixel(size_t Row, size_t Col, const Pixel &Value) const {
    Image Out = *this;
    Out.setPixel(Row, Col, Value);
    return Out;
  }

  /// Clamps every channel into [0,1].
  void clamp();

  /// Converts to a {1, 3, H, W} NCHW tensor for the nn substrate.
  Tensor toTensor() const;

  /// Writes this image's channels into an existing {1,3,H,W} tensor
  /// without allocation; shapes must match.
  void writeToTensor(Tensor &Out) const;

  /// Writes this image into slot \p Index of an existing {N,3,H,W} batch
  /// tensor (the assembly step of a batched forward).
  void writeToTensorBatch(Tensor &Out, size_t Index) const;

  /// Builds an image from a {1, 3, H, W} or {3, H, W} tensor.
  static Image fromTensor(const Tensor &T);

  const std::vector<float> &raw() const { return Data; }
  std::vector<float> &raw() { return Data; }

  /// Stable 64-bit hash of the image's shape and pixel bytes (FNV-1a).
  /// Randomized attacks derive their per-run RNG stream from this (see
  /// support/Rng.h: Rng::deriveRunSeed), making every attack run a pure
  /// function of (attack seed, image) — independent of how the image is
  /// ordered or subset within a sweep.
  uint64_t contentHash() const;

  /// True when \p Other has this image's shape and pixel bytes. Bytes, not
  /// float ==, so -0.0f and NaN payloads compare the way they hash.
  bool sameBytes(const Image &Other) const;

private:
  const float *at(size_t Row, size_t Col) const {
    assert(Row < H && Col < W && "pixel out of range");
    return Data.data() + (Row * W + Col) * 3;
  }
  float *at(size_t Row, size_t Col) {
    assert(Row < H && Col < W && "pixel out of range");
    return Data.data() + (Row * W + Col) * 3;
  }

  size_t H = 0, W = 0;
  std::vector<float> Data;
};

/// A labeled image classification dataset.
struct Dataset {
  std::vector<Image> Images;
  std::vector<size_t> Labels;
  size_t NumClasses = 0;

  size_t size() const { return Images.size(); }

  /// Returns the subset with the given label (copies).
  Dataset filterByClass(size_t Label) const;

  /// Appends all items of \p Other (class counts must agree).
  void append(const Dataset &Other);
};

} // namespace oppsla

#endif // OPPSLA_DATA_IMAGE_H
