//===- nn/BatchNorm2d.h - Batch normalization ------------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_BATCHNORM2D_H
#define OPPSLA_NN_BATCHNORM2D_H

#include "nn/Layer.h"

#include <vector>

namespace oppsla {

/// Per-channel batch normalization over NCHW tensors.
///
/// Training mode normalizes with batch statistics and updates running
/// mean/var with exponential momentum (so a Train forward moves the
/// parameter generation); inference mode uses the running statistics (the
/// mode the attack queries always hit).
class BatchNorm2d : public Layer {
public:
  explicit BatchNorm2d(size_t Channels, float Momentum = 0.1f,
                       float Eps = 1e-5f);

  Tensor forward(const Tensor &In, bool Train) override;
  Tensor backward(const Tensor &GradOut) override;
  void collectParams(const std::string &Prefix,
                     std::vector<ParamRef> &Params) override;
  void collectBuffers(const std::string &Prefix,
                      std::vector<std::pair<std::string, Tensor *>> &Buffers)
      override;
  std::string name() const override { return "batchnorm2d"; }

  /// The per-channel affine form of inference-mode normalization:
  /// out = fma(in, Scale[c], Shift[c]), with Scale and Shift of channels()
  /// entries each. Both the unfused inference forward and Conv2d's fused
  /// GEMM epilogue read their coefficients from this one fold, so the two
  /// paths are bit-identical by construction. Folded from the running
  /// statistics once per parameter generation (nn/Layer.h); the pointers
  /// stay valid until the next call.
  struct Affine {
    const float *Scale;
    const float *Shift;
  };
  Affine inferenceAffine();

  size_t channels() const { return Channels; }
  /// Mutable access moves the parameter generation, so the next inference
  /// forward refolds.
  Tensor &runningMean() {
    bumpParamGeneration();
    return RunningMean;
  }
  Tensor &runningVar() {
    bumpParamGeneration();
    return RunningVar;
  }

private:
  size_t Channels;
  float Momentum, Eps;
  Tensor Gamma, GammaGrad; ///< scale, {C}
  Tensor Beta, BetaGrad;   ///< shift, {C}
  Tensor RunningMean, RunningVar;
  // Cached training-forward state.
  Tensor CachedXHat;   ///< normalized input, same shape as In
  Tensor CachedInvStd; ///< {C}
  size_t CachedN = 0, CachedH = 0, CachedW = 0;
  // The folded inference affine, built at parameter generation AffineGen
  // (0 before the first fold).
  std::vector<float> AffineScale, AffineShift;
  uint64_t AffineGen = 0;
};

} // namespace oppsla

#endif // OPPSLA_NN_BATCHNORM2D_H
