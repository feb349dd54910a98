//===- nn/Linear.h - Fully connected layer ---------------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_LINEAR_H
#define OPPSLA_NN_LINEAR_H

#include "nn/Layer.h"

#include <vector>

namespace oppsla {

class Rng;

/// Fully connected layer: Out = In * W^T + b over a {N, InF} batch.
/// Rank-4 inputs are accepted and flattened per sample.
class Linear : public Layer {
public:
  Linear(size_t InF, size_t OutF, Rng &R);

  Tensor forward(const Tensor &In, bool Train) override;
  Tensor backward(const Tensor &GradOut) override;
  void collectParams(const std::string &Prefix,
                     std::vector<ParamRef> &Params) override;
  std::string name() const override { return "linear"; }

  size_t inFeatures() const { return InF; }
  size_t outFeatures() const { return OutF; }
  /// Mutable access moves the parameter generation (nn/Layer.h), so the
  /// next inference forward repacks.
  Tensor &weight() {
    bumpParamGeneration();
    return Weight;
  }
  Tensor &bias() {
    bumpParamGeneration();
    return Bias;
  }

private:
  size_t InF, OutF;
  Tensor Weight, WeightGrad; ///< {OutF, InF}
  Tensor Bias, BiasGrad;     ///< {OutF}
  Tensor CachedIn;           ///< {N, InF} from the last training forward
  // The packed-GEMM path's tile-major weight pack, built at parameter
  // generation PackedGen (0 before the first) and rebuilt only once the
  // generation has moved, and its {InF, N} input transpose, reused across
  // calls.
  std::vector<float> PackedWeight;
  uint64_t PackedGen = 0;
  std::vector<float> ScratchInT;
};

} // namespace oppsla

#endif // OPPSLA_NN_LINEAR_H
