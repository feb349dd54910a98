//===- nn/Blocks.h - Composite CNN building blocks -------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Composite blocks mirroring the architecture families the paper attacks:
/// VGG-style conv stacks (plain Sequential), ResNet-style residual blocks,
/// GoogLeNet-style inception blocks (parallel branches concatenated over
/// channels), and DenseNet-style dense blocks (input concatenated with the
/// branch output). Each block is itself a Layer with a full backward pass.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_BLOCKS_H
#define OPPSLA_NN_BLOCKS_H

#include "nn/Sequential.h"

namespace oppsla {

class Rng;

/// Builds the ubiquitous Conv -> BatchNorm -> ReLU unit.
LayerPtr convBnRelu(size_t InC, size_t OutC, size_t Kernel, size_t Stride,
                    size_t Pad, Rng &R);

/// Residual block: Out = ReLU(F(In) + Proj(In)) where F is two
/// conv-bn(-relu) units and Proj is identity or a 1x1 conv when shape or
/// stride changes.
class ResidualBlock : public Layer {
public:
  ResidualBlock(size_t InC, size_t OutC, size_t Stride, Rng &R);

  Tensor forward(const Tensor &In, bool Train) override;
  /// Body and Proj run as delta forwards; the sum's window is the union of
  /// theirs, and the add and ReLU run over the whole map.
  Tensor forwardDelta(const Tensor &In, DeltaPass &Pass,
                      const Tensor &Ref) override;
  Tensor backward(const Tensor &GradOut) override;
  void collectParams(const std::string &Prefix,
                     std::vector<ParamRef> &Params) override;
  void collectBuffers(const std::string &Prefix,
                      std::vector<std::pair<std::string, Tensor *>> &Buffers)
      override;
  std::string name() const override { return "residual"; }

private:
  /// forward (\p Pass null) or forwardDelta.
  Tensor run(const Tensor &In, bool Train, DeltaPass *Pass);

  Sequential Body;           ///< conv-bn-relu, conv-bn
  std::unique_ptr<Sequential> Proj; ///< 1x1 conv-bn when shapes differ
  Tensor CachedSum;          ///< pre-activation sum for the final ReLU
};

/// Inception-style block: parallel branches over the same input whose
/// outputs are concatenated along the channel dimension.
class InceptionBlock : public Layer {
public:
  /// Branches: 1x1 conv, 3x3 conv (with 1x1 reduce), 5x5 conv (with 1x1
  /// reduce). Channel counts are per branch output.
  InceptionBlock(size_t InC, size_t C1x1, size_t C3x3, size_t C5x5, Rng &R);

  Tensor forward(const Tensor &In, bool Train) override;
  /// Every branch runs as a delta forward; the output window is the union
  /// of the branches' windows.
  Tensor forwardDelta(const Tensor &In, DeltaPass &Pass,
                      const Tensor &Ref) override;
  Tensor backward(const Tensor &GradOut) override;
  void collectParams(const std::string &Prefix,
                     std::vector<ParamRef> &Params) override;
  void collectBuffers(const std::string &Prefix,
                      std::vector<std::pair<std::string, Tensor *>> &Buffers)
      override;
  std::string name() const override { return "inception"; }

  size_t outChannels() const { return OutC; }

private:
  /// forward (\p Pass null) or forwardDelta.
  Tensor run(const Tensor &In, bool Train, DeltaPass *Pass);

  std::vector<std::unique_ptr<Sequential>> Branches;
  std::vector<size_t> BranchChannels;
  size_t OutC;
};

/// DenseNet-style layer: Out = concat(In, G(In)) where G produces
/// \p Growth channels via conv-bn-relu. Stacking these forms a dense block.
class DenseLayer : public Layer {
public:
  DenseLayer(size_t InC, size_t Growth, Rng &R);

  Tensor forward(const Tensor &In, bool Train) override;
  /// The body runs as a delta forward; the output window is the union of
  /// the input's window and the body's.
  Tensor forwardDelta(const Tensor &In, DeltaPass &Pass,
                      const Tensor &Ref) override;
  Tensor backward(const Tensor &GradOut) override;
  void collectParams(const std::string &Prefix,
                     std::vector<ParamRef> &Params) override;
  void collectBuffers(const std::string &Prefix,
                      std::vector<std::pair<std::string, Tensor *>> &Buffers)
      override;
  std::string name() const override { return "dense_layer"; }

  size_t outChannels() const { return InC + Growth; }

private:
  /// forward (\p Pass null) or forwardDelta.
  Tensor run(const Tensor &In, bool Train, DeltaPass *Pass);

  size_t InC, Growth;
  Sequential Body;
};

} // namespace oppsla

#endif // OPPSLA_NN_BLOCKS_H
