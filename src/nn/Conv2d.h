//===- nn/Conv2d.h - 2-D convolution layer ---------------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_CONV2D_H
#define OPPSLA_NN_CONV2D_H

#include "nn/Layer.h"
#include "tensor/Gemm.h"

#include <vector>

namespace oppsla {

class BatchNorm2d;
class Rng;

/// 2-D convolution over NCHW tensors.
///
/// Weight shape is {OutC, InC * KH * KW} (each output channel is one GEMM
/// row); bias is {OutC}. Kaiming-normal initialization.
///
/// Fast inference forwards on narrow output maps, and every delta
/// forward, run the direct kernel (convDirect) over a zero-bordered patch
/// of the input; fast full forwards on wide maps lower through
/// oppsla::im2col into the packed GEMM; training and --naive-kernels run
/// im2col + matmul, the reference (DESIGN.md §12).
class Conv2d : public Layer {
public:
  Conv2d(size_t InC, size_t OutC, size_t Kernel, size_t Stride, size_t Pad,
         Rng &R, bool HasBias = true);

  Tensor forward(const Tensor &In, bool Train) override;

  /// Inference-only fused forward: conv + optional BatchNorm affine +
  /// optional ReLU in a single packed-GEMM pass (the epilogue runs while
  /// each output tile is still in registers). Only called by Sequential's
  /// fusion plan when fast kernels are enabled; bit-identical to running
  /// the unfused layers in sequence (DESIGN.md §12).
  Tensor forwardFused(const Tensor &In, BatchNorm2d *Bn, bool Relu);

  /// Delta flavor of forwardFused (Layer::forwardDelta): the direct
  /// kernel recomputes only the output pixels inside each item's dirty
  /// window, with the same fused epilogue, straight into that item's copy
  /// of \p Ref. Each output element is the same fma chain as in
  /// forwardFused, so the bytes are identical.
  Tensor forwardFusedDelta(const Tensor &In, BatchNorm2d *Bn, bool Relu,
                           DeltaPass &Pass, const Tensor &Ref);

  Tensor backward(const Tensor &GradOut) override;
  void collectParams(const std::string &Prefix,
                     std::vector<ParamRef> &Params) override;
  std::string name() const override { return "conv2d"; }

  size_t inChannels() const { return InC; }
  size_t outChannels() const { return OutC; }
  size_t kernel() const { return Kernel; }
  size_t stride() const { return Stride; }
  size_t padding() const { return Pad; }

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

  /// How many times the inference scratch buffers had to grow. With
  /// capacity-based reuse this stays at the high-water mark count (engine
  /// full batches + one tail size allocate at most twice), not once per
  /// batch-size change; regression-tested in tests/nn/LayerBehaviorTest.
  size_t scratchReallocs() const { return ScratchReallocCount; }

private:
  /// {N, OutC, OH, OW} for input \p In.
  Shape outputShape(const Tensor &In) const;
  /// im2col of \p In into CachedCols (training, recorded for backward) or
  /// ScratchCols, capacity-reusing.
  const Tensor &lower(const Tensor &In, bool Train);
  /// Runs convDirect over output window \p Win of one batch item: \p Item
  /// is its {InC, H, W} input, \p OutItem its {OutC, OH, OW} output. Reads
  /// the input in place when the window's receptive field lies inside the
  /// map, else a copy of the field in Patch, zero outside the map.
  void directWindow(const float *Item, size_t H, size_t W,
                    const DeltaWindow &Win, float *OutItem, size_t OH,
                    size_t OW, const GemmEpilogue &Ep);
  /// Pack Weight for the GEMM (PackedWeight) and the direct kernel
  /// (DirectWeight), each unless already packed at the current parameter
  /// generation.
  void packWeight();
  void packDirectWeight();
  /// The fused epilogue for this layer's bias plus \p Bn's folded affine
  /// and \p Relu.
  GemmEpilogue fusedEpilogue(BatchNorm2d *Bn, bool Relu);
  /// Counts a scratch growth event in the layer and in telemetry.
  void noteScratchRealloc(bool Grew);

  size_t InC, OutC, Kernel, Stride, Pad;
  bool HasBias;
  Tensor Weight, WeightGrad;
  Tensor Bias, BiasGrad;
  // Cached forward state for backward.
  Tensor CachedCols; ///< im2col matrix of the last training input
  size_t CachedN = 0, CachedH = 0, CachedW = 0;
  // Scratch reused across inference calls; resized capacity-preserving so
  // alternating batch shapes do not thrash the allocator.
  Tensor ScratchCols, ScratchOut;
  size_t ScratchReallocCount = 0;
  // Receptive-field patch of the direct kernel's current window.
  std::vector<float> Patch;
  // Weight packed into MR-row panels for the GEMM and k-major for the
  // direct kernel, each built by the first forward that needs it and
  // rebuilt only once the parameter generation has moved (PackedGen and
  // DirectGen: the generation each was built at, 0 before the first).
  std::vector<float> PackedWeight, DirectWeight;
  uint64_t PackedGen = 0, DirectGen = 0;
};

} // namespace oppsla

#endif // OPPSLA_NN_CONV2D_H
