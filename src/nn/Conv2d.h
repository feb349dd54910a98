//===- nn/Conv2d.h - 2-D convolution layer ---------------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_CONV2D_H
#define OPPSLA_NN_CONV2D_H

#include "nn/Layer.h"
#include "tensor/Gemm.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace oppsla {

class BatchNorm2d;
class Rng;

/// 2-D convolution over NCHW tensors, lowered to GEMM via im2col.
///
/// Weight shape is {OutC, InC * KH * KW} (each output channel is one GEMM
/// row); bias is {OutC}. Kaiming-normal initialization.
///
/// Fast inference forwards on narrow output maps, and every delta
/// forward, fill the GEMM's im2col matrix from a gather table built once
/// per input geometry; training, --naive-kernels and full forwards on
/// wide maps run oppsla::im2col, the reference lowering (DESIGN.md §12).
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
  Tensor forwardFused(const Tensor &In, const BatchNorm2d *Bn, bool Relu);

  /// Delta flavor of forwardFused (Layer::forwardDelta): the gather table
  /// fills only the output columns inside the dirty windows, every delta
  /// item of the batch shares one packed GEMM with the same fused
  /// epilogue, and the results are scattered over copies of \p Ref. Each
  /// output element is the same fma chain as in forwardFused, so the bytes
  /// are identical.
  Tensor forwardFusedDelta(const Tensor &In, const BatchNorm2d *Bn, bool Relu,
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

  Tensor &weight() { return Weight; }
  Tensor &bias() { return Bias; }

  /// How many times the inference scratch buffers had to grow. With
  /// capacity-based reuse this stays at the high-water mark count (engine
  /// full batches + one tail size allocate at most twice), not once per
  /// batch-size change; regression-tested in tests/nn/LayerBehaviorTest.
  size_t scratchReallocs() const { return ScratchReallocCount; }

private:
  /// Lower \p In into \p Cols (capacity-reusing) and return the
  /// {N,OutC,OH,OW} output tensor shell shared by all forward flavors.
  /// Fast inference on narrow maps walks the gather table, everything else
  /// runs im2col; both write the same bytes.
  Tensor prepareForward(const Tensor &In, bool Train, size_t &N, size_t &OH,
                        size_t &OW, Tensor *&Cols);
  /// The gather table for an H x W input, rebuilt when the geometry
  /// changed since the last call.
  const int32_t *gatherTable(size_t H, size_t W, size_t OH, size_t OW);
  void packWeight();
  /// The fused epilogue for this layer's bias plus \p Bn and \p Relu.
  GemmEpilogue fusedEpilogue(const BatchNorm2d *Bn, bool Relu);
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
  // Gather table of the last fast inference geometry (GatherH x GatherW):
  // entry Row * OH*OW + P is the offset inside one {InC, H, W} batch item
  // of the value im2col writes at row Row for output pixel P, or -1 where
  // that value is zero padding. Models are cloned per worker thread, so
  // the lazy rebuild races nothing.
  std::vector<int32_t> GatherTable;
  size_t GatherH = 0, GatherW = 0;
  // (input item offset, output pixel) of each dirty column of a delta
  // forward, item-major, each window row-major.
  std::vector<std::pair<size_t, size_t>> DirtyColumns;
  // Fast-kernel scratch: Weight packed into MR-row panels (rebuilt every
  // forward — packing is O(M*K) against the GEMM's O(M*K*N), and the
  // optimizer mutates Weight in place between forwards) and the folded
  // BatchNorm affine coefficients for the fused epilogue.
  std::vector<float> PackedWeight;
  std::vector<float> FusedScale, FusedShift;
};

} // namespace oppsla

#endif // OPPSLA_NN_CONV2D_H
