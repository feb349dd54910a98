//===- nn/Conv2d.cpp - 2-D convolution layer -------------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/Conv2d.h"

#include "nn/BatchNorm2d.h"
#include "nn/Init.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "tensor/Gemm.h"
#include "tensor/TensorOps.h"

#include <cmath>

using namespace oppsla;

namespace {

/// Output width from which a fast full forward lowers through im2col
/// instead of the gather table. im2col pays for range bounds and two fills
/// per (row, item) and then copies whole output rows, so it loses to the
/// table's per-value walk on narrow maps and wins on wide ones. On one
/// core of a 4-vCPU Xeon VM, over the zoo's conv shapes at batch 1 and 8,
/// the table took 0.2-0.8x im2col's time per value at output widths 2-5
/// (1.6x for a 1x1 conv at batch 8), 0.8-2.2x at width 8 and 1.0-3.3x at
/// widths 10-64. The delta forward gathers its few window columns through
/// the table at any width.
constexpr size_t Im2colMinWidth = 8;

} // namespace

Conv2d::Conv2d(size_t InC, size_t OutC, size_t Kernel, size_t Stride,
               size_t Pad, Rng &R, bool HasBias)
    : InC(InC), OutC(OutC), Kernel(Kernel), Stride(Stride), Pad(Pad),
      HasBias(HasBias), Weight({OutC, InC * Kernel * Kernel}),
      WeightGrad({OutC, InC * Kernel * Kernel}), Bias({OutC}),
      BiasGrad({OutC}) {
  kaimingNormal(Weight, /*FanIn=*/InC * Kernel * Kernel, R);
}

Tensor Conv2d::prepareForward(const Tensor &In, bool Train, size_t &N,
                              size_t &OH, size_t &OW, Tensor *&Cols) {
  assert(In.rank() == 4 && In.dim(1) == InC && "conv input shape mismatch");
  N = In.dim(0);
  const size_t H = In.dim(2), W = In.dim(3);
  OH = convOutSize(H, Kernel, Stride, Pad);
  OW = convOutSize(W, Kernel, Stride, Pad);
  const size_t Rows = InC * Kernel * Kernel;
  const size_t ColsN = N * OH * OW;

  Cols = Train ? &CachedCols : &ScratchCols;
  noteScratchRealloc(Cols->ensureShape({Rows, ColsN}));
  if (Train || kernels::naive() || OW >= Im2colMinWidth) {
    im2col(In, Kernel, Kernel, Stride, Pad, *Cols);
  } else {
    // Row-major walk of the table, once per batch item: the values im2col
    // writes, zero padding included.
    const size_t Plane = OH * OW, Item = InC * H * W;
    const int32_t *Table = gatherTable(H, W, OH, OW);
    float *Dst = Cols->data();
    for (size_t R = 0; R != Rows; ++R, Table += Plane) {
      for (size_t B = 0; B != N; ++B) {
        const float *Src = In.data() + B * Item;
        for (size_t P = 0; P != Plane; ++P)
          *Dst++ = Table[P] < 0 ? 0.0f : Src[Table[P]];
      }
    }
  }
  if (Train) {
    CachedN = N;
    CachedH = H;
    CachedW = W;
  }
  return Tensor({N, OutC, OH, OW});
}

const int32_t *Conv2d::gatherTable(size_t H, size_t W, size_t OH,
                                   size_t OW) {
  if (H == GatherH && W == GatherW)
    return GatherTable.data();
  assert(InC * H * W <= static_cast<size_t>(INT32_MAX) &&
         "gather offsets overflow int32_t");
  const long S = static_cast<long>(Stride), P = static_cast<long>(Pad);
  const long LH = static_cast<long>(H), LW = static_cast<long>(W);
  GatherTable.resize(InC * Kernel * Kernel * OH * OW);
  int32_t *Entry = GatherTable.data();
  for (size_t Ch = 0; Ch != InC; ++Ch) {
    for (size_t Ki = 0; Ki != Kernel; ++Ki) {
      for (size_t Kj = 0; Kj != Kernel; ++Kj) {
        for (long Oi = 0; Oi != static_cast<long>(OH); ++Oi) {
          const long Ii = Oi * S + static_cast<long>(Ki) - P;
          for (long Oj = 0; Oj != static_cast<long>(OW); ++Oj) {
            const long Jj = Oj * S + static_cast<long>(Kj) - P;
            *Entry++ = Ii >= 0 && Ii < LH && Jj >= 0 && Jj < LW
                           ? static_cast<int32_t>(
                                 (static_cast<long>(Ch) * LH + Ii) * LW + Jj)
                           : -1;
          }
        }
      }
    }
  }
  GatherH = H;
  GatherW = W;
  return GatherTable.data();
}

void Conv2d::packWeight() {
  const size_t K = Weight.dim(1);
  // Repacked every forward: the optimizer writes Weight in place through
  // ParamRef with no invalidation hook, and packing is O(OutC*K) against
  // the GEMM's O(OutC*K*N).
  PackedWeight.resize(gemmPackedSize(OutC, K));
  gemmPackA(Weight.data(), OutC, K, PackedWeight.data());
}

void Conv2d::noteScratchRealloc(bool Grew) {
  if (!Grew)
    return;
  ++ScratchReallocCount;
  telemetry::counter("nn.conv.scratch.reallocs").inc();
}

Tensor Conv2d::forward(const Tensor &In, bool Train) {
  size_t N, OH, OW;
  Tensor *Cols = nullptr;
  Tensor Out = prepareForward(In, Train, N, OH, OW, Cols);
  const size_t Rows = InC * Kernel * Kernel;
  const size_t ColsN = N * OH * OW;

  if (!Train && !kernels::naive()) {
    // Fast inference: packed GEMM scatters straight into NCHW with the
    // bias folded into the tile store.
    packWeight();
    gemmPackedConvOut(PackedWeight.data(), Cols->data(), Out.data(), OutC,
                      Rows, N, OH * OW, fusedEpilogue(nullptr, false));
    return Out;
  }

  // Reference path (training, and inference under --naive-kernels):
  // GEMM {OutC, Rows} x {Rows, N*OH*OW}, then scatter + bias.
  noteScratchRealloc(ScratchOut.ensureShape({OutC, ColsN}));
  matmul(Weight, *Cols, ScratchOut);

  // Scatter {OutC, N*OH*OW} into NCHW (plus bias). Column index encodes
  // (B, Oi, Oj) as (B*OH + Oi)*OW + Oj.
  const size_t Plane = OH * OW;
  for (size_t Oc = 0; Oc != OutC; ++Oc) {
    const float B = HasBias ? Bias[Oc] : 0.0f;
    const float *Src = ScratchOut.data() + Oc * ColsN;
    for (size_t Bn = 0; Bn != N; ++Bn) {
      float *Dst = Out.data() + (Bn * OutC + Oc) * Plane;
      const float *SrcB = Src + Bn * Plane;
      for (size_t I = 0; I != Plane; ++I)
        Dst[I] = SrcB[I] + B;
    }
  }
  return Out;
}

GemmEpilogue Conv2d::fusedEpilogue(const BatchNorm2d *Bn, bool Relu) {
  assert((!Bn || Bn->channels() == OutC) && "fused batchnorm channel count");
  GemmEpilogue Ep;
  Ep.Bias = HasBias ? Bias.data() : nullptr;
  if (Bn) {
    Bn->inferenceAffine(FusedScale, FusedShift);
    Ep.Scale = FusedScale.data();
    Ep.Shift = FusedShift.data();
  }
  Ep.Relu = Relu;
  return Ep;
}

Tensor Conv2d::forwardFused(const Tensor &In, const BatchNorm2d *Bn,
                            bool Relu) {
  assert(!kernels::naive() && "fused forward requires fast kernels");
  size_t N, OH, OW;
  Tensor *Cols = nullptr;
  Tensor Out = prepareForward(In, /*Train=*/false, N, OH, OW, Cols);
  packWeight();
  gemmPackedConvOut(PackedWeight.data(), Cols->data(), Out.data(), OutC,
                    InC * Kernel * Kernel, N, OH * OW, fusedEpilogue(Bn, Relu));
  return Out;
}

Tensor Conv2d::forwardFusedDelta(const Tensor &In, const BatchNorm2d *Bn,
                                 bool Relu, DeltaPass &Pass,
                                 const Tensor &Ref) {
  assert(In.rank() == 4 && In.dim(1) == InC && "conv input shape mismatch");
  assert(Pass.Windows.size() == In.dim(0) && "one window per batch item");
  const size_t N = In.dim(0);
  const size_t OH = convOutSize(In.dim(2), Kernel, Stride, Pad);
  const size_t OW = convOutSize(In.dim(3), Kernel, Stride, Pad);
  const size_t Dirty =
      Pass.Saturated ? 0 : Pass.advance(Kernel, Stride, Pad, OH, OW);
  if (Pass.Saturated)
    return forwardFused(In, Bn, Relu);

  Tensor Out = tileReference(Ref, N);
  assert(Out.shape() == Shape({N, OutC, OH, OW}) && "conv reference shape");
  if (Dirty == 0)
    return Out;
  // Columns in im2col's order restricted to the windows: item-major, each
  // window row-major, every column the values im2col writes there.
  const size_t Rows = InC * Kernel * Kernel, Plane = OH * OW;
  const size_t Item = InC * In.dim(2) * In.dim(3);
  // The windows are flattened into one column list first. Walking them
  // inside the row loop instead, with a few steps per window row, made
  // the zoo victims' delta forwards 1-21% slower.
  DirtyColumns.clear();
  for (size_t B = 0; B != N; ++B) {
    const DeltaWindow &Win = Pass.Windows[B];
    for (long Oi = Win.R0; Oi < Win.R1; ++Oi)
      for (long Oj = Win.C0; Oj < Win.C1; ++Oj)
        DirtyColumns.emplace_back(B * Item,
                                  static_cast<size_t>(Oi) * OW +
                                      static_cast<size_t>(Oj));
  }
  assert(DirtyColumns.size() == Dirty && "window column count");
  noteScratchRealloc(ScratchCols.ensureShape({Rows, Dirty}));
  const int32_t *Table = gatherTable(In.dim(2), In.dim(3), OH, OW);
  float *Col = ScratchCols.data();
  for (size_t R = 0; R != Rows; ++R, Table += Plane) {
    for (const auto &[ItemOff, Pixel] : DirtyColumns) {
      const int32_t Off = Table[Pixel];
      *Col++ = Off < 0 ? 0.0f : In.data()[ItemOff + static_cast<size_t>(Off)];
    }
  }
  noteScratchRealloc(ScratchOut.ensureShape({OutC, Dirty}));
  packWeight();
  gemmPacked(PackedWeight.data(), ScratchCols.data(), ScratchOut.data(), OutC,
             Rows, Dirty, fusedEpilogue(Bn, Relu));

  // Scatter the {OutC, Dirty} product back into the windows.
  for (size_t Oc = 0; Oc != OutC; ++Oc) {
    const float *Src = ScratchOut.data() + Oc * Dirty;
    for (size_t B = 0; B != N; ++B) {
      const DeltaWindow &Win = Pass.Windows[B];
      float *Dst = Out.data() + (B * OutC + Oc) * Plane;
      for (long Oi = Win.R0; Oi < Win.R1; ++Oi)
        for (long Oj = Win.C0; Oj < Win.C1; ++Oj)
          Dst[Oi * static_cast<long>(OW) + Oj] = *Src++;
    }
  }
  return Out;
}

Tensor Conv2d::backward(const Tensor &GradOut) {
  assert(CachedN != 0 && "backward without cached forward");
  const size_t N = CachedN, H = CachedH, W = CachedW;
  const size_t OH = convOutSize(H, Kernel, Stride, Pad);
  const size_t OW = convOutSize(W, Kernel, Stride, Pad);
  const size_t Rows = InC * Kernel * Kernel;
  const size_t ColsN = N * OH * OW;
  assert(GradOut.rank() == 4 && GradOut.dim(0) == N &&
         GradOut.dim(1) == OutC && GradOut.dim(2) == OH &&
         GradOut.dim(3) == OW && "conv grad shape mismatch");

  // Gather NCHW grad into the {OutC, N*OH*OW} GEMM layout.
  Tensor Grad2d({OutC, ColsN});
  const size_t Plane = OH * OW;
  for (size_t Oc = 0; Oc != OutC; ++Oc) {
    float *Dst = Grad2d.data() + Oc * ColsN;
    for (size_t Bn = 0; Bn != N; ++Bn) {
      const float *Src = GradOut.data() + (Bn * OutC + Oc) * Plane;
      float *DstB = Dst + Bn * Plane;
      for (size_t I = 0; I != Plane; ++I)
        DstB[I] = Src[I];
    }
  }

  // dW += Grad2d * Cols^T; db += row sums of Grad2d.
  Tensor WG({OutC, Rows});
  matmulTransposedB(Grad2d, CachedCols, WG);
  WeightGrad += WG;
  if (HasBias) {
    for (size_t Oc = 0; Oc != OutC; ++Oc) {
      const float *Row = Grad2d.data() + Oc * ColsN;
      float Acc = 0.0f;
      for (size_t I = 0; I != ColsN; ++I)
        Acc += Row[I];
      BiasGrad[Oc] += Acc;
    }
  }

  // dX = col2im(W^T * Grad2d).
  Tensor GradCols({Rows, ColsN});
  matmulTransposedA(Weight, Grad2d, GradCols);
  Tensor GradIn({N, InC, H, W});
  col2im(GradCols, N, InC, H, W, Kernel, Kernel, Stride, Pad, GradIn);
  return GradIn;
}

void Conv2d::collectParams(const std::string &Prefix,
                           std::vector<ParamRef> &Params) {
  Params.push_back({Prefix + ".weight", &Weight, &WeightGrad});
  if (HasBias)
    Params.push_back({Prefix + ".bias", &Bias, &BiasGrad});
}
