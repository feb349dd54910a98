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

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace oppsla;

namespace {

/// Output width from which a fast full forward lowers through im2col and
/// the packed GEMM instead of running the direct kernel. Measured per zoo
/// conv shape at output widths 1-64 (DESIGN.md §12): a 1x1 conv has too
/// few taps per pixel to amortize the direct kernel's per-pixel setup and
/// strided stores once its map is 3 wide; with a larger kernel the 3-channel
/// stems and the convs with few output channels start losing at about 8
/// columns. Delta forwards run the direct kernel at any width.
size_t im2colMinWidth(size_t Kernel) { return Kernel == 1 ? 3 : 8; }

} // namespace

Conv2d::Conv2d(size_t InC, size_t OutC, size_t Kernel, size_t Stride,
               size_t Pad, Rng &R, bool HasBias)
    : InC(InC), OutC(OutC), Kernel(Kernel), Stride(Stride), Pad(Pad),
      HasBias(HasBias), Weight({OutC, InC * Kernel * Kernel}),
      WeightGrad({OutC, InC * Kernel * Kernel}), Bias({OutC}),
      BiasGrad({OutC}) {
  kaimingNormal(Weight, /*FanIn=*/InC * Kernel * Kernel, R);
}

Shape Conv2d::outputShape(const Tensor &In) const {
  assert(In.rank() == 4 && In.dim(1) == InC && "conv input shape mismatch");
  return Shape({In.dim(0), OutC, convOutSize(In.dim(2), Kernel, Stride, Pad),
                convOutSize(In.dim(3), Kernel, Stride, Pad)});
}

const Tensor &Conv2d::lower(const Tensor &In, bool Train) {
  const Shape OutShape = outputShape(In);
  Tensor &Cols = Train ? CachedCols : ScratchCols;
  noteScratchRealloc(Cols.ensureShape(
      {InC * Kernel * Kernel, OutShape[0] * OutShape[2] * OutShape[3]}));
  im2col(In, Kernel, Kernel, Stride, Pad, Cols);
  if (Train) {
    CachedN = In.dim(0);
    CachedH = In.dim(2);
    CachedW = In.dim(3);
  }
  return Cols;
}

void Conv2d::directWindow(const float *Item, size_t H, size_t W,
                          const DeltaWindow &Win, float *OutItem, size_t OH,
                          size_t OW, const GemmEpilogue &Ep) {
  assert(!Win.empty() && Win.R0 >= 0 && Win.C0 >= 0 &&
         Win.R1 <= static_cast<long>(OH) && Win.C1 <= static_cast<long>(OW) &&
         "window inside the output map");
  // The window's receptive field: input rows [Top, Top + FH) and columns
  // [Left, Left + FW), reaching up to Pad positions past each border.
  const long S = static_cast<long>(Stride), P = static_cast<long>(Pad);
  const long Top = Win.R0 * S - P, Left = Win.C0 * S - P;
  const long FH = (Win.R1 - 1 - Win.R0) * S + static_cast<long>(Kernel);
  const long FW = (Win.C1 - 1 - Win.C0) * S + static_cast<long>(Kernel);
  const long LH = static_cast<long>(H), LW = static_cast<long>(W);
  DirectConv C;
  C.InC = InC;
  C.M = OutC;
  C.Kernel = Kernel;
  C.Stride = Stride;
  if (Top >= 0 && Left >= 0 && Top + FH <= LH && Left + FW <= LW) {
    // The field lies inside the map (always when Pad == 0): read the input
    // itself.
    C.In = Item + static_cast<size_t>(Top * LW + Left);
    C.InPlane = H * W;
    C.InRow = W;
  } else {
    // Copy the field into a patch, zero where it leaves the map.
    assert(FH > 0 && FW > 0 && Top >= -P && Left >= -P &&
           Top + FH <= LH + P && Left + FW <= LW + P &&
           "receptive field within the padded map");
    const size_t PH = static_cast<size_t>(FH), PW = static_cast<size_t>(FW);
    Patch.assign(InC * PH * PW, 0.0f);
    const long R0 = std::max(Top, 0L), R1 = std::min(Top + FH, LH);
    const long C0 = std::max(Left, 0L), C1 = std::min(Left + FW, LW);
    for (size_t Ch = 0; Ch != InC && C0 < C1; ++Ch) {
      const float *Src = Item + Ch * H * W;
      float *Dst = Patch.data() + Ch * PH * PW;
      for (long R = R0; R < R1; ++R)
        std::memcpy(Dst + (R - Top) * FW + (C0 - Left), Src + R * LW + C0,
                    static_cast<size_t>(C1 - C0) * sizeof(float));
    }
    C.In = Patch.data();
    C.InPlane = PH * PW;
    C.InRow = PW;
  }
  C.Rows = static_cast<size_t>(Win.R1 - Win.R0);
  C.Cols = static_cast<size_t>(Win.C1 - Win.C0);
  C.Out = OutItem + static_cast<size_t>(Win.R0) * OW +
          static_cast<size_t>(Win.C0);
  C.OutPlane = OH * OW;
  C.OutRow = OW;
  convDirect(DirectWeight.data(), C, Ep);
}

void Conv2d::packWeight() {
  const uint64_t Gen = paramGeneration();
  if (PackedGen == Gen)
    return;
  const size_t K = Weight.dim(1);
  PackedWeight.resize(gemmPackedSize(OutC, K));
  gemmPackA(Weight.data(), OutC, K, PackedWeight.data());
  PackedGen = Gen;
}

void Conv2d::packDirectWeight() {
  const uint64_t Gen = paramGeneration();
  if (DirectGen == Gen)
    return;
  const size_t K = Weight.dim(1);
  DirectWeight.resize(convDirectStride(OutC) * K);
  convPackDirect(Weight.data(), OutC, K, DirectWeight.data());
  DirectGen = Gen;
}

void Conv2d::noteScratchRealloc(bool Grew) {
  if (!Grew)
    return;
  ++ScratchReallocCount;
  telemetry::counter("nn.conv.scratch.reallocs").inc();
}

Tensor Conv2d::forward(const Tensor &In, bool Train) {
  // Fast inference is the fused forward with only the bias stage.
  if (!Train && !kernels::naive())
    return forwardFused(In, nullptr, false);

  // Reference path (training, and inference under --naive-kernels):
  // GEMM {OutC, Rows} x {Rows, N*OH*OW}, then scatter + bias.
  const Tensor &Cols = lower(In, Train);
  Tensor Out(outputShape(In));
  const size_t N = Out.dim(0), OH = Out.dim(2), OW = Out.dim(3);
  const size_t ColsN = N * OH * OW;
  noteScratchRealloc(ScratchOut.ensureShape({OutC, ColsN}));
  matmul(Weight, Cols, ScratchOut);

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

GemmEpilogue Conv2d::fusedEpilogue(BatchNorm2d *Bn, bool Relu) {
  assert((!Bn || Bn->channels() == OutC) && "fused batchnorm channel count");
  GemmEpilogue Ep;
  Ep.Bias = HasBias ? Bias.data() : nullptr;
  if (Bn) {
    const BatchNorm2d::Affine A = Bn->inferenceAffine();
    Ep.Scale = A.Scale;
    Ep.Shift = A.Shift;
  }
  Ep.Relu = Relu;
  return Ep;
}

Tensor Conv2d::forwardFused(const Tensor &In, BatchNorm2d *Bn, bool Relu) {
  assert(!kernels::naive() && "fused forward requires fast kernels");
  Tensor Out(outputShape(In));
  const size_t N = Out.dim(0), OH = Out.dim(2), OW = Out.dim(3);
  if (OW >= im2colMinWidth(Kernel)) {
    const Tensor &Cols = lower(In, /*Train=*/false);
    packWeight();
    gemmPackedConvOut(PackedWeight.data(), Cols.data(), Out.data(), OutC,
                      InC * Kernel * Kernel, N, OH * OW,
                      fusedEpilogue(Bn, Relu));
    return Out;
  }
  packDirectWeight();
  const GemmEpilogue Ep = fusedEpilogue(Bn, Relu);
  const size_t H = In.dim(2), W = In.dim(3);
  const DeltaWindow Whole{0, static_cast<long>(OH), 0, static_cast<long>(OW)};
  for (size_t B = 0; B != N; ++B)
    directWindow(In.data() + B * InC * H * W, H, W, Whole,
                 Out.data() + B * OutC * OH * OW, OH, OW, Ep);
  return Out;
}

Tensor Conv2d::forwardFusedDelta(const Tensor &In, BatchNorm2d *Bn, bool Relu,
                                 DeltaPass &Pass, const Tensor &Ref) {
  assert(Pass.Windows.size() == In.dim(0) && "one window per batch item");
  const Shape OutShape = outputShape(In);
  const size_t N = OutShape[0], OH = OutShape[2], OW = OutShape[3];
  const size_t H = In.dim(2), W = In.dim(3);
  const size_t Dirty =
      Pass.Saturated ? 0 : Pass.advance(Kernel, Stride, Pad, OH, OW);
  if (Pass.Saturated)
    return forwardFused(In, Bn, Relu);

  Tensor Out = tileReference(Ref, N);
  assert(Out.shape() == OutShape && "conv reference shape");
  if (Dirty == 0)
    return Out;
  // Each near item recomputes its window in place over its copy of Ref.
  packDirectWeight();
  const GemmEpilogue Ep = fusedEpilogue(Bn, Relu);
  for (size_t B = 0; B != N; ++B)
    if (!Pass.Windows[B].empty())
      directWindow(In.data() + B * InC * H * W, H, W, Pass.Windows[B],
                   Out.data() + B * OutC * OH * OW, OH, OW, Ep);
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
  bumpParamGeneration();
  Params.push_back({Prefix + ".weight", &Weight, &WeightGrad});
  if (HasBias)
    Params.push_back({Prefix + ".bias", &Bias, &BiasGrad});
}
