//===- nn/BatchNorm2d.cpp - Batch normalization ----------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/BatchNorm2d.h"

#include <cmath>

using namespace oppsla;

BatchNorm2d::BatchNorm2d(size_t Channels, float Momentum, float Eps)
    : Channels(Channels), Momentum(Momentum), Eps(Eps), Gamma({Channels}),
      GammaGrad({Channels}), Beta({Channels}), BetaGrad({Channels}),
      RunningMean({Channels}), RunningVar({Channels}) {
  Gamma.fill(1.0f);
  RunningVar.fill(1.0f);
}

Tensor BatchNorm2d::forward(const Tensor &In, bool Train) {
  assert(In.rank() == 4 && In.dim(1) == Channels && "batchnorm input shape");
  const size_t N = In.dim(0), H = In.dim(2), W = In.dim(3);
  const size_t Plane = H * W;
  Tensor Out(In.shape());

  if (!Train) {
    // Inference: normalize with running statistics, folded to the affine
    // form shared with the fused GEMM epilogue. The explicit std::fma is
    // part of the kernel determinism contract (DESIGN.md §12): fused and
    // unfused paths perform the identical rounding per element.
    const Affine A = inferenceAffine();
    for (size_t C = 0; C != Channels; ++C) {
      const float Scale = A.Scale[C];
      const float Shift = A.Shift[C];
      for (size_t B = 0; B != N; ++B) {
        const float *Src = In.data() + (B * Channels + C) * Plane;
        float *Dst = Out.data() + (B * Channels + C) * Plane;
        for (size_t I = 0; I != Plane; ++I)
          Dst[I] = std::fma(Src[I], Scale, Shift);
      }
    }
    return Out;
  }

  // Training: batch statistics per channel, folded into the running ones.
  bumpParamGeneration();
  const double Count = static_cast<double>(N * Plane);
  CachedXHat = Tensor(In.shape());
  CachedInvStd = Tensor({Channels});
  CachedN = N;
  CachedH = H;
  CachedW = W;
  for (size_t C = 0; C != Channels; ++C) {
    double Sum = 0.0, SqSum = 0.0;
    for (size_t B = 0; B != N; ++B) {
      const float *Src = In.data() + (B * Channels + C) * Plane;
      for (size_t I = 0; I != Plane; ++I) {
        Sum += Src[I];
        SqSum += static_cast<double>(Src[I]) * Src[I];
      }
    }
    const double VarD = SqSum / Count - (Sum / Count) * (Sum / Count);
    const float Mean = static_cast<float>(Sum / Count);
    const float Var = static_cast<float>(VarD);
    const float InvStd = 1.0f / std::sqrt(std::max(Var, 0.0f) + Eps);
    CachedInvStd[C] = InvStd;

    // Normalization uses the biased (population, /Count) variance, but the
    // running buffer tracks the unbiased sample variance (Bessel's
    // Count/(Count-1) correction) — the torch.nn.BatchNorm2d convention
    // the training recipes assume. Count == 1 has no unbiased estimate;
    // fall back to the biased value rather than divide by zero.
    const float VarUnbiased =
        Count > 1.0 ? static_cast<float>(VarD * Count / (Count - 1.0)) : Var;
    RunningMean[C] = (1.0f - Momentum) * RunningMean[C] + Momentum * Mean;
    RunningVar[C] =
        (1.0f - Momentum) * RunningVar[C] + Momentum * VarUnbiased;

    for (size_t B = 0; B != N; ++B) {
      const float *Src = In.data() + (B * Channels + C) * Plane;
      float *XH = CachedXHat.data() + (B * Channels + C) * Plane;
      float *Dst = Out.data() + (B * Channels + C) * Plane;
      for (size_t I = 0; I != Plane; ++I) {
        XH[I] = (Src[I] - Mean) * InvStd;
        Dst[I] = Gamma[C] * XH[I] + Beta[C];
      }
    }
  }
  return Out;
}

Tensor BatchNorm2d::backward(const Tensor &GradOut) {
  assert(!CachedXHat.empty() && "backward without cached forward");
  const size_t N = CachedN, H = CachedH, W = CachedW;
  const size_t Plane = H * W;
  assert(GradOut.shape() == CachedXHat.shape() && "batchnorm grad shape");

  Tensor GradIn(GradOut.shape());
  const double M = static_cast<double>(N * Plane);
  for (size_t C = 0; C != Channels; ++C) {
    // Accumulate dGamma, dBeta, and the two reduction terms the input
    // gradient needs.
    double SumDy = 0.0, SumDyXHat = 0.0;
    for (size_t B = 0; B != N; ++B) {
      const float *Dy = GradOut.data() + (B * Channels + C) * Plane;
      const float *XH = CachedXHat.data() + (B * Channels + C) * Plane;
      for (size_t I = 0; I != Plane; ++I) {
        SumDy += Dy[I];
        SumDyXHat += static_cast<double>(Dy[I]) * XH[I];
      }
    }
    GammaGrad[C] += static_cast<float>(SumDyXHat);
    BetaGrad[C] += static_cast<float>(SumDy);

    const float G = Gamma[C];
    const float InvStd = CachedInvStd[C];
    const float MeanDy = static_cast<float>(SumDy / M);
    const float MeanDyXHat = static_cast<float>(SumDyXHat / M);
    for (size_t B = 0; B != N; ++B) {
      const float *Dy = GradOut.data() + (B * Channels + C) * Plane;
      const float *XH = CachedXHat.data() + (B * Channels + C) * Plane;
      float *Dx = GradIn.data() + (B * Channels + C) * Plane;
      for (size_t I = 0; I != Plane; ++I)
        Dx[I] = G * InvStd * (Dy[I] - MeanDy - XH[I] * MeanDyXHat);
    }
  }
  return GradIn;
}

BatchNorm2d::Affine BatchNorm2d::inferenceAffine() {
  const uint64_t Gen = paramGeneration();
  if (AffineGen != Gen) {
    AffineScale.resize(Channels);
    AffineShift.resize(Channels);
    for (size_t C = 0; C != Channels; ++C) {
      const float InvStd = 1.0f / std::sqrt(RunningVar[C] + Eps);
      AffineScale[C] = Gamma[C] * InvStd;
      AffineShift[C] = Beta[C] - RunningMean[C] * AffineScale[C];
    }
    AffineGen = Gen;
  }
  return {AffineScale.data(), AffineShift.data()};
}

void BatchNorm2d::collectParams(const std::string &Prefix,
                                std::vector<ParamRef> &Params) {
  bumpParamGeneration();
  Params.push_back({Prefix + ".gamma", &Gamma, &GammaGrad});
  Params.push_back({Prefix + ".beta", &Beta, &BetaGrad});
}

void BatchNorm2d::collectBuffers(
    const std::string &Prefix,
    std::vector<std::pair<std::string, Tensor *>> &Buffers) {
  bumpParamGeneration();
  Buffers.push_back({Prefix + ".running_mean", &RunningMean});
  Buffers.push_back({Prefix + ".running_var", &RunningVar});
}
