//===- nn/Pooling.cpp - Spatial pooling layers ------------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/Pooling.h"

#include <limits>
#include <optional>

using namespace oppsla;

namespace {

/// Output side of a pooling window over \p In input positions.
size_t poolOut(size_t In, size_t Window, size_t Stride) {
  assert(In >= Window && "pool window larger than input");
  return (In - Window) / Stride + 1;
}

/// Max over the Window x Window block of \p Plane (row pitch \p W) at
/// (\p I0, \p J0); \p ArgIdx receives the flat plane index of the max.
float maxAt(const float *Plane, size_t W, size_t Window, size_t I0,
            size_t J0, size_t &ArgIdx) {
  float Best = -std::numeric_limits<float>::infinity();
  ArgIdx = 0;
  for (size_t Ki = 0; Ki != Window; ++Ki) {
    for (size_t Kj = 0; Kj != Window; ++Kj) {
      const size_t Idx = (I0 + Ki) * W + (J0 + Kj);
      if (Plane[Idx] > Best) {
        Best = Plane[Idx];
        ArgIdx = Idx;
      }
    }
  }
  return Best;
}

/// Mean of the Window x Window block of \p Plane at (\p I0, \p J0).
float avgAt(const float *Plane, size_t W, size_t Window, size_t I0,
            size_t J0) {
  const float Inv = 1.0f / static_cast<float>(Window * Window);
  float Acc = 0.0f;
  for (size_t Ki = 0; Ki != Window; ++Ki)
    for (size_t Kj = 0; Kj != Window; ++Kj)
      Acc += Plane[(I0 + Ki) * W + (J0 + Kj)];
  return Acc * Inv;
}

/// The shared delta forward of both pools: advances \p Pass, and unless it
/// saturates (nullopt: run the full forward), recomputes every pooled
/// position inside the windows over copies of \p Ref with \p PoolAt(plane,
/// row pitch, input row, input column) — the full forward's own arithmetic.
template <typename PoolFn>
std::optional<Tensor> poolDelta(const Tensor &In, DeltaPass &Pass,
                                const Tensor &Ref, size_t Window,
                                size_t Stride, PoolFn PoolAt) {
  assert(In.rank() == 4 && Pass.Windows.size() == In.dim(0) &&
         "one window per batch item");
  const size_t N = In.dim(0), C = In.dim(1), H = In.dim(2), W = In.dim(3);
  const size_t OH = poolOut(H, Window, Stride);
  const size_t OW = poolOut(W, Window, Stride);
  if (!Pass.Saturated)
    Pass.advance(Window, Stride, /*Pad=*/0, OH, OW);
  if (Pass.Saturated)
    return std::nullopt;
  Tensor Out = tileReference(Ref, N);
  assert(Out.shape() == Shape({N, C, OH, OW}) && "pool reference shape");
  for (size_t B = 0; B != N; ++B) {
    const DeltaWindow &Win = Pass.Windows[B];
    for (size_t Ch = 0; Ch != C; ++Ch) {
      const float *Plane = In.data() + (B * C + Ch) * H * W;
      float *Dst = Out.data() + (B * C + Ch) * OH * OW;
      for (long Oi = Win.R0; Oi < Win.R1; ++Oi)
        for (long Oj = Win.C0; Oj < Win.C1; ++Oj)
          Dst[Oi * static_cast<long>(OW) + Oj] =
              PoolAt(Plane, W, static_cast<size_t>(Oi) * Stride,
                     static_cast<size_t>(Oj) * Stride);
    }
  }
  return Out;
}

} // namespace

Tensor MaxPool2d::forward(const Tensor &In, bool Train) {
  assert(In.rank() == 4 && "maxpool expects NCHW");
  const size_t N = In.dim(0), C = In.dim(1), H = In.dim(2), W = In.dim(3);
  const size_t OH = poolOut(H, Window, Stride);
  const size_t OW = poolOut(W, Window, Stride);
  Tensor Out({N, C, OH, OW});
  if (Train) {
    CachedArgmax.assign(Out.numel(), 0);
    CachedInShape = In.shape();
  }

  size_t OutIdx = 0;
  for (size_t B = 0; B != N; ++B) {
    for (size_t Ch = 0; Ch != C; ++Ch) {
      const float *Plane = In.data() + (B * C + Ch) * H * W;
      const size_t PlaneBase = (B * C + Ch) * H * W;
      for (size_t Oi = 0; Oi != OH; ++Oi) {
        for (size_t Oj = 0; Oj != OW; ++Oj, ++OutIdx) {
          size_t ArgIdx = 0;
          Out[OutIdx] =
              maxAt(Plane, W, Window, Oi * Stride, Oj * Stride, ArgIdx);
          if (Train)
            CachedArgmax[OutIdx] = PlaneBase + ArgIdx;
        }
      }
    }
  }
  return Out;
}

Tensor MaxPool2d::forwardDelta(const Tensor &In, DeltaPass &Pass,
                               const Tensor &Ref) {
  std::optional<Tensor> Out = poolDelta(
      In, Pass, Ref, Window, Stride,
      [this](const float *Plane, size_t W, size_t I0, size_t J0) {
        size_t ArgIdx = 0;
        return maxAt(Plane, W, Window, I0, J0, ArgIdx);
      });
  return Out ? std::move(*Out) : forward(In, /*Train=*/false);
}

Tensor MaxPool2d::backward(const Tensor &GradOut) {
  assert(!CachedArgmax.empty() && "backward without cached forward");
  assert(GradOut.numel() == CachedArgmax.size() && "maxpool grad shape");
  Tensor GradIn(CachedInShape);
  const float *Dy = GradOut.data();
  float *Dx = GradIn.data();
  for (size_t I = 0, E = GradOut.numel(); I != E; ++I)
    Dx[CachedArgmax[I]] += Dy[I];
  return GradIn;
}

Tensor AvgPool2d::forward(const Tensor &In, bool Train) {
  assert(In.rank() == 4 && "avgpool expects NCHW");
  const size_t N = In.dim(0), C = In.dim(1), H = In.dim(2), W = In.dim(3);
  const size_t OH = poolOut(H, Window, Stride);
  const size_t OW = poolOut(W, Window, Stride);
  if (Train)
    CachedInShape = In.shape();
  Tensor Out({N, C, OH, OW});

  size_t OutIdx = 0;
  for (size_t B = 0; B != N; ++B) {
    for (size_t Ch = 0; Ch != C; ++Ch) {
      const float *Plane = In.data() + (B * C + Ch) * H * W;
      for (size_t Oi = 0; Oi != OH; ++Oi)
        for (size_t Oj = 0; Oj != OW; ++Oj, ++OutIdx)
          Out[OutIdx] = avgAt(Plane, W, Window, Oi * Stride, Oj * Stride);
    }
  }
  return Out;
}

Tensor AvgPool2d::forwardDelta(const Tensor &In, DeltaPass &Pass,
                               const Tensor &Ref) {
  std::optional<Tensor> Out = poolDelta(
      In, Pass, Ref, Window, Stride,
      [this](const float *Plane, size_t W, size_t I0, size_t J0) {
        return avgAt(Plane, W, Window, I0, J0);
      });
  return Out ? std::move(*Out) : forward(In, /*Train=*/false);
}

Tensor AvgPool2d::backward(const Tensor &GradOut) {
  assert(CachedInShape.rank() == 4 && "backward without cached forward");
  const size_t N = CachedInShape[0], C = CachedInShape[1];
  const size_t H = CachedInShape[2], W = CachedInShape[3];
  const size_t OH = (H - Window) / Stride + 1;
  const size_t OW = (W - Window) / Stride + 1;
  assert(GradOut.rank() == 4 && GradOut.dim(2) == OH &&
         GradOut.dim(3) == OW && "avgpool grad shape");
  Tensor GradIn(CachedInShape);
  const float Inv = 1.0f / static_cast<float>(Window * Window);

  size_t OutIdx = 0;
  for (size_t B = 0; B != N; ++B) {
    for (size_t Ch = 0; Ch != C; ++Ch) {
      float *Plane = GradIn.data() + (B * C + Ch) * H * W;
      for (size_t Oi = 0; Oi != OH; ++Oi) {
        for (size_t Oj = 0; Oj != OW; ++Oj, ++OutIdx) {
          const float G = GradOut[OutIdx] * Inv;
          for (size_t Ki = 0; Ki != Window; ++Ki)
            for (size_t Kj = 0; Kj != Window; ++Kj)
              Plane[(Oi * Stride + Ki) * W + (Oj * Stride + Kj)] += G;
        }
      }
    }
  }
  return GradIn;
}

Tensor GlobalAvgPool::forward(const Tensor &In, bool Train) {
  assert(In.rank() == 4 && "global avg pool expects NCHW");
  const size_t N = In.dim(0), C = In.dim(1);
  const size_t Plane = In.dim(2) * In.dim(3);
  if (Train)
    CachedInShape = In.shape();
  Tensor Out({N, C});
  const float Inv = 1.0f / static_cast<float>(Plane);
  for (size_t B = 0; B != N; ++B) {
    for (size_t Ch = 0; Ch != C; ++Ch) {
      const float *Src = In.data() + (B * C + Ch) * Plane;
      float Acc = 0.0f;
      for (size_t I = 0; I != Plane; ++I)
        Acc += Src[I];
      Out.at(B, Ch) = Acc * Inv;
    }
  }
  return Out;
}

Tensor GlobalAvgPool::backward(const Tensor &GradOut) {
  assert(CachedInShape.rank() == 4 && "backward without cached forward");
  const size_t N = CachedInShape[0], C = CachedInShape[1];
  const size_t Plane = CachedInShape[2] * CachedInShape[3];
  assert(GradOut.rank() == 2 && GradOut.dim(0) == N && GradOut.dim(1) == C &&
         "global avg pool grad shape");
  Tensor GradIn(CachedInShape);
  const float Inv = 1.0f / static_cast<float>(Plane);
  for (size_t B = 0; B != N; ++B) {
    for (size_t Ch = 0; Ch != C; ++Ch) {
      const float G = GradOut.at(B, Ch) * Inv;
      float *Dst = GradIn.data() + (B * C + Ch) * Plane;
      for (size_t I = 0; I != Plane; ++I)
        Dst[I] = G;
    }
  }
  return GradIn;
}
