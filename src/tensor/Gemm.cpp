//===- tensor/Gemm.cpp - Packed, register-blocked SGEMM -------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tensor/Gemm.h"

#include "support/ArgParse.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <vector>

using namespace oppsla;
using namespace oppsla::kernels;

//===----------------------------------------------------------------------===//
// Kernel configuration state
//===----------------------------------------------------------------------===//

namespace {

std::atomic<bool> NaiveKernels{false};

} // namespace

bool kernels::naive() { return NaiveKernels.load(std::memory_order_relaxed); }

void kernels::setNaive(bool Enabled) {
  NaiveKernels.store(Enabled, std::memory_order_relaxed);
}

void kernels::configureFromArgs(const ArgParse &Args) {
  setNaive(Args.getFlag("naive-kernels"));
}

//===----------------------------------------------------------------------===//
// A-operand packing
//===----------------------------------------------------------------------===//

size_t oppsla::gemmPackedSize(size_t M, size_t K) {
  const size_t Panels = (M + MR - 1) / MR;
  return Panels * K * MR;
}

void oppsla::gemmPackA(const float *A, size_t M, size_t K, float *Pack) {
  const size_t Panels = (M + MR - 1) / MR;
  for (size_t P = 0; P != Panels; ++P) {
    float *Panel = Pack + P * K * MR;
    const size_t Rows = std::min(MR, M - P * MR);
    for (size_t R = 0; R != Rows; ++R) {
      const float *ARow = A + (P * MR + R) * K;
      for (size_t Kk = 0; Kk != K; ++Kk)
        Panel[Kk * MR + R] = ARow[Kk];
    }
    // Zero-fill the tail rows so the microkernel can always run the full
    // MR accumulators; the padded results are simply never stored.
    for (size_t R = Rows; R != MR; ++R)
      for (size_t Kk = 0; Kk != K; ++Kk)
        Panel[Kk * MR + R] = 0.0f;
  }
}

//===----------------------------------------------------------------------===//
// Microkernel
//===----------------------------------------------------------------------===//

namespace {

// The vectorized tile uses GNU vector extensions (no x86 intrinsics): two
// 8-lane vectors per accumulator row, with `a * b + acc` relying on FP
// contraction (-ffp-contract=fast, forced in src/tensor/CMakeLists.txt)
// to emit one fused multiply-add per lane. A contracted a*b+acc rounds
// once, exactly like std::fma, so the chain stays bit-identical to the
// scalar reference loops — GemmTest and the cli_eval_kernels_identical
// ctest enforce this. Only taken on FMA-capable GNU targets; anything
// else falls back to the scalar std::fma loop below, which keeps the
// contract trivially (and slowly).
#if defined(__GNUC__) && defined(__FMA__)
#define OPPSLA_GEMM_VECTOR_KERNEL 1
typedef float V8 __attribute__((vector_size(32)));
#if defined(__AVX512F__)
// One 16-lane vector covers the whole NR tile row: half the FMA issue
// count of the two-V8 form, same contracted single-rounding per lane.
#define OPPSLA_GEMM_V16 1
typedef float V16 __attribute__((vector_size(64)));
#endif
#endif

/// Full MR x NR tile: each accumulator is the exact fma chain
/// acc_k = fma(a, b, acc_{k-1}) with k ascending — the determinism
/// contract shared with the scalar reference loops.
void microKernelFull(const float *__restrict Panel, const float *__restrict B,
                     size_t Ldb, size_t K, float Acc[MR][NR]) {
#if defined(OPPSLA_GEMM_V16)
  V16 Acc16[MR] = {};
  for (size_t Kk = 0; Kk != K; ++Kk) {
    const float *BRow = B + Kk * Ldb;
    V16 BV;
    std::memcpy(&BV, BRow, sizeof(V16));
    const float *APack = Panel + Kk * MR;
    for (size_t R = 0; R != MR; ++R) {
      const float A = APack[R];
      const V16 AV = {A, A, A, A, A, A, A, A, A, A, A, A, A, A, A, A};
      Acc16[R] = AV * BV + Acc16[R]; // contracts to one fused fma per lane
    }
  }
  for (size_t R = 0; R != MR; ++R)
    std::memcpy(&Acc[R][0], &Acc16[R], sizeof(V16));
#elif defined(OPPSLA_GEMM_VECTOR_KERNEL)
  V8 Lo[MR] = {}, Hi[MR] = {};
  for (size_t Kk = 0; Kk != K; ++Kk) {
    const float *BRow = B + Kk * Ldb;
    V8 B0, B1;
    std::memcpy(&B0, BRow, sizeof(V8));
    std::memcpy(&B1, BRow + 8, sizeof(V8));
    const float *APack = Panel + Kk * MR;
    for (size_t R = 0; R != MR; ++R) {
      const float A = APack[R];
      const V8 AV = {A, A, A, A, A, A, A, A};
      Lo[R] = AV * B0 + Lo[R]; // contracts to one fused fma per lane
      Hi[R] = AV * B1 + Hi[R];
    }
  }
  for (size_t R = 0; R != MR; ++R) {
    std::memcpy(&Acc[R][0], &Lo[R], sizeof(V8));
    std::memcpy(&Acc[R][8], &Hi[R], sizeof(V8));
  }
#else
  for (size_t R = 0; R != MR; ++R)
    for (size_t J = 0; J != NR; ++J)
      Acc[R][J] = 0.0f;
  for (size_t Kk = 0; Kk != K; ++Kk) {
    const float *BRow = B + Kk * Ldb;
    const float *APack = Panel + Kk * MR;
    for (size_t R = 0; R != MR; ++R) {
      const float AV = APack[R];
      for (size_t J = 0; J != NR; ++J)
        Acc[R][J] = std::fma(AV, BRow[J], Acc[R][J]);
    }
  }
#endif
}

/// Applies the epilogue to one accumulator row and stores it contiguously.
/// Mirrors the reference path op-for-op: conv bias add (0.0f when the
/// layer has none), BatchNorm2d's `fma(v, Scale, Shift)`, ReLU's ternary.
inline void storeRow(const float *AccRow, float *Dst, size_t Cols, size_t I,
                     const GemmEpilogue &Ep) {
  const float Bias = Ep.Bias ? Ep.Bias[I] : 0.0f;
  if (Ep.Scale) {
    const float Scale = Ep.Scale[I];
    const float Shift = Ep.Shift[I];
    if (Ep.Relu) {
      for (size_t J = 0; J != Cols; ++J) {
        float V = std::fma(AccRow[J] + Bias, Scale, Shift);
        Dst[J] = V > 0.0f ? V : 0.0f;
      }
    } else {
      for (size_t J = 0; J != Cols; ++J)
        Dst[J] = std::fma(AccRow[J] + Bias, Scale, Shift);
    }
  } else if (Ep.Relu) {
    for (size_t J = 0; J != Cols; ++J) {
      const float V = AccRow[J] + Bias;
      Dst[J] = V > 0.0f ? V : 0.0f;
    }
  } else {
    for (size_t J = 0; J != Cols; ++J)
      Dst[J] = AccRow[J] + Bias;
  }
}

/// Stores the live part of a tile into the NCHW output. The tile covers
/// output rows [I0, I0+Rows) and flat columns [J0, J0+Cols); flat column
/// (B * Plane + P) is pixel P of batch item B, so the tile is split at
/// batch boundaries into contiguous segments.
void storeTile(const float Acc[MR][NR], float *Out, size_t M, size_t Plane,
               size_t I0, size_t Rows, size_t J0, size_t Cols,
               const GemmEpilogue &Ep) {
  size_t Done = 0;
  while (Done != Cols) {
    const size_t Flat = J0 + Done;
    const size_t Batch = Flat / Plane;
    const size_t Pixel = Flat % Plane;
    const size_t Seg = std::min(Cols - Done, Plane - Pixel);
    float *Base = Out + Batch * M * Plane + Pixel;
    for (size_t R = 0; R != Rows; ++R)
      storeRow(&Acc[R][Done], Base + (I0 + R) * Plane, Seg, I0 + R, Ep);
    Done += Seg;
  }
}

/// Computes the whole product: for each K x NC B-block, sweep every packed
/// A panel so the block stays cache-hot. A block's tail of fewer than NR
/// columns is copied once into a zero-filled K x NR buffer so it, too, runs
/// the full-width kernel; each column is its own fma chain and the padded
/// columns are never stored, so the live columns keep their bytes.
void runColumns(const float *Pack, const float *B, float *Out, size_t M,
                size_t K, size_t N, size_t Plane, const GemmEpilogue &Ep) {
  const size_t Panels = (M + MR - 1) / MR;
  float Acc[MR][NR];
  thread_local std::vector<float> Tail;
  for (size_t Jc = 0; Jc < N; Jc += NC) {
    const size_t JcEnd = std::min(Jc + NC, N);
    const size_t TailCols = (JcEnd - Jc) % NR;
    const size_t TailJ = JcEnd - TailCols;
    if (TailCols != 0) {
      Tail.assign(K * NR, 0.0f);
      for (size_t Kk = 0; Kk != K; ++Kk)
        std::memcpy(&Tail[Kk * NR], B + Kk * N + TailJ,
                    TailCols * sizeof(float));
    }
    for (size_t P = 0; P != Panels; ++P) {
      const float *Panel = Pack + P * K * MR;
      const size_t I0 = P * MR;
      const size_t Rows = std::min(MR, M - I0);
      for (size_t J = Jc; J < TailJ; J += NR) {
        microKernelFull(Panel, B + J, N, K, Acc);
        storeTile(Acc, Out, M, Plane, I0, Rows, J, NR, Ep);
      }
      if (TailCols != 0) {
        microKernelFull(Panel, Tail.data(), NR, K, Acc);
        storeTile(Acc, Out, M, Plane, I0, Rows, TailJ, TailCols, Ep);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Direct convolution
//===----------------------------------------------------------------------===//

/// Output channels per lane group of the direct kernel.
constexpr size_t DirectLanes = 16;

// A lane group holds the accumulators of DirectLanes consecutive output
// channels for one output pixel: one V16, two V8 without AVX-512, or a
// scalar array without FMA. fma(X, W) adds input value X times the
// DirectLanes packed weights at W, one contracted fma per lane as in
// microKernelFull.
#if defined(OPPSLA_GEMM_V16)
struct Lanes {
  V16 Acc = {};
  void fma(float X, const float *W) {
    V16 WV;
    std::memcpy(&WV, W, sizeof(V16));
    const V16 XV = {X, X, X, X, X, X, X, X, X, X, X, X, X, X, X, X};
    Acc = XV * WV + Acc; // contracts to one fused fma per lane
  }
  void store(float *Dst) const { std::memcpy(Dst, &Acc, sizeof(V16)); }
};
#elif defined(OPPSLA_GEMM_VECTOR_KERNEL)
struct Lanes {
  V8 Lo = {}, Hi = {};
  void fma(float X, const float *W) {
    V8 W0, W1;
    std::memcpy(&W0, W, sizeof(V8));
    std::memcpy(&W1, W + 8, sizeof(V8));
    const V8 XV = {X, X, X, X, X, X, X, X};
    Lo = XV * W0 + Lo; // contracts to one fused fma per lane
    Hi = XV * W1 + Hi;
  }
  void store(float *Dst) const {
    std::memcpy(Dst, &Lo, sizeof(V8));
    std::memcpy(Dst + 8, &Hi, sizeof(V8));
  }
};
#else
struct Lanes {
  float Acc[DirectLanes] = {};
  void fma(float X, const float *W) {
    for (size_t J = 0; J != DirectLanes; ++J)
      Acc[J] = std::fma(X, W[J], Acc[J]);
  }
  void store(float *Dst) const { std::memcpy(Dst, Acc, sizeof(Acc)); }
};
#endif

/// storeRow's epilogue for one accumulator of output row (channel) \p I.
inline float epilogue(float Acc, size_t I, const GemmEpilogue &Ep) {
  float V = Acc + (Ep.Bias ? Ep.Bias[I] : 0.0f);
  if (Ep.Scale)
    V = std::fma(V, Ep.Scale[I], Ep.Shift[I]);
  if (Ep.Relu)
    V = V > 0.0f ? V : 0.0f;
  return V;
}

/// Output pixels that share each packed weight load.
constexpr size_t PixelBlock = 4;

/// Output channels [M0, M0 + DirectLanes) of every pixel of \p C, in
/// blocks of PixelBlock pixels taken row-major across the rectangle. A
/// tail block repeats its last pixel; the repeats are never stored.
void directGroup(const float *Pack, size_t Ld, size_t M0, const DirectConv &C,
                 const GemmEpilogue &Ep) {
  const size_t Live = std::min(DirectLanes, C.M - M0);
  const size_t Pixels = C.Rows * C.Cols;
  for (size_t Q0 = 0; Q0 < Pixels; Q0 += PixelBlock) {
    const size_t Count = std::min(PixelBlock, Pixels - Q0);
    const float *Src[PixelBlock];
    float *Dst[PixelBlock];
    for (size_t P = 0; P != PixelBlock; ++P) {
      const size_t Q = Q0 + std::min(P, Count - 1);
      const size_t I = Q / C.Cols, J = Q % C.Cols;
      Src[P] = C.In + (I * C.InRow + J) * C.Stride;
      Dst[P] = C.Out + M0 * C.OutPlane + I * C.OutRow + J;
    }
    Lanes Acc[PixelBlock];
    const float *W = Pack + M0;
    for (size_t Ch = 0; Ch != C.InC; ++Ch) {
      for (size_t Ki = 0; Ki != C.Kernel; ++Ki) {
        const size_t Row = Ch * C.InPlane + Ki * C.InRow;
        for (size_t Kj = 0; Kj != C.Kernel; ++Kj, W += Ld)
          for (size_t P = 0; P != PixelBlock; ++P)
            Acc[P].fma(Src[P][Row + Kj], W);
      }
    }
    float Out[DirectLanes];
    for (size_t P = 0; P != Count; ++P) {
      Acc[P].store(Out);
      for (size_t L = 0; L != Live; ++L)
        Dst[P][L * C.OutPlane] = epilogue(Out[L], M0 + L, Ep);
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

void oppsla::gemmPackedConvOut(const float *Pack, const float *B, float *Out,
                               size_t M, size_t K, size_t NB, size_t Plane,
                               const GemmEpilogue &Ep) {
  assert((!Ep.Scale || Ep.Shift) && "Scale requires Shift");
  const size_t N = NB * Plane;
  if (N == 0 || M == 0)
    return;
  runColumns(Pack, B, Out, M, K, N, Plane, Ep);
}

void oppsla::gemmPacked(const float *Pack, const float *B, float *C, size_t M,
                        size_t K, size_t N, const GemmEpilogue &Ep) {
  // A row-major M x N output is the NB == 1 case of the NCHW store.
  gemmPackedConvOut(Pack, B, C, M, K, /*NB=*/1, /*Plane=*/N, Ep);
}

size_t oppsla::convDirectStride(size_t M) {
  return (M + DirectLanes - 1) / DirectLanes * DirectLanes;
}

void oppsla::convPackDirect(const float *A, size_t M, size_t K, float *Pack) {
  const size_t Ld = convDirectStride(M);
  for (size_t Kk = 0; Kk != K; ++Kk) {
    float *Row = Pack + Kk * Ld;
    for (size_t I = 0; I != M; ++I)
      Row[I] = A[I * K + Kk];
    for (size_t I = M; I != Ld; ++I)
      Row[I] = 0.0f;
  }
}

void oppsla::convDirect(const float *Pack, const DirectConv &C,
                        const GemmEpilogue &Ep) {
  assert((!Ep.Scale || Ep.Shift) && "Scale requires Shift");
  assert(C.Kernel != 0 && C.Stride != 0 && "direct conv geometry");
  if (C.Rows == 0 || C.Cols == 0 || C.M == 0)
    return;
  const size_t Ld = convDirectStride(C.M);
  for (size_t M0 = 0; M0 < C.M; M0 += DirectLanes)
    directGroup(Pack, Ld, M0, C, Ep);
}
