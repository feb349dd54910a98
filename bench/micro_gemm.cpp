//===- bench/micro_gemm.cpp - Packed SGEMM microbenchmark ---------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// GFLOP/s of the packed, register-blocked GEMM (tensor/Gemm.h) against the
// scalar reference matmul, at the conv shapes the zoo actually lowers to:
// M = OutC, K = InC*KH*KW, N = Batch*OH*OW. Each timed iteration includes
// the A-panel repack. Conv2d and Linear pay that repack only on the first
// forward after a parameter write (DESIGN.md §12), not per call; it stays
// in the loop so the figures remain comparable with earlier ledger rows.
// Emits BENCH_gemm.json (schema 2) for the bench ledger; `peak_gflops` is
// the gate_manifest.json ratio-ruled headline, so a kernel regression
// fails `ctest -R bench_gate` once the artifact is ingested.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/BenchJson.h"
#include "support/BenchScale.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "tensor/Gemm.h"
#include "tensor/TensorOps.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <vector>

using namespace oppsla;

namespace {

struct GemmShape {
  size_t M, K, N;
  const char *What; // which zoo conv this shape comes from
};

std::string key(const GemmShape &S) {
  std::ostringstream O;
  O << S.M << "x" << S.K << "x" << S.N;
  return O.str();
}

/// Best-of-\p Repeats GFLOP/s for \p Body, each repeat looping until it
/// has run at least \p MinSeconds.
template <typename Fn>
double bestGflops(const GemmShape &S, size_t Repeats, double MinSeconds,
                  Fn &&Body) {
  const double Flops = 2.0 * S.M * S.K * S.N;
  double Best = 0.0;
  for (size_t R = 0; R != Repeats; ++R) {
    size_t Iters = 0;
    const auto Start = std::chrono::steady_clock::now();
    double Elapsed = 0.0;
    do {
      Body();
      ++Iters;
      Elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    } while (Elapsed < MinSeconds);
    Best = std::max(Best, Flops * Iters / Elapsed / 1e9);
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  const ArgParse Args(argc, argv);
  kernels::configureFromArgs(Args);
  const BenchScale Scale = BenchScale::fromEnv();
  const size_t Repeats = Scale.Name == "smoke" ? 2 : 5;
  const double MinSeconds = Scale.Name == "smoke" ? 0.02 : 0.2;

  // M = OutC, K = InC*KH*KW, N = Batch*OH*OW for the lowered convs.
  const GemmShape Shapes[] = {
      {16, 27, 1024, "stem 3x3, 3->16, batch 4 @ 16x16"},
      {16, 144, 1024, "body 3x3, 16->16, batch 4 @ 16x16"},
      {32, 288, 256, "strided 3x3, 32->32, batch 4 @ 8x8"},
      {64, 576, 64, "deepest 3x3, 64->64, batch 4 @ 4x4"},
  };

  std::cout << "== Packed SGEMM vs scalar reference (scale: " << Scale.Name
            << ", best of " << Repeats << ") ==\n\n";

  BenchJson BJ("gemm", Scale.Name, Args);
  Table T({"shape MxKxN", "conv", "fast GF/s", "naive GF/s", "speedup"});
  double PeakFast = 0.0, PeakSpeedup = 0.0;
  for (const GemmShape &S : Shapes) {
    Rng R(0xBEEF + S.K);
    const Tensor A = Tensor::randn({S.M, S.K}, R);
    const Tensor B = Tensor::randn({S.K, S.N}, R);
    Tensor C({S.M, S.N});
    std::vector<float> Pack(gemmPackedSize(S.M, S.K));

    const double Fast = bestGflops(S, Repeats, MinSeconds, [&] {
      gemmPackA(A.data(), S.M, S.K, Pack.data());
      gemmPacked(Pack.data(), B.data(), C.data(), S.M, S.K, S.N,
                 GemmEpilogue{});
    });
    const double Naive = bestGflops(S, Repeats, MinSeconds,
                                    [&] { matmul(A, B, C); });
    const double Speedup = Naive > 0 ? Fast / Naive : 0.0;
    PeakFast = std::max(PeakFast, Fast);
    PeakSpeedup = std::max(PeakSpeedup, Speedup);

    T.addRow({key(S), S.What, Table::fmt(Fast, 2), Table::fmt(Naive, 2),
              Table::fmt(Speedup, 2) + "x"});
    BJ.set("fast_gflops." + key(S), Fast);
    BJ.set("naive_gflops." + key(S), Naive);
    BJ.set("speedup." + key(S), Speedup);
  }
  T.print(std::cout);

  BJ.set("peak_gflops", PeakFast);
  BJ.set("peak_speedup_vs_naive", PeakSpeedup);
  if (!BJ.writeFromArgs(Args))
    return 1;
  return 0;
}
