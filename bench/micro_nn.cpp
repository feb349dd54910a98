//===- bench/micro_nn.cpp - Microbenchmarks for the CNN substrate -------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the inference path that dominates
// every experiment: one black-box query = one batch-1 forward pass, timed
// both as the one-pixel delta an attack pays and as a full forward. Also
// measures the GEMM/im2col primitives and training steps.
//
//===----------------------------------------------------------------------===//

#include "classify/NNClassifier.h"
#include "nn/Loss.h"
#include "nn/ModelZoo.h"
#include "nn/Optimizer.h"
#include "support/ArgParse.h"
#include "support/BenchJson.h"
#include "support/BenchScale.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "tensor/TensorOps.h"

#include <benchmark/benchmark.h>

#include <cstring>

using namespace oppsla;

namespace {

void BM_Matmul(benchmark::State &State) {
  const auto N = static_cast<size_t>(State.range(0));
  Rng R(1);
  const Tensor A = Tensor::randn({N, N}, R);
  const Tensor B = Tensor::randn({N, N}, R);
  Tensor C({N, N});
  for (auto _ : State) {
    matmul(A, B, C);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(2 * N * N * N));
}
BENCHMARK(BM_Matmul)->Arg(16)->Arg(64)->Arg(128);

void BM_Im2Col(benchmark::State &State) {
  Rng R(2);
  const Tensor In = Tensor::randn({1, 8, 32, 32}, R);
  Tensor Cols({8 * 9, 32 * 32});
  for (auto _ : State) {
    im2col(In, 3, 3, 1, 1, Cols);
    benchmark::DoNotOptimize(Cols.data());
  }
}
BENCHMARK(BM_Im2Col);

/// The classifier under test for an (architecture, side) argument pair.
NNClassifier queryClassifier(const benchmark::State &State) {
  const Arch A = static_cast<Arch>(State.range(0));
  const auto Side = static_cast<size_t>(State.range(1));
  Rng R(3);
  return NNClassifier(buildModel(A, 10, Side, R), 10, archName(A));
}

Image uniformImage(size_t Side, uint64_t Seed) {
  Rng R(Seed);
  Image Img(Side, Side);
  for (float &V : Img.raw())
    V = R.uniformF();
  return Img;
}

/// The query an attack pays: the clean image with one pixel set to an
/// RGB-cube corner, a different pixel each iteration. The classifier keeps
/// the clean image as its reference and forwards each query as a delta.
void BM_OnePixelQuery(benchmark::State &State) {
  NNClassifier C = queryClassifier(State);
  const auto Side = static_cast<size_t>(State.range(1));
  const Image Clean = uniformImage(Side, 4);
  (void)C.scores(Clean);
  Image Query = Clean;
  size_t Loc = 0;
  for (auto _ : State) {
    const size_t Row = Loc / Side, Col = Loc % Side;
    Query.setPixel(Row, Col, Pixel{1.0f, 0.0f, 1.0f});
    const std::vector<float> S = C.scores(Query);
    benchmark::DoNotOptimize(S.data());
    Query.setPixel(Row, Col, Clean.pixel(Row, Col));
    Loc = (Loc + 1) % (Side * Side);
  }
  State.SetLabel(C.name() + "@" + std::to_string(Side));
}

/// A full forward per query: two unrelated images alternate, so every
/// query is far from the reference the previous one left behind.
void BM_FullForwardQuery(benchmark::State &State) {
  NNClassifier C = queryClassifier(State);
  const auto Side = static_cast<size_t>(State.range(1));
  const Image Imgs[2] = {uniformImage(Side, 4), uniformImage(Side, 5)};
  size_t Next = 0;
  for (auto _ : State) {
    const std::vector<float> S = C.scores(Imgs[Next]);
    benchmark::DoNotOptimize(S.data());
    Next ^= 1;
  }
  State.SetLabel(C.name() + "@" + std::to_string(Side));
}

void queryShapes(benchmark::internal::Benchmark *B) {
  B->Args({static_cast<long>(Arch::MiniVGG), 32})
      ->Args({static_cast<long>(Arch::MiniResNet), 32})
      ->Args({static_cast<long>(Arch::MiniGoogLeNet), 32})
      ->Args({static_cast<long>(Arch::MiniDenseNet), 32})
      ->Args({static_cast<long>(Arch::MiniDenseNet), 40})
      ->Args({static_cast<long>(Arch::MiniResNet50), 40});
}
BENCHMARK(BM_OnePixelQuery)->Apply(queryShapes);
BENCHMARK(BM_FullForwardQuery)->Apply(queryShapes);

void BM_TrainStep(benchmark::State &State) {
  Rng R(5);
  auto Net = buildModel(Arch::MiniVGG, 10, 32, R);
  Sgd Opt(Net->parameters(), 0.05f);
  CrossEntropy Loss;
  Rng DR(6);
  const Tensor Batch = Tensor::rand({16, 3, 32, 32}, DR);
  std::vector<size_t> Labels(16);
  for (size_t I = 0; I != 16; ++I)
    Labels[I] = I % 10;
  for (auto _ : State) {
    Opt.zeroGrad();
    Tensor Logits = Net->forward(Batch, /*Train=*/true);
    Loss.forward(Logits, Labels);
    Net->backward(Loss.backward());
    Opt.step();
    benchmark::DoNotOptimize(Logits.data());
  }
}
BENCHMARK(BM_TrainStep);

/// Console reporter that additionally captures each benchmark's adjusted
/// real time (in its display time unit, ns by default) so main() can fold
/// the results into the standard BENCH_<name>.json artifact.
class CaptureReporter : public benchmark::ConsoleReporter {
public:
  std::map<std::string, double> Times;

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs)
      if (!R.error_occurred && !R.report_big_o && !R.report_rms)
        Times[R.benchmark_name()] = R.GetAdjustedRealTime();
    ConsoleReporter::ReportRuns(Runs);
  }
};

} // namespace

// Custom main instead of BENCHMARK_MAIN(): strips the telemetry flags
// (--metrics-out / --trace-out / --json-out / profiler flags) before
// handing argv to google-benchmark; --profile-out captures the per-layer
// forward spans.
int main(int argc, char **argv) {
  const ArgParse Args(argc, argv);
  if (!oppsla::telemetry::configureFromArgs(Args))
    return 1;

  std::vector<char *> BenchArgv;
  for (int I = 0; I != argc; ++I) {
    const char *A = argv[I];
    // "--profile" also matches "--profile-out", "--stats-port" also
    // matches "--stats-port-file"; all of them are ours, not benchmark's.
    const bool Telemetry = std::strncmp(A, "--metrics-out", 13) == 0 ||
                           std::strncmp(A, "--trace-out", 11) == 0 ||
                           std::strncmp(A, "--json-out", 10) == 0 ||
                           std::strncmp(A, "--profile", 9) == 0 ||
                           std::strncmp(A, "--progress", 10) == 0 ||
                           std::strncmp(A, "--stats-port", 12) == 0 ||
                           std::strncmp(A, "--stats-linger", 14) == 0 ||
                           std::strncmp(A, "--repeat", 8) == 0 ||
                           std::strncmp(A, "--hw-counters", 13) == 0 ||
                           std::strncmp(A, "--ledger", 8) == 0;
    if (Telemetry) {
      // Skip a separate `--flag value` operand as ArgParse would.
      if (std::strchr(A, '=') == nullptr && I + 1 < argc &&
          std::strncmp(argv[I + 1], "--", 2) != 0)
        ++I;
      continue;
    }
    BenchArgv.push_back(argv[I]);
  }
  int BenchArgc = static_cast<int>(BenchArgv.size());
  benchmark::Initialize(&BenchArgc, BenchArgv.data());
  CaptureReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();

  BenchJson BJ("micro_nn", BenchScale::fromEnv().Name, Args);
  for (const auto &[Name, RealTime] : Reporter.Times)
    BJ.set(Name + "_ns", RealTime);
  if (!BJ.writeFromArgs(Args))
    return 1;
  oppsla::telemetry::finalizeTelemetry();
  return 0;
}
