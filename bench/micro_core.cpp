//===- bench/micro_core.cpp - Microbenchmarks for the core library ------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the attack-side data structures:
// pair space construction/ordering, queue operations (the DESIGN.md §5.1
// ablation: intrusive linked queue vs a naive vector queue), condition
// evaluation, and a full sketch sweep against a trivial classifier (pure
// orchestration overhead, no CNN).
//
//===----------------------------------------------------------------------===//

#include "core/Mutation.h"
#include "core/Sketch.h"
#include "support/ArgParse.h"
#include "support/BenchJson.h"
#include "support/BenchScale.h"
#include "support/Metrics.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

using namespace oppsla;

namespace {

Image randomImage(size_t Side, uint64_t Seed) {
  Rng R(Seed);
  Image Img(Side, Side);
  for (float &V : Img.raw())
    V = R.uniformF();
  return Img;
}

void BM_PairSpaceConstruct(benchmark::State &State) {
  const Image X = randomImage(static_cast<size_t>(State.range(0)), 1);
  for (auto _ : State) {
    PairSpace Space(X);
    benchmark::DoNotOptimize(Space.size());
  }
}
BENCHMARK(BM_PairSpaceConstruct)->Arg(16)->Arg(32)->Arg(64);

void BM_PairSpaceInitialOrder(benchmark::State &State) {
  const Image X = randomImage(static_cast<size_t>(State.range(0)), 2);
  const PairSpace Space(X);
  for (auto _ : State) {
    auto Order = Space.initialOrder();
    benchmark::DoNotOptimize(Order.data());
  }
}
BENCHMARK(BM_PairSpaceInitialOrder)->Arg(16)->Arg(32)->Arg(64);

void BM_PairQueueChurn(benchmark::State &State) {
  const Image X = randomImage(32, 3);
  const PairSpace Space(X);
  const auto Order = Space.initialOrder();
  Rng R(4);
  for (auto _ : State) {
    PairQueue Q(Order, Space.size());
    // Mix of the operations the sketch performs.
    while (Q.size() > 8) {
      const PairId Front = Q.popFront();
      benchmark::DoNotOptimize(Front);
      for (int K = 0; K != 3; ++K) {
        const PairId Id = static_cast<PairId>(R.bounded(Space.size()));
        if (Q.contains(Id))
          Q.pushBack(Id);
      }
      const PairId Id = static_cast<PairId>(R.bounded(Space.size()));
      if (Q.contains(Id))
        Q.remove(Id);
    }
  }
}
BENCHMARK(BM_PairQueueChurn);

/// Naive reference queue built on std::vector erase/push_back, for the
/// DESIGN.md queue-representation ablation.
void BM_NaiveVectorQueueChurn(benchmark::State &State) {
  const Image X = randomImage(32, 3);
  const PairSpace Space(X);
  const auto Order = Space.initialOrder();
  Rng R(4);
  for (auto _ : State) {
    std::vector<PairId> Q = Order;
    while (Q.size() > 8) {
      const PairId Front = Q.front();
      Q.erase(Q.begin());
      benchmark::DoNotOptimize(Front);
      for (int K = 0; K != 3; ++K) {
        const PairId Id = static_cast<PairId>(R.bounded(Space.size()));
        auto It = std::find(Q.begin(), Q.end(), Id);
        if (It != Q.end()) {
          Q.erase(It);
          Q.push_back(Id);
        }
      }
      const PairId Id = static_cast<PairId>(R.bounded(Space.size()));
      auto It = std::find(Q.begin(), Q.end(), Id);
      if (It != Q.end())
        Q.erase(It);
    }
  }
}
BENCHMARK(BM_NaiveVectorQueueChurn);

void BM_ConditionEval(benchmark::State &State) {
  const Program P = paperExampleProgram();
  CondEnv Env;
  Env.OriginalPixel = Pixel{0.3f, 0.6f, 0.1f};
  Env.PerturbPixel = cornerPixel(5);
  Env.ScoreDiff = 0.22;
  Env.CenterDist = 7.0;
  for (auto _ : State) {
    bool Acc = false;
    for (const Condition &C : P.Conds)
      Acc ^= evalCondition(C, Env);
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_ConditionEval);

void BM_MutateProgram(benchmark::State &State) {
  MutationContext Ctx{32};
  Rng R(7);
  Program P = randomProgram(Ctx, R);
  for (auto _ : State) {
    P = mutateProgram(P, Ctx, R);
    benchmark::DoNotOptimize(P.Conds[0].Threshold);
  }
}
BENCHMARK(BM_MutateProgram);

/// Trivial always-robust classifier isolates sketch orchestration cost.
class NullClassifier : public Classifier {
public:
  std::vector<float> scores(const Image &) override {
    return {0.9f, 0.1f};
  }
  size_t numClasses() const override { return 2; }
};

void BM_SketchFullSweep(benchmark::State &State) {
  const Image X = randomImage(static_cast<size_t>(State.range(0)), 8);
  NullClassifier N;
  const Sketch Sk(paperExampleProgram());
  for (auto _ : State) {
    const SketchResult R = Sk.run(N, X, 0);
    benchmark::DoNotOptimize(R.Queries);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(X.numPixels() * 8));
}
BENCHMARK(BM_SketchFullSweep)->Arg(16)->Arg(32);

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

// Custom main: accepts the standard telemetry flags (stripped before argv
// reaches google-benchmark) so sketch-sweep query traces can be captured.
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

  BenchJson BJ("micro_core", BenchScale::fromEnv().Name, Args);
  for (const auto &[Name, RealTime] : Reporter.Times)
    BJ.set(Name + "_ns", RealTime);
  if (!BJ.writeFromArgs(Args))
    return 1;
  oppsla::telemetry::finalizeTelemetry();
  return 0;
}
