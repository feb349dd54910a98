//===- tests/core/SynthesizerTest.cpp - Algorithm 2 tests ---------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Synthesizer.h"
#include "eval/ProgramStore.h"
#include "support/Metrics.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <mutex>

using namespace oppsla;
using namespace oppsla::test;

namespace {

/// A tiny world where synthesis has something to learn: images are
/// vulnerable exactly at their center pixel with the white corner. A good
/// program (center-prioritizing eager conditions) finds it in very few
/// queries; the fixed order still finds it (center-first ordering), so
/// both succeed but with different query counts when the vulnerable spot
/// is *off*-center.
FakeClassifier offCenterVulnerable(uint16_t Row, uint16_t Col) {
  return FakeClassifier(2, [Row, Col](const Image &X) {
    if (X.pixel(Row, Col) == cornerPixel(7))
      return std::vector<float>{0.2f, 0.8f};
    // Confidence depends mildly on the probed pixel's brightness so that
    // score_diff conditions see varied values.
    return std::vector<float>{0.9f, 0.1f};
  });
}

Dataset tinyTrainSet(size_t N, size_t Side) {
  Dataset DS;
  DS.NumClasses = 2;
  for (size_t I = 0; I != N; ++I) {
    DS.Images.push_back(randomImage(Side, Side, 100 + I));
    DS.Labels.push_back(0);
  }
  return DS;
}

} // namespace

TEST(EvaluateProgram, CountsSuccessesAndQueries) {
  FakeClassifier N = offCenterVulnerable(0, 0);
  const Dataset Train = tinyTrainSet(3, 4);
  const ProgramEval Eval =
      evaluateProgram(allFalseProgram(), N, Train, /*PerImageCap=*/1000);
  EXPECT_EQ(Eval.Attacks, 3u);
  EXPECT_EQ(Eval.Successes, 3u);
  EXPECT_GT(Eval.AvgQueries, 1.0);
  EXPECT_GE(Eval.TotalQueries,
            static_cast<uint64_t>(Eval.AvgQueries * 3));
}

TEST(EvaluateProgram, FailuresExcludedFromAverage) {
  FakeClassifier N = robustClassifier(2);
  const Dataset Train = tinyTrainSet(2, 4);
  const ProgramEval Eval =
      evaluateProgram(allFalseProgram(), N, Train, 50);
  EXPECT_EQ(Eval.Successes, 0u);
  EXPECT_DOUBLE_EQ(Eval.AvgQueries, 0.0);
  EXPECT_EQ(Eval.TotalQueries, 100u) << "two capped runs of 50";
}

TEST(EvaluateProgram, RespectsPerImageCap) {
  FakeClassifier N = robustClassifier(2);
  const Dataset Train = tinyTrainSet(1, 4);
  const ProgramEval Eval =
      evaluateProgram(allFalseProgram(), N, Train, 7);
  EXPECT_EQ(Eval.TotalQueries, 7u);
}

TEST(ProgramEvalScore, MonotoneInQueries) {
  ProgramEval A, B;
  A.Successes = B.Successes = 1;
  A.AvgQueries = 10.0;
  B.AvgQueries = 100.0;
  EXPECT_GT(A.score(0.02), B.score(0.02));
  EXPECT_NEAR(A.score(0.02), std::exp(-0.2), 1e-9);
}

TEST(ProgramEvalScore, ZeroSuccessesScoreZero) {
  ProgramEval E;
  E.AvgQueries = 0.0;
  EXPECT_DOUBLE_EQ(E.score(0.02), 0.0);
}

TEST(Synthesizer, TraceShapeAndMonotonicity) {
  FakeClassifier N = offCenterVulnerable(1, 1);
  const Dataset Train = tinyTrainSet(2, 4);
  SynthesisConfig Config;
  Config.MaxIter = 8;
  Config.PerImageQueryCap = 200;
  Config.Seed = 3;
  std::vector<SynthesisStep> Trace;
  synthesizeProgram(N, Train, Config, &Trace);
  ASSERT_EQ(Trace.size(), 9u) << "initial program + MaxIter iterations";
  EXPECT_EQ(Trace.front().Iteration, 0u);
  EXPECT_TRUE(Trace.front().Accepted);
  uint64_t Prev = 0;
  for (const SynthesisStep &Step : Trace) {
    EXPECT_GE(Step.CumulativeQueries, Prev)
        << "cumulative synthesis queries must be non-decreasing";
    Prev = Step.CumulativeQueries;
  }
}

TEST(Synthesizer, DeterministicGivenSeed) {
  const Dataset Train = tinyTrainSet(2, 4);
  SynthesisConfig Config;
  Config.MaxIter = 5;
  Config.PerImageQueryCap = 128;
  Config.Seed = 11;
  FakeClassifier N1 = offCenterVulnerable(2, 3);
  FakeClassifier N2 = offCenterVulnerable(2, 3);
  const Program A = synthesizeProgram(N1, Train, Config);
  const Program B = synthesizeProgram(N2, Train, Config);
  for (size_t I = 0; I != 4; ++I) {
    EXPECT_EQ(A.Conds[I].Func, B.Conds[I].Func);
    EXPECT_EQ(A.Conds[I].Cmp, B.Conds[I].Cmp);
    EXPECT_DOUBLE_EQ(A.Conds[I].Threshold, B.Conds[I].Threshold);
  }
}

TEST(Synthesizer, ImprovesOverInitialProgramOnAverage) {
  // The planted vulnerability is off-center, so the default ordering pays
  // a positional penalty that good conditions can reduce. Check that the
  // final program is no worse than the initial random one.
  FakeClassifier N = offCenterVulnerable(0, 3);
  const Dataset Train = tinyTrainSet(4, 5);
  SynthesisConfig Config;
  Config.MaxIter = 25;
  Config.PerImageQueryCap = 400;
  Config.Seed = 7;
  std::vector<SynthesisStep> Trace;
  const Program Final = synthesizeProgram(N, Train, Config, &Trace);

  FakeClassifier NEval = offCenterVulnerable(0, 3);
  const double FinalAvg =
      evaluateProgram(Final, NEval, Train, 400).AvgQueries;
  EXPECT_LE(FinalAvg, Trace.front().AvgQueries * 1.25 + 1.0)
      << "MH should not drift far above the starting point";
}

namespace {

bool samePrograms(const Program &A, const Program &B) {
  for (size_t I = 0; I != 4; ++I)
    if (A.Conds[I].Func != B.Conds[I].Func ||
        A.Conds[I].Source != B.Conds[I].Source ||
        A.Conds[I].Cmp != B.Conds[I].Cmp ||
        A.Conds[I].Threshold != B.Conds[I].Threshold)
      return false;
  return true;
}

} // namespace

TEST(IslandSynthesis, DeterministicAcrossThreadCounts) {
  // The island result is a pure function of (Seed, Islands,
  // ExchangeInterval): islands score on their own clones, per-image
  // results reduce in index order and exchanges consume no randomness, so
  // the thread count can never leak into a program byte.
  const Dataset Train = tinyTrainSet(3, 4);
  SynthesisConfig Config;
  Config.MaxIter = 10;
  Config.PerImageQueryCap = 128;
  Config.Seed = 17;
  Config.Islands = 4;
  Config.ExchangeInterval = 3;

  FakeClassifier N1 = offCenterVulnerable(2, 1);
  Config.Threads = 1;
  std::vector<IslandElite> E1;
  const Program A = synthesizeProgram(N1, Train, Config, nullptr, &E1);
  ASSERT_EQ(E1.size(), 4u);

  // 4 threads run the islands concurrently; 8 also give each island two
  // candidate scorers.
  for (size_t Threads : {4, 8}) {
    FakeClassifier N2 = offCenterVulnerable(2, 1);
    Config.Threads = Threads;
    std::vector<IslandElite> E2;
    const Program B = synthesizeProgram(N2, Train, Config, nullptr, &E2);

    EXPECT_TRUE(samePrograms(A, B)) << Threads << " threads";
    ASSERT_EQ(E2.size(), 4u);
    for (size_t I = 0; I != 4; ++I) {
      EXPECT_TRUE(samePrograms(E1[I].P, E2[I].P)) << "island " << I;
      EXPECT_DOUBLE_EQ(E1[I].Score, E2[I].Score) << "island " << I;
      EXPECT_DOUBLE_EQ(E1[I].Eval.AvgQueries, E2[I].Eval.AvgQueries);
    }
  }
}

TEST(IslandSynthesis, EliteExchangeDeterministicAndBestReturned) {
  // Two identical runs agree byte for byte, the elite vector has one
  // entry per island, and the returned program is the first-wins argmax
  // over the island elites (best-seen semantics).
  const Dataset Train = tinyTrainSet(2, 4);
  SynthesisConfig Config;
  Config.MaxIter = 9;
  Config.PerImageQueryCap = 200;
  Config.Seed = 23;
  Config.Islands = 3;
  Config.ExchangeInterval = 2;

  FakeClassifier N1 = offCenterVulnerable(1, 2);
  std::vector<IslandElite> E1;
  const Program A = synthesizeProgram(N1, Train, Config, nullptr, &E1);
  FakeClassifier N2 = offCenterVulnerable(1, 2);
  std::vector<IslandElite> E2;
  const Program B = synthesizeProgram(N2, Train, Config, nullptr, &E2);

  EXPECT_TRUE(samePrograms(A, B));
  ASSERT_EQ(E1.size(), 3u);
  size_t BestIdx = 0;
  for (size_t I = 1; I != E1.size(); ++I)
    if (E1[I].Score > E1[BestIdx].Score)
      BestIdx = I;
  EXPECT_TRUE(samePrograms(A, E1[BestIdx].P))
      << "returned program must be the best island elite";
  for (size_t I = 0; I != E1.size(); ++I)
    EXPECT_LE(E1[I].Score, E1[BestIdx].Score);
}

TEST(IslandSynthesis, TraceRecordsEliteTrajectoryPerRound) {
  // Islands > 1 traces the elite trajectory: step 0 is the best initial
  // program, then one step per exchange round with cumulative queries
  // summed across islands, non-decreasing.
  const Dataset Train = tinyTrainSet(2, 4);
  SynthesisConfig Config;
  Config.MaxIter = 10;
  Config.PerImageQueryCap = 128;
  Config.Seed = 5;
  Config.Islands = 2;
  Config.ExchangeInterval = 4;
  FakeClassifier N = offCenterVulnerable(0, 1);
  std::vector<SynthesisStep> Trace;
  synthesizeProgram(N, Train, Config, &Trace);
  // Rounds: ceil(10 / 4) = 3, plus the initial step.
  ASSERT_EQ(Trace.size(), 4u);
  EXPECT_EQ(Trace.front().Iteration, 0u);
  EXPECT_TRUE(Trace.front().Accepted);
  EXPECT_EQ(Trace.back().Iteration, 10u);
  uint64_t Prev = 0;
  for (const SynthesisStep &Step : Trace) {
    EXPECT_GE(Step.CumulativeQueries, Prev);
    Prev = Step.CumulativeQueries;
  }
}

TEST(IslandSynthesis, SingleIslandKeepsLegacyChain) {
  // Islands == 1 must stay byte-identical to the pre-island synthesizer:
  // same trace shape, same program as a default-config run.
  const Dataset Train = tinyTrainSet(2, 4);
  SynthesisConfig Legacy;
  Legacy.MaxIter = 6;
  Legacy.PerImageQueryCap = 128;
  Legacy.Seed = 29;
  SynthesisConfig OneIsland = Legacy;
  OneIsland.Islands = 1;
  OneIsland.ExchangeInterval = 2; // a single island never exchanges

  FakeClassifier N1 = offCenterVulnerable(3, 0);
  std::vector<SynthesisStep> T1;
  const Program A = synthesizeProgram(N1, Train, Legacy, &T1);
  FakeClassifier N2 = offCenterVulnerable(3, 0);
  std::vector<SynthesisStep> T2;
  const Program B = synthesizeProgram(N2, Train, OneIsland, &T2);

  EXPECT_TRUE(samePrograms(A, B));
  ASSERT_EQ(T1.size(), T2.size());
  ASSERT_EQ(T1.size(), 7u) << "initial program + MaxIter iterations";
  for (size_t I = 0; I != T1.size(); ++I) {
    EXPECT_EQ(T1[I].Accepted, T2[I].Accepted);
    EXPECT_EQ(T1[I].CumulativeQueries, T2[I].CumulativeQueries);
  }

  // Recorded from the single-chain synthesizer the island loop replaced,
  // which scored candidates in parallel at Threads > 1: the program (in
  // the store's exact text form), its elite stats and the cumulative
  // queries of every step. Islands = 0 means one island.
  const std::string Expected = "3 0 1 -0.11941676050590744\n"
                               "1 1 1 0.18073791803479344\n"
                               "1 1 1 0.020724403452560214\n"
                               "1 0 1 0.57993312678216713\n";
  const uint64_t Cumulative[] = {103, 206, 308, 339, 370, 401, 432};
  const std::pair<size_t, size_t> IslandsThreads[] = {{1, 1}, {1, 4}, {0, 1}};
  for (const auto &[Islands, Threads] : IslandsThreads) {
    SCOPED_TRACE(testing::Message() << "islands=" << Islands
                                    << " threads=" << Threads);
    SynthesisConfig Config = OneIsland;
    Config.Islands = Islands;
    Config.Threads = Threads;
    FakeClassifier N = offCenterVulnerable(3, 0);
    std::vector<SynthesisStep> T;
    std::vector<IslandElite> E;
    const Program P = synthesizeProgram(N, Train, Config, &T, &E);

    EXPECT_EQ(programToStoreText(P), Expected);
    ASSERT_EQ(E.size(), 1u);
    EXPECT_EQ(programToStoreText(E[0].P), Expected);
    EXPECT_EQ(E[0].Eval.AvgQueries, 15.5);
    EXPECT_EQ(E[0].Eval.Successes, 2u);
    EXPECT_EQ(E[0].Eval.Attacks, 2u);
    EXPECT_EQ(E[0].Eval.TotalQueries, 31u);
    EXPECT_DOUBLE_EQ(E[0].Score, 0.73344695622428924);
    ASSERT_EQ(T.size(), 7u);
    for (size_t I = 0; I != T.size(); ++I)
      EXPECT_EQ(T[I].CumulativeQueries, Cumulative[I]) << "step " << I;
  }
}

namespace {

/// Forwards of a CountingClassifier and its clones, per image.
struct ForwardLog {
  std::mutex Mu;
  std::map<std::vector<float>, size_t> PerImage; ///< pixel bytes -> count
};

/// Logs every forward of \p Inner, and of its clones, into one shared
/// ForwardLog.
class CountingClassifier : public Classifier {
public:
  CountingClassifier(std::unique_ptr<Classifier> Inner,
                     std::shared_ptr<ForwardLog> Log)
      : Inner(std::move(Inner)), Log(std::move(Log)) {}

  std::vector<float> scores(const Image &Img) override {
    {
      std::lock_guard<std::mutex> Lock(Log->Mu);
      ++Log->PerImage[Img.raw()];
    }
    return Inner->scores(Img);
  }
  size_t numClasses() const override { return Inner->numClasses(); }
  std::unique_ptr<Classifier> clone() const override {
    return std::make_unique<CountingClassifier>(Inner->clone(), Log);
  }

private:
  std::unique_ptr<Classifier> Inner;
  std::shared_ptr<ForwardLog> Log;
};

} // namespace

TEST(IslandSynthesis, MemoForwardsNoImageTwice) {
  // Every island shares one memo per training image, so no image is
  // forwarded twice, not even with two islands scoring the same images
  // at once. The memo saves forwards, not queries: synth.queries is the
  // count the memo-less synthesizer posed.
  const Dataset Train = tinyTrainSet(3, 4);
  SynthesisConfig Config;
  Config.MaxIter = 10;
  Config.PerImageQueryCap = 128;
  Config.Seed = 17;
  Config.Islands = 4;
  Config.ExchangeInterval = 3;
  Config.Threads = 2;

  auto Log = std::make_shared<ForwardLog>();
  CountingClassifier N(
      std::make_unique<FakeClassifier>(offCenterVulnerable(2, 1)), Log);
  telemetry::Counter &SynthQueries = telemetry::counter("synth.queries");
  const uint64_t Before = SynthQueries.value();
  std::vector<SynthesisStep> Trace;
  synthesizeProgram(N, Train, Config, &Trace);
  const uint64_t Queries = SynthQueries.value() - Before;

  // Recorded from the synthesizer before it had memos, when every query
  // was a forward.
  EXPECT_EQ(Queries, 5262u);
  EXPECT_EQ(Trace.back().CumulativeQueries, Queries);
  size_t Forwards = 0;
  for (const auto &[Bytes, Count] : Log->PerImage) {
    EXPECT_EQ(Count, 1u) << "an image was forwarded " << Count << " times";
    Forwards += Count;
  }
  EXPECT_LT(Forwards, Queries);
}

TEST(RandomSearchProgram, ReturnsBestOfSamples) {
  FakeClassifier N = offCenterVulnerable(1, 2);
  const Dataset Train = tinyTrainSet(3, 4);
  const Program Best =
      randomSearchProgram(N, Train, /*NumSamples=*/12, 300, /*Seed=*/5);
  // The returned program must attack successfully.
  FakeClassifier NEval = offCenterVulnerable(1, 2);
  const ProgramEval Eval = evaluateProgram(Best, NEval, Train, 300);
  EXPECT_EQ(Eval.Successes, 3u);
}

TEST(RandomSearchProgram, FallsBackWhenNothingSucceeds) {
  FakeClassifier N = robustClassifier(2);
  const Dataset Train = tinyTrainSet(1, 4);
  const Program P = randomSearchProgram(N, Train, 3, 20, 9);
  // Falls back to the all-False program; evaluate it to confirm validity.
  FakeClassifier NEval = robustClassifier(2);
  const ProgramEval Eval = evaluateProgram(P, NEval, Train, 20);
  EXPECT_EQ(Eval.Successes, 0u);
}
