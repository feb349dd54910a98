//===- tests/eval/ParallelEvalTest.cpp - Determinism under parallelism --------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the repo's determinism contract after per-run RNG isolation
// (support/Rng.h: Rng::deriveRunSeed):
//
//   1. An attack run is a pure function of (attack seed, image) — never of
//      how many attacks ran before it (the old long-lived member Rng made
//      results depend on dataset order).
//   2. Consequently, sweeping a shuffled test set yields exactly the
//      per-image results of the unshuffled sweep, permuted; sweeping a
//      subset yields the corresponding slice.
//   3. And the parallel sweeps (--threads N) are bit-identical to serial,
//      for attacks, program sweeps, and synthesis candidate scoring.
//   4. A fan-out whose classifier throws rethrows only once every worker
//      has stopped, so no worker still reads the caller's unwound frame.
//
//===----------------------------------------------------------------------===//

#include "attacks/RandomPairSearch.h"
#include "attacks/SparseRS.h"
#include "core/Synthesizer.h"
#include "engine/QueryEngine.h"
#include "eval/Evaluation.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

using namespace oppsla;
using namespace oppsla::test;

namespace {

/// Flips to class 1 whenever any pixel is nearly white; success/queries
/// depend on the attack's random choices, making RNG reuse visible.
FakeClassifier whitePixelVulnerable() {
  return FakeClassifier(2, [](const Image &X) {
    for (size_t I = 0; I != X.height(); ++I)
      for (size_t J = 0; J != X.width(); ++J) {
        const Pixel P = X.pixel(I, J);
        if (P.R > 0.95f && P.G > 0.95f && P.B > 0.95f)
          return std::vector<float>{0.1f, 0.9f};
      }
    return std::vector<float>{0.9f, 0.1f};
  });
}

/// A handful of distinct images (distinct content hashes -> distinct
/// per-run RNG streams), all labeled 0.
Dataset distinctImageSet(size_t Count) {
  Dataset DS;
  DS.NumClasses = 2;
  for (size_t I = 0; I != Count; ++I) {
    DS.Images.push_back(randomImage(6, 6, /*Seed=*/1000 + I));
    DS.Labels.push_back(0);
  }
  return DS;
}

bool sameLog(const AttackRunLog &A, const AttackRunLog &B) {
  return A.Label == B.Label && A.Discarded == B.Discarded &&
         A.Success == B.Success && A.Queries == B.Queries;
}

} // namespace

TEST(RngIsolation, AttackIsPureFunctionOfSeedAndImage) {
  FakeClassifier N = whitePixelVulnerable();
  SparseRS A;
  const Image X = randomImage(6, 6, 42);
  const Image Y = randomImage(6, 6, 43);

  const AttackResult First = A.attack(N, X, 0, 3000);
  // Interleave attacks on other images; with a long-lived member RNG these
  // would advance the stream and change the replay below.
  A.attack(N, Y, 0, 3000);
  A.attack(N, randomImage(6, 6, 44), 0, 3000);
  const AttackResult Replay = A.attack(N, X, 0, 3000);

  EXPECT_EQ(Replay.Success, First.Success);
  EXPECT_EQ(Replay.Queries, First.Queries);
  EXPECT_EQ(Replay.Loc.Row, First.Loc.Row);
  EXPECT_EQ(Replay.Loc.Col, First.Loc.Col);
}

TEST(RngIsolation, DistinctImagesGetDistinctStreams) {
  // Same attack, same budget, different images: the runs must not replay
  // one RNG stream (equal query counts on several distinct random images
  // would be a red flag for a shared stream reset per run).
  FakeClassifier N = whitePixelVulnerable();
  RandomPairSearch A(/*Seed=*/5);
  const Dataset DS = distinctImageSet(6);
  std::set<uint64_t> Queries;
  for (size_t I = 0; I != DS.size(); ++I)
    Queries.insert(A.attack(N, DS.Images[I], 0, Attack::Unlimited).Queries);
  EXPECT_GT(Queries.size(), 1u);
}

TEST(RngIsolation, ShuffledSweepIsAPermutationOfUnshuffled) {
  const Dataset DS = distinctImageSet(8);

  // A fixed permutation of the set.
  std::vector<size_t> Perm(DS.size());
  std::iota(Perm.begin(), Perm.end(), 0);
  Rng ShuffleRng(7);
  ShuffleRng.shuffle(Perm);

  Dataset Shuffled;
  Shuffled.NumClasses = DS.NumClasses;
  for (size_t K : Perm) {
    Shuffled.Images.push_back(DS.Images[K]);
    Shuffled.Labels.push_back(DS.Labels[K]);
  }

  FakeClassifier N1 = whitePixelVulnerable();
  SparseRS A1;
  const auto Logs = runAttackOverSet(A1, N1, DS, 3000);

  FakeClassifier N2 = whitePixelVulnerable();
  SparseRS A2;
  const auto ShuffledLogs = runAttackOverSet(A2, N2, Shuffled, 3000);

  ASSERT_EQ(ShuffledLogs.size(), Logs.size());
  for (size_t K = 0; K != Perm.size(); ++K)
    EXPECT_TRUE(sameLog(ShuffledLogs[K], Logs[Perm[K]]))
        << "position " << K << " (image " << Perm[K] << ")";
}

TEST(RngIsolation, SubsetSweepMatchesFullSweepSlice) {
  const Dataset DS = distinctImageSet(8);
  Dataset Subset;
  Subset.NumClasses = DS.NumClasses;
  for (size_t K = 3; K != 6; ++K) {
    Subset.Images.push_back(DS.Images[K]);
    Subset.Labels.push_back(DS.Labels[K]);
  }

  FakeClassifier N1 = whitePixelVulnerable();
  SparseRS A1;
  const auto Full = runAttackOverSet(A1, N1, DS, 3000);

  FakeClassifier N2 = whitePixelVulnerable();
  SparseRS A2;
  const auto Slice = runAttackOverSet(A2, N2, Subset, 3000);

  ASSERT_EQ(Slice.size(), 3u);
  for (size_t K = 0; K != 3; ++K)
    EXPECT_TRUE(sameLog(Slice[K], Full[3 + K])) << "subset position " << K;
}

//===----------------------------------------------------------------------===//
// Parallel sweeps: bit-identical to serial
//===----------------------------------------------------------------------===//

TEST(ParallelEval, AttackSweepMatchesSerialExactly) {
  const Dataset DS = distinctImageSet(10);

  FakeClassifier N1 = whitePixelVulnerable();
  SparseRS A1;
  const auto Serial = runAttackOverSet(A1, N1, DS, 3000, /*Threads=*/1);

  for (size_t Threads : {2, 4, 7}) {
    FakeClassifier N2 = whitePixelVulnerable();
    SparseRS A2;
    const auto Parallel = runAttackOverSet(A2, N2, DS, 3000, Threads);
    ASSERT_EQ(Parallel.size(), Serial.size());
    for (size_t I = 0; I != Serial.size(); ++I)
      EXPECT_TRUE(sameLog(Parallel[I], Serial[I]))
          << "threads=" << Threads << " image=" << I;
  }
}

TEST(ParallelEval, ProgramSweepMatchesSerialExactly) {
  const Dataset DS = distinctImageSet(9);
  const std::vector<Program> Programs = {paperExampleProgram(),
                                         allFalseProgram()};

  FakeClassifier N1 = whitePixelVulnerable();
  const auto Serial = runProgramsOverSet(Programs, N1, DS, 2000,
                                         /*Threads=*/1);
  FakeClassifier N2 = whitePixelVulnerable();
  const auto Parallel = runProgramsOverSet(Programs, N2, DS, 2000,
                                           /*Threads=*/4);
  ASSERT_EQ(Parallel.size(), Serial.size());
  for (size_t I = 0; I != Serial.size(); ++I)
    EXPECT_TRUE(sameLog(Parallel[I], Serial[I])) << "image " << I;
}

TEST(ParallelEval, NonCloneableClassifierFallsBackToSerial) {
  // The base Classifier::clone() returns nullptr; the sweep must still
  // produce the serial answer rather than failing.
  class NoClone : public Classifier {
  public:
    std::vector<float> scores(const Image &X) override {
      const Pixel P = X.pixel(0, 0);
      if (P.R > 0.95f && P.G > 0.95f && P.B > 0.95f)
        return {0.1f, 0.9f};
      return {0.9f, 0.1f};
    }
    size_t numClasses() const override { return 2; }
  };

  const Dataset DS = distinctImageSet(4);
  NoClone N1, N2;
  SparseRS A1, A2;
  const auto Serial = runAttackOverSet(A1, N1, DS, 500, /*Threads=*/1);
  const auto Parallel = runAttackOverSet(A2, N2, DS, 500, /*Threads=*/4);
  ASSERT_EQ(Parallel.size(), Serial.size());
  for (size_t I = 0; I != Serial.size(); ++I)
    EXPECT_TRUE(sameLog(Parallel[I], Serial[I]));
}

TEST(ParallelEval, EvaluateProgramMatchesSerialExactly) {
  const Dataset DS = distinctImageSet(11);
  const Program P = paperExampleProgram();

  FakeClassifier N1 = whitePixelVulnerable();
  const ProgramEval Serial = evaluateProgram(P, N1, DS, 1024, /*Threads=*/1);
  FakeClassifier N2 = whitePixelVulnerable();
  const ProgramEval Parallel =
      evaluateProgram(P, N2, DS, 1024, /*Threads=*/4);

  EXPECT_EQ(Parallel.Successes, Serial.Successes);
  EXPECT_EQ(Parallel.Attacks, Serial.Attacks);
  EXPECT_EQ(Parallel.TotalQueries, Serial.TotalQueries);
  // The average is a floating-point sum reduced in index order on both
  // paths, so even it must match to the last bit.
  EXPECT_EQ(Parallel.AvgQueries, Serial.AvgQueries);
}

TEST(ParallelEval, SynthesisIsThreadCountInvariant) {
  const Dataset DS = distinctImageSet(5);
  SynthesisConfig Config;
  Config.MaxIter = 8;
  Config.PerImageQueryCap = 512;
  Config.Seed = 3;

  FakeClassifier N1 = whitePixelVulnerable();
  const Program Serial = synthesizeProgram(N1, DS, Config);

  Config.Threads = 4;
  FakeClassifier N2 = whitePixelVulnerable();
  const Program Parallel = synthesizeProgram(N2, DS, Config);

  for (size_t I = 0; I != 4; ++I) {
    EXPECT_EQ(Parallel.Conds[I].Func, Serial.Conds[I].Func) << "B" << I + 1;
    EXPECT_EQ(Parallel.Conds[I].Source, Serial.Conds[I].Source);
    EXPECT_EQ(Parallel.Conds[I].Cmp, Serial.Conds[I].Cmp);
    EXPECT_DOUBLE_EQ(Parallel.Conds[I].Threshold, Serial.Conds[I].Threshold);
  }
}

//===----------------------------------------------------------------------===//
// Failing fan-outs: the exception surfaces after every worker stopped
//===----------------------------------------------------------------------===//

namespace {

/// Classifier calls in flight and in total, shared by a classifier and
/// all its clones.
struct CallLog {
  std::atomic<int> Active{0};
  std::atomic<int> Total{0};
};

/// A robust classifier whose calls take a millisecond, except on 5x5
/// images, which throw at once. The 6x6 images keep the other workers busy
/// while the exception travels.
FakeClassifier throwsOnSmallImages(const std::shared_ptr<CallLog> &Log) {
  return FakeClassifier(2, [Log](const Image &X) {
    ++Log->Total;
    ++Log->Active;
    struct Leave {
      CallLog &L;
      ~Leave() { --L.Active; }
    } Guard{*Log};
    if (X.height() == 5)
      throw std::runtime_error("poisoned image");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return std::vector<float>{0.9f, 0.1f};
  });
}

/// Twelve images the robust classifier above never flips; the first, which
/// the first worker pulls, throws.
Dataset poisonedSet() {
  Dataset DS;
  DS.NumClasses = 2;
  DS.Images.push_back(randomImage(5, 5, 7));
  DS.Labels.push_back(0);
  for (size_t I = 0; I != 11; ++I) {
    DS.Images.push_back(randomImage(6, 6, 100 + I));
    DS.Labels.push_back(0);
  }
  return DS;
}

/// Requires that nothing was in flight when the exception arrived and that
/// no call starts afterwards.
void expectAllWorkersStopped(const CallLog &Log) {
  EXPECT_EQ(Log.Active.load(), 0) << "a worker was still running";
  const int Total = Log.Total.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(Log.Total.load(), Total) << "a worker ran on after the throw";
}

} // namespace

TEST(ParallelEval, FailingAttackSweepRethrowsAfterEveryWorkerStopped) {
  const auto Log = std::make_shared<CallLog>();
  FakeClassifier N = throwsOnSmallImages(Log);
  RandomPairSearch A;
  try {
    runAttackOverSet(A, N, poisonedSet(), /*Budget=*/12, /*Threads=*/4);
    FAIL() << "expected the classifier's exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "poisoned image");
    expectAllWorkersStopped(*Log);
  }
}

TEST(ParallelEval, FailingProgramScoringRethrowsAfterEveryWorkerStopped) {
  const auto Log = std::make_shared<CallLog>();
  FakeClassifier N = throwsOnSmallImages(Log);
  try {
    evaluateProgram(paperExampleProgram(), N, poisonedSet(),
                    /*PerImageCap=*/12, /*Threads=*/4);
    FAIL() << "expected the classifier's exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "poisoned image");
    expectAllWorkersStopped(*Log);
  }
}

TEST(ParallelEval, FailingEngineForwardRethrowsAfterEveryWorkerStopped) {
  const auto Log = std::make_shared<CallLog>();
  FakeClassifier Inner = throwsOnSmallImages(Log);
  QueryEngineConfig Config;
  Config.Threads = 2;
  QueryEngine Engine(Inner, Config);
  try {
    // Twelve images are two chunks, one per worker; chunk 0 throws.
    Engine.prefetch(poisonedSet().Images);
    FAIL() << "expected the classifier's exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "poisoned image");
    expectAllWorkersStopped(*Log);
  }
}
