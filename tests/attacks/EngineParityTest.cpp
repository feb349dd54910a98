//===- tests/attacks/EngineParityTest.cpp - engine on == engine off ----------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The acceptance contract of the query engine: running any attack through
// a QueryEngine (batching + memoizing cache + speculative prefetch) yields
// the *identical* AttackResult — outcome, query count, chosen pixel — as
// running it directly against the classifier. Prefetch mispredictions may
// waste physical forwards, never change a logical answer.
//
//===----------------------------------------------------------------------===//

#include "attacks/RandomPairSearch.h"
#include "attacks/SketchAttack.h"
#include "attacks/SparseRS.h"
#include "attacks/SuOPA.h"
#include "engine/QueryEngine.h"

#include "TestUtil.h"
#include <algorithm>
#include <gtest/gtest.h>

using namespace oppsla;
using test::FakeClassifier;
using test::randomImage;

namespace {

/// A classifier with a one-pixel-flippable decision boundary *and* graded
/// margins, so acceptance decisions (and hence speculation mispredictions)
/// actually vary: class 1 wins iff some pixel is near-white; otherwise its
/// confidence still grows with the brightest pixel.
FakeClassifier vulnerableClassifier() {
  return FakeClassifier(3, [](const Image &Img) {
    float Best = 0.0f;
    for (size_t I = 0; I != Img.height(); ++I)
      for (size_t J = 0; J != Img.width(); ++J) {
        const Pixel P = Img.pixel(I, J);
        Best = std::max(Best, P.minChannel());
      }
    const float C1 = Best > 0.95f ? 0.9f : 0.2f + 0.25f * Best;
    return std::vector<float>{1.0f - C1 - 0.05f, C1, 0.05f};
  });
}

void expectSameResult(const AttackResult &Plain, const AttackResult &Engine,
                      const char *What) {
  EXPECT_EQ(Plain.Success, Engine.Success) << What;
  EXPECT_EQ(Plain.Queries, Engine.Queries) << What;
  EXPECT_EQ(Plain.AlreadyMisclassified, Engine.AlreadyMisclassified) << What;
  if (Plain.Success && !Plain.AlreadyMisclassified) {
    EXPECT_EQ(Plain.Loc.Row, Engine.Loc.Row) << What;
    EXPECT_EQ(Plain.Loc.Col, Engine.Loc.Col) << What;
    EXPECT_EQ(Plain.Perturbation.R, Engine.Perturbation.R) << What;
    EXPECT_EQ(Plain.Perturbation.G, Engine.Perturbation.G) << What;
    EXPECT_EQ(Plain.Perturbation.B, Engine.Perturbation.B) << What;
  }
}

/// Runs \p A against the raw classifier and against an engine wrap (cache
/// on) and requires identical results for several images and budgets.
void checkParity(Attack &A) {
  const uint64_t Budgets[] = {16, 120, 2000};
  for (const uint64_t Budget : Budgets)
    for (uint64_t ImgSeed = 1; ImgSeed != 4; ++ImgSeed) {
      const Image X = randomImage(6, 6, ImgSeed * 0x51);

      FakeClassifier Plain = vulnerableClassifier();
      const AttackResult RPlain = A.attack(Plain, X, 0, Budget);

      FakeClassifier Inner = vulnerableClassifier();
      QueryEngineConfig Config;
      Config.CacheCapacity = 512;
      QueryEngine Engine(Inner, Config);
      const AttackResult REngine = A.attack(Engine, X, 0, Budget);

      expectSameResult(RPlain, REngine,
                       (A.name() + " budget " + std::to_string(Budget) +
                        " image " + std::to_string(ImgSeed))
                           .c_str());
      // The engine must never pose more logical queries than the attack
      // reported (prefetch is not a logical query).
      EXPECT_EQ(Engine.logicalQueries(), REngine.Queries);
    }
}

} // namespace

TEST(EngineParity, SuOPA) {
  SuOPAConfig Config;
  Config.PopulationSize = 20;
  Config.MaxGenerations = 6;
  SuOPA A(Config);
  checkParity(A);
}

TEST(EngineParity, SparseRS) {
  SparseRS A;
  checkParity(A);
}

TEST(EngineParity, RandomPairSearch) {
  RandomPairSearch A;
  checkParity(A);
}

TEST(EngineParity, SketchAllFalse) {
  SketchAttack A(allFalseProgram(), "Sketch+False");
  checkParity(A);
}

TEST(EngineParity, SketchAllTrueEagerPath) {
  // allTrueProgram drives the eager B3/B4 BFS maximally, exercising the
  // neighbor-batch prefetch path.
  SketchAttack A(allTrueProgram(), "Sketch+True");
  checkParity(A);
}

TEST(EngineParity, SketchPaperProgram) {
  SketchAttack A(paperExampleProgram(), "paper");
  checkParity(A);
}
