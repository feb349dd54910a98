//===- tests/core/SketchTest.cpp - Algorithm 1 tests --------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Tests of the sketch executor, including its key semantic invariants:
//   (1) exhaustiveness — every instantiation queries every pair at most
//       once and finds an adversarial pair iff one exists;
//   (2) the conditions only affect the *order* of queries, never the set;
//   (3) the initial prioritization matches Appendix A.
//
//===----------------------------------------------------------------------===//

#include "core/Sketch.h"
#include "core/Mutation.h"
#include "support/Rng.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>

using namespace oppsla;
using namespace oppsla::test;

namespace {

/// Classifier that flips to class 1 iff pixel (Row, Col) is set to the
/// given corner value; otherwise returns a fixed distribution whose true
/// confidence dips slightly with pixel brightness (so score_diff varies).
FakeClassifier vulnerableAt(uint16_t Row, uint16_t Col, CornerIdx Corner) {
  const Pixel Target = cornerPixel(Corner);
  return FakeClassifier(3, [Row, Col, Target](const Image &X) {
    std::vector<float> S = {0.7f, 0.2f, 0.1f};
    if (X.pixel(Row, Col) == Target) {
      S[0] = 0.1f;
      S[1] = 0.8f;
    }
    return S;
  });
}

/// Records, in order, each queried (location, corner) pair. Never flips.
struct QueryRecorder {
  const Image &Clean;
  std::vector<LocPert> Seen;

  explicit QueryRecorder(const Image &Clean) : Clean(Clean) {}

  FakeClassifier make() {
    return FakeClassifier(2, [this](const Image &X) {
      // Diff the image against the clean one to recover the queried pair.
      for (size_t I = 0; I != Clean.height(); ++I)
        for (size_t J = 0; J != Clean.width(); ++J)
          if (!(X.pixel(I, J) == Clean.pixel(I, J))) {
            const Pixel P = X.pixel(I, J);
            for (CornerIdx C = 0; C != NumCorners; ++C)
              if (P == cornerPixel(C))
                Seen.push_back(LocPert{
                    PixelLoc{static_cast<uint16_t>(I),
                             static_cast<uint16_t>(J)},
                    C});
            return std::vector<float>{0.9f, 0.1f};
          }
      return std::vector<float>{0.9f, 0.1f}; // the clean-image query
    });
  }
};

} // namespace

TEST(Sketch, FindsThePlantedAdversarialPair) {
  const Image X = gradientImage(4, 4);
  FakeClassifier N = vulnerableAt(1, 2, 5);
  Sketch Sk(allFalseProgram());
  const SketchResult R = Sk.run(N, X, /*TrueClass=*/0);
  ASSERT_TRUE(R.Success);
  EXPECT_FALSE(R.AlreadyMisclassified);
  EXPECT_EQ(R.Adversarial.Loc.Row, 1u);
  EXPECT_EQ(R.Adversarial.Loc.Col, 2u);
  EXPECT_EQ(R.Adversarial.Corner, 5);
  EXPECT_GE(R.Queries, 2u); // clean query + at least one pair
  EXPECT_LE(R.Queries, 4u * 4u * 8u + 1u);
}

TEST(Sketch, ReportsFailureWhenNoPairExists) {
  const Image X = gradientImage(3, 3);
  FakeClassifier N = robustClassifier();
  Sketch Sk(allFalseProgram());
  const SketchResult R = Sk.run(N, X, 0);
  EXPECT_FALSE(R.Success);
  EXPECT_FALSE(R.BudgetExhausted);
  // Exhaustiveness: clean query + every pair exactly once.
  EXPECT_EQ(R.Queries, 3u * 3u * 8u + 1u);
}

TEST(Sketch, DetectsAlreadyMisclassified) {
  const Image X = gradientImage(3, 3);
  FakeClassifier N = robustClassifier();
  Sketch Sk(allFalseProgram());
  const SketchResult R = Sk.run(N, X, /*TrueClass=*/2);
  EXPECT_TRUE(R.Success);
  EXPECT_TRUE(R.AlreadyMisclassified);
  EXPECT_EQ(R.Queries, 1u);
}

TEST(Sketch, RespectsQueryBudget) {
  const Image X = gradientImage(4, 4);
  FakeClassifier N = robustClassifier();
  Sketch Sk(allFalseProgram());
  const SketchResult R = Sk.run(N, X, 0, /*QueryBudget=*/10);
  EXPECT_FALSE(R.Success);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_EQ(R.Queries, 10u);
}

TEST(Sketch, BudgetOfOneOnlyQueriesCleanImage) {
  const Image X = gradientImage(4, 4);
  FakeClassifier N = robustClassifier();
  Sketch Sk(allTrueProgram());
  const SketchResult R = Sk.run(N, X, 0, 1);
  EXPECT_FALSE(R.Success);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_EQ(R.Queries, 1u);
}

TEST(Sketch, QueriesFollowInitialOrderUnderAllFalse) {
  const Image X = randomImage(4, 4, 11);
  QueryRecorder Rec(X);
  FakeClassifier N = Rec.make();
  Sketch Sk(allFalseProgram());
  const SketchResult R = Sk.run(N, X, 0);
  EXPECT_FALSE(R.Success);

  const PairSpace Space(X);
  const std::vector<PairId> Expected = Space.initialOrder();
  ASSERT_EQ(Rec.Seen.size(), Expected.size());
  for (size_t I = 0; I != Expected.size(); ++I)
    EXPECT_EQ(Space.idOf(Rec.Seen[I]), Expected[I]) << "position " << I;
}

TEST(Sketch, EveryProgramQueriesEveryPairExactlyOnce) {
  // The exhaustiveness invariant (Section 3): conditions reorder, never
  // drop or duplicate.
  const Image X = randomImage(4, 5, 13);
  const PairSpace Space(X);
  MutationContext Ctx{4};
  Rng R(17);
  std::vector<Program> Programs = {allFalseProgram(), allTrueProgram(),
                                   paperExampleProgram()};
  for (int I = 0; I != 6; ++I)
    Programs.push_back(randomProgram(Ctx, R));

  for (const Program &P : Programs) {
    QueryRecorder Rec(X);
    FakeClassifier N = Rec.make();
    Sketch Sk(P);
    const SketchResult Res = Sk.run(N, X, 0);
    EXPECT_FALSE(Res.Success);
    ASSERT_EQ(Rec.Seen.size(), Space.size()) << P.str();
    std::map<PairId, size_t> Counts;
    for (const LocPert &LP : Rec.Seen)
      ++Counts[Space.idOf(LP)];
    for (const auto &[Id, Count] : Counts)
      ASSERT_EQ(Count, 1u) << "pair " << Id << " queried " << Count
                           << " times under\n"
                           << P.str();
  }
}

TEST(Sketch, EagerLocConditionChecksNeighborsNext) {
  // B3 always true, everything else false: after the first failed pair,
  // its location neighbors (same corner) must be the very next queries.
  Program P = allFalseProgram();
  P.Conds[2] = {FuncKind::MaxPixel, PixelSource::Original, CmpKind::Greater,
                -1.0}; // always true
  const Image X = randomImage(5, 5, 19);
  QueryRecorder Rec(X);
  FakeClassifier N = Rec.make();
  Sketch Sk(P);
  Sk.run(N, X, 0);

  ASSERT_GT(Rec.Seen.size(), 9u);
  const LocPert First = Rec.Seen[0];
  // The next queries must all be L-inf-1 neighbors of the first pair with
  // the same corner until those are exhausted (8 for the center location).
  const size_t NumNeighbors = 8;
  for (size_t I = 1; I <= NumNeighbors; ++I) {
    EXPECT_EQ(Rec.Seen[I].Corner, First.Corner);
    EXPECT_EQ(Rec.Seen[I].Loc.linfDistance(First.Loc), 1u)
        << "query " << I << " should be adjacent to the first pair";
  }
}

TEST(Sketch, EagerPertConditionChecksSameLocationNext) {
  // B4 always true: after the first failed pair, the next query must be
  // at the same location (the next perturbation for it).
  Program P = allFalseProgram();
  P.Conds[3] = {FuncKind::MaxPixel, PixelSource::Original, CmpKind::Greater,
                -1.0};
  const Image X = randomImage(5, 5, 23);
  QueryRecorder Rec(X);
  FakeClassifier N = Rec.make();
  Sketch Sk(P);
  Sk.run(N, X, 0);

  ASSERT_GT(Rec.Seen.size(), 8u);
  // B4 chains through all 8 corners of the first location before moving on.
  for (size_t I = 1; I != 8; ++I)
    EXPECT_EQ(Rec.Seen[I].Loc, Rec.Seen[0].Loc) << "query " << I;
  EXPECT_FALSE(Rec.Seen[8].Loc == Rec.Seen[0].Loc);
}

TEST(Sketch, PushBackConditionsDelayNeighbors) {
  // B1 always true: after the first pair fails, its location-neighbors
  // (same corner) are pushed to the back — the *second* query must NOT be
  // a neighbor with the same corner (under all-False it would be, since
  // the second-closest-to-center location is adjacent to the center).
  const Image X(5, 5); // all-black image: every location ranks corners
                       // identically, so block 0 = one corner everywhere
  {
    Program P = allFalseProgram();
    QueryRecorder Rec(X);
    FakeClassifier N = Rec.make();
    Sketch(P).run(N, X, 0);
    ASSERT_GT(Rec.Seen.size(), 2u);
    EXPECT_EQ(Rec.Seen[1].Loc.linfDistance(Rec.Seen[0].Loc), 1u)
        << "sanity: under all-False the second query is adjacent";
    EXPECT_EQ(Rec.Seen[1].Corner, Rec.Seen[0].Corner);
  }
  {
    Program P = allFalseProgram();
    P.Conds[0] = {FuncKind::MaxPixel, PixelSource::Original,
                  CmpKind::Greater, -1.0}; // B1 true
    QueryRecorder Rec(X);
    FakeClassifier N = Rec.make();
    Sketch(P).run(N, X, 0);
    ASSERT_GT(Rec.Seen.size(), 2u);
    const bool SecondIsSameCornerNeighbor =
        Rec.Seen[1].Corner == Rec.Seen[0].Corner &&
        Rec.Seen[1].Loc.linfDistance(Rec.Seen[0].Loc) == 1u;
    EXPECT_FALSE(SecondIsSameCornerNeighbor)
        << "B1 must have pushed the neighbors back";
  }
}

TEST(Sketch, SuccessInsideEagerPhaseIsReported) {
  // Vulnerable at a neighbor of the first-popped pair; with B3 true the
  // eager check must find it within a handful of queries.
  const Image X(5, 5);
  const PairSpace Space(X);
  const LocPert First = Space.pairOf(Space.initialOrder().front());
  const uint16_t NRow = First.Loc.Row;
  const auto NCol = static_cast<uint16_t>(First.Loc.Col + 1);
  FakeClassifier N = vulnerableAt(NRow, NCol, First.Corner);

  Program P = allFalseProgram();
  P.Conds[2] = {FuncKind::MaxPixel, PixelSource::Original, CmpKind::Greater,
                -1.0};
  const SketchResult R = Sketch(P).run(N, X, 0);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.Adversarial.Loc.Row, NRow);
  EXPECT_EQ(R.Adversarial.Loc.Col, NCol);
  EXPECT_LE(R.Queries, 10u) << "eager neighbor check must find it fast";
}

TEST(Sketch, PaperExampleProgramIsExhaustiveAndTerminates) {
  const Image X = randomImage(6, 6, 29);
  FakeClassifier N = robustClassifier();
  Sketch Sk(paperExampleProgram());
  const SketchResult R = Sk.run(N, X, 0);
  EXPECT_FALSE(R.Success);
  EXPECT_EQ(R.Queries, 6u * 6u * 8u + 1u);
}

TEST(Sketch, RejectsAMemoOfAnotherImage) {
  const Image X = randomImage(4, 4, 37);
  SketchMemo Memo(randomImage(4, 4, 41));
  FakeClassifier N = robustClassifier();
  EXPECT_THROW(Sketch(allFalseProgram()).run(N, X, 0, 10, &Memo),
               std::invalid_argument);
  EXPECT_EQ(N.calls(), 0u);
}

class SketchBudgetSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SketchBudgetSweep, QueriesNeverExceedBudget) {
  const Image X = randomImage(4, 4, 31);
  FakeClassifier N = robustClassifier();
  Sketch Sk(paperExampleProgram());
  const uint64_t Budget = GetParam();
  const SketchResult R = Sk.run(N, X, 0, Budget);
  EXPECT_LE(R.Queries, Budget);
  EXPECT_FALSE(R.Success);
  if (Budget <= 4u * 4u * 8u) {
    EXPECT_TRUE(R.BudgetExhausted);
  }
}

TEST_P(SketchBudgetSweep, WarmMemoLeavesResultUnchanged) {
  // A memo that a different program already filled answers every query,
  // so the run forwards nothing and any budget up to the pair count runs
  // out on a hit. Hits are claimed like forwards, so the result must be
  // the memo-less one, down to the pair the budget stopped at. The scores
  // move with the image, so the score_diff conditions branch.
  const Image X = randomImage(4, 4, 31);
  auto Scores = [](const Image &Img) {
    float Sum = 0.0f;
    for (size_t I = 0; I != Img.raw().size(); ++I)
      Sum += Img.raw()[I] * static_cast<float>(I % 7 + 1);
    const float T = Sum - std::floor(Sum);
    return std::vector<float>{0.9f - 0.4f * T, 0.05f + 0.2f * T,
                              0.05f + 0.2f * T};
  };
  const uint64_t Budget = GetParam();
  const Sketch Sk(paperExampleProgram());
  FakeClassifier Plain(3, Scores);
  const SketchResult Want = Sk.run(Plain, X, 0, Budget);

  FakeClassifier N(3, Scores);
  SketchMemo Memo(X);
  Sketch(allFalseProgram()).run(N, X, 0, Sketch::Unlimited, &Memo);
  ASSERT_EQ(N.calls(), 4u * 4u * 8u + 1u);

  const SketchResult Got = Sk.run(N, X, 0, Budget, &Memo);
  EXPECT_EQ(N.calls(), 4u * 4u * 8u + 1u) << "every query must be a hit";
  EXPECT_EQ(Got.Success, Want.Success);
  EXPECT_EQ(Got.Adversarial, Want.Adversarial);
  EXPECT_EQ(Got.Queries, Want.Queries);
  EXPECT_EQ(Got.BudgetExhausted, Want.BudgetExhausted);
  EXPECT_EQ(Got.AlreadyMisclassified, Want.AlreadyMisclassified);
}

INSTANTIATE_TEST_SUITE_P(Budgets, SketchBudgetSweep,
                         ::testing::Values(1, 2, 5, 17, 64, 128, 129, 1000));
