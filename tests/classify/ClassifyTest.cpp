//===- tests/classify/ClassifyTest.cpp - Classifier layer tests ---------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classify/NNClassifier.h"
#include "classify/QueryCounter.h"
#include "nn/ModelZoo.h"
#include "support/Rng.h"
#include "support/Trace.h"

#include "../JsonTestUtil.h"
#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

using namespace oppsla;
using namespace oppsla::test;

TEST(ArgmaxScore, PicksLargest) {
  EXPECT_EQ(argmaxScore({0.1f, 0.7f, 0.2f}), 1u);
  EXPECT_EQ(argmaxScore({5.0f}), 0u);
  EXPECT_EQ(argmaxScore({1.0f, 1.0f}), 0u) << "first wins ties";
}

TEST(WorkerClones, OneClonePerExtraSlotOrNone) {
  FakeClassifier C = robustClassifier();
  EXPECT_EQ(workerClones(C, 4).size(), 3u) << "slot 0 keeps C itself";
  EXPECT_TRUE(workerClones(C, 1).empty());
  EXPECT_TRUE(workerClones(C, 0).empty());

  class NoClone : public Classifier {
  public:
    std::vector<float> scores(const Image &) override { return {1.0f}; }
    size_t numClasses() const override { return 1; }
  } N;
  EXPECT_TRUE(workerClones(N, 4).empty()) << "not cloneable: run serially";
}

TEST(FakeClassifier, CountsCalls) {
  FakeClassifier C = robustClassifier();
  const Image Img(4, 4);
  EXPECT_EQ(C.calls(), 0u);
  C.scores(Img);
  C.predict(Img);
  EXPECT_EQ(C.calls(), 2u);
  EXPECT_EQ(C.predict(Img), 0u);
}

TEST(NNClassifier, ReturnsProbabilityDistribution) {
  Rng R(1);
  auto Net = buildModel(Arch::MiniVGG, 10, 16, R);
  NNClassifier C(std::move(Net), 10, "test-vgg");
  const Image Img = gradientImage(16, 16);
  const std::vector<float> S = C.scores(Img);
  ASSERT_EQ(S.size(), 10u);
  float Sum = 0.0f;
  for (float V : S) {
    EXPECT_GT(V, 0.0f);
    Sum += V;
  }
  EXPECT_NEAR(Sum, 1.0f, 1e-5f);
  EXPECT_EQ(C.numClasses(), 10u);
  EXPECT_EQ(C.name(), "test-vgg");
}

TEST(NNClassifier, DeterministicScores) {
  Rng R(2);
  auto Net = buildModel(Arch::MiniResNet, 10, 16, R);
  NNClassifier C(std::move(Net), 10, "det");
  const Image Img = randomImage(16, 16, 3);
  const auto S1 = C.scores(Img);
  const auto S2 = C.scores(Img);
  EXPECT_EQ(S1, S2);
}

TEST(NNClassifier, SensitiveToInput) {
  Rng R(4);
  auto Net = buildModel(Arch::MiniVGG, 10, 16, R);
  NNClassifier C(std::move(Net), 10, "sens");
  const Image A = randomImage(16, 16, 5);
  const Image B = randomImage(16, 16, 6);
  EXPECT_NE(C.scores(A), C.scores(B));
}

TEST(QueryCounter, CountsAndDelegates) {
  FakeClassifier Inner = robustClassifier(4);
  QueryCounter Q(Inner);
  const Image Img(2, 2);
  const auto S = Q.scores(Img);
  ASSERT_EQ(S.size(), 4u);
  EXPECT_EQ(Q.count(), 1u);
  EXPECT_EQ(Q.numClasses(), 4u);
  EXPECT_FALSE(Q.exhausted());
  Q.scores(Img);
  EXPECT_EQ(Q.count(), 2u);
}

TEST(QueryCounter, EnforcesBudget) {
  FakeClassifier Inner = robustClassifier();
  QueryCounter Q(Inner, /*Budget=*/2);
  const Image Img(2, 2);
  EXPECT_FALSE(Q.scores(Img).empty());
  EXPECT_FALSE(Q.scores(Img).empty());
  EXPECT_TRUE(Q.scores(Img).empty()) << "third call exceeds budget";
  EXPECT_TRUE(Q.exhausted());
  EXPECT_EQ(Q.count(), 2u) << "rejected calls are not counted";
  EXPECT_EQ(Inner.calls(), 2u) << "rejected calls never reach the network";
}

TEST(QueryCounter, RemainingAndReset) {
  FakeClassifier Inner = robustClassifier();
  QueryCounter Q(Inner, 5);
  const Image Img(2, 2);
  Q.scores(Img);
  EXPECT_EQ(Q.remaining(), 4u);
  Q.reset(3);
  EXPECT_EQ(Q.count(), 0u);
  EXPECT_EQ(Q.budget(), 3u);
  EXPECT_FALSE(Q.exhausted());
}

TEST(QueryCounter, UnlimitedByDefault) {
  FakeClassifier Inner = robustClassifier();
  QueryCounter Q(Inner);
  const Image Img(2, 2);
  for (int I = 0; I != 1000; ++I)
    EXPECT_FALSE(Q.scores(Img).empty());
  EXPECT_EQ(Q.count(), 1000u);
}

TEST(QueryCounter, RemainingStaysUnlimited) {
  FakeClassifier Inner = robustClassifier();
  QueryCounter Q(Inner, QueryCounter::Unlimited);
  const Image Img(2, 2);
  EXPECT_EQ(Q.remaining(), QueryCounter::Unlimited);
  Q.scores(Img);
  Q.scores(Img);
  // Unlimited is a sentinel, not a number: it must not shrink as queries
  // are spent (Unlimited - 2 would be a bogus, near-Unlimited budget).
  EXPECT_EQ(Q.remaining(), QueryCounter::Unlimited);
  EXPECT_FALSE(Q.exhausted());
  Q.reset(3);
  EXPECT_EQ(Q.remaining(), 3u);
  Q.scores(Img);
  EXPECT_EQ(Q.remaining(), 2u);
}

TEST(QueryCounter, EmitsPerQueryTraceEvents) {
  const std::string Path =
      (std::filesystem::temp_directory_path() / "oppsla_query_trace.jsonl")
          .string();
  ASSERT_TRUE(telemetry::TraceWriter::instance().open(Path));

  FakeClassifier Inner(3, [](const Image &) {
    return std::vector<float>{0.2f, 0.7f, 0.1f};
  });
  QueryCounter Q(Inner, 2);
  Q.setTraceTrueClass(0);
  telemetry::setTraceImage(5);
  const Image Img(2, 2);
  Q.scores(Img);
  Q.scores(Img);
  Q.scores(Img); // over budget: no query, no event
  telemetry::setTraceImage(-1);
  telemetry::TraceWriter::instance().close();

  std::ifstream In(Path);
  std::string Line;
  size_t Events = 0;
  while (std::getline(In, Line)) {
    std::map<std::string, std::string> F;
    ASSERT_TRUE(parseJsonObject(Line, F)) << Line;
    EXPECT_EQ(F["type"], "query");
    EXPECT_EQ(F["idx"], std::to_string(++Events));
    EXPECT_EQ(F["image"], "5");
    EXPECT_EQ(F["pred"], "1");
    // Untargeted margin to the declared true class: 0.2 - 0.7.
    EXPECT_NEAR(std::stod(F["margin"]), -0.5, 1e-6);
  }
  EXPECT_EQ(Events, 2u) << "one event per counted query, none over budget";
  std::remove(Path.c_str());
}
