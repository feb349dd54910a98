//===- tests/classify/QueryCounterBatchTest.cpp - shared/prefetch accounting -===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The counter must be safe to share across threads, flag exhaustion on
// the first denied query, and pass prefetches through uncharged and
// clipped to the remaining budget.
//
//===----------------------------------------------------------------------===//

#include "classify/QueryCounter.h"

#include "TestUtil.h"
#include <gtest/gtest.h>
#include <thread>

using namespace oppsla;
using test::FakeClassifier;
using test::randomImage;

namespace {

FakeClassifier constantClassifier() {
  return FakeClassifier(3, [](const Image &) {
    return std::vector<float>{0.7f, 0.2f, 0.1f};
  });
}

std::vector<Image> distinctImages(size_t N) {
  std::vector<Image> Out;
  Out.reserve(N);
  for (size_t I = 0; I != N; ++I)
    Out.push_back(randomImage(4, 4, 0xc0 + I));
  return Out;
}

/// Records what reaches the inner classifier through prefetch.
class PrefetchProbe : public FakeClassifier {
public:
  using FakeClassifier::FakeClassifier;
  void prefetch(std::span<const Image> Imgs) override {
    PrefetchSizes.push_back(Imgs.size());
  }
  bool prefetchable() const override { return true; }
  std::vector<size_t> PrefetchSizes;
};

} // namespace

TEST(QueryCounterBatch, ExactBudgetConsumptionIsNotExhaustedYet) {
  FakeClassifier Inner = constantClassifier();
  QueryCounter Q(Inner, /*Budget=*/4);
  const std::vector<Image> Imgs = distinctImages(4);
  for (const Image &Img : Imgs)
    EXPECT_FALSE(Q.scores(Img).empty());
  // Exhaustion is flagged by the first *denied* query, not by consuming
  // the last unit.
  EXPECT_EQ(Q.count(), 4u);
  EXPECT_FALSE(Q.exhausted());
  EXPECT_TRUE(Q.scores(Imgs[0]).empty());
  EXPECT_TRUE(Q.exhausted());
}

namespace {

/// Stateless, thread-safe inner classifier for the concurrency test
/// (FakeClassifier's call counter is deliberately not atomic).
class StatelessClassifier : public Classifier {
public:
  std::vector<float> scores(const Image &) override {
    return {0.7f, 0.2f, 0.1f};
  }
  size_t numClasses() const override { return 3; }
};

} // namespace

TEST(QueryCounterBatch, ConcurrentClaimsNeverOvershootBudget) {
  StatelessClassifier Inner;
  constexpr uint64_t Budget = 256;
  QueryCounter Q(Inner, Budget);
  const Image Img = randomImage(4, 4, 0xc0);

  // 8 threads querying until denied: the counter must hand out exactly
  // Budget grants in total, no lost or duplicated units.
  std::vector<std::thread> Threads;
  std::vector<uint64_t> Granted(8, 0);
  for (size_t T = 0; T != 8; ++T)
    Threads.emplace_back([&, T] {
      while (!Q.scores(Img).empty())
        ++Granted[T];
    });
  for (std::thread &T : Threads)
    T.join();

  uint64_t Total = 0;
  for (uint64_t G : Granted)
    Total += G;
  EXPECT_EQ(Total, Budget);
  EXPECT_EQ(Q.count(), Budget);
  EXPECT_TRUE(Q.exhausted());
}

TEST(QueryCounterBatch, PrefetchForwardsOnlyRemainingBudget) {
  PrefetchProbe Inner(3, [](const Image &) {
    return std::vector<float>{0.7f, 0.2f, 0.1f};
  });
  QueryCounter Q(Inner, /*Budget=*/4);
  EXPECT_TRUE(Q.prefetchable());
  const std::vector<Image> Imgs = distinctImages(6);

  Q.prefetch(Imgs);
  ASSERT_EQ(Inner.PrefetchSizes.size(), 1u);
  EXPECT_EQ(Inner.PrefetchSizes[0], 4u); // clipped to remaining()
  EXPECT_EQ(Q.count(), 0u);              // prefetch is never charged

  (void)Q.scores(Imgs[0]);
  (void)Q.scores(Imgs[1]);
  Q.prefetch(Imgs);
  ASSERT_EQ(Inner.PrefetchSizes.size(), 2u);
  EXPECT_EQ(Inner.PrefetchSizes[1], 2u);

  (void)Q.scores(Imgs[2]);
  (void)Q.scores(Imgs[3]);
  Q.prefetch(Imgs); // budget gone: nothing forwarded
  EXPECT_EQ(Inner.PrefetchSizes.size(), 2u);
}
