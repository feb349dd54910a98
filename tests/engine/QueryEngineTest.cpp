//===- tests/engine/QueryEngineTest.cpp - Query engine unit tests ------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/QueryEngine.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace oppsla;
using test::FakeClassifier;
using test::randomImage;

namespace {

/// FakeClassifier that also records every physical batch submission size.
class RecordingClassifier : public FakeClassifier {
public:
  using FakeClassifier::FakeClassifier;

  std::vector<std::vector<float>> scoresBatch(
      std::span<const Image> Imgs) override {
    BatchSizes.push_back(Imgs.size());
    return FakeClassifier::scoresBatch(Imgs);
  }

  std::vector<size_t> BatchSizes;
};

/// Deterministic scores derived from the image's first pixel, so every
/// distinct image has distinct scores and correctness is checkable.
RecordingClassifier makeInner() {
  return RecordingClassifier(3, [](const Image &Img) {
    const float V = Img.raw()[0];
    return std::vector<float>{V, 1.0f - V, 0.5f * V};
  });
}

QueryEngineConfig config(size_t CacheCap, size_t Threads = 1) {
  QueryEngineConfig C;
  C.CacheCapacity = CacheCap;
  C.Threads = Threads;
  return C;
}

std::vector<Image> distinctImages(size_t N) {
  std::vector<Image> Out;
  Out.reserve(N);
  for (size_t I = 0; I != N; ++I)
    Out.push_back(randomImage(4, 4, 0x900 + I));
  return Out;
}

} // namespace

TEST(QueryEngine, LogicalVsPhysicalSplit) {
  RecordingClassifier Inner = makeInner();
  QueryEngine Engine(Inner, config(64));
  const Image A = randomImage(4, 4, 1);

  const std::vector<float> S1 = Engine.scores(A);
  const std::vector<float> S2 = Engine.scores(A);
  EXPECT_EQ(S1, S2);
  // Both queries count logically; only the first paid a forward.
  EXPECT_EQ(Engine.logicalQueries(), 2u);
  EXPECT_EQ(Engine.physicalForwards(), 1u);
  EXPECT_EQ(Inner.calls(), 1u);
  EXPECT_EQ(Engine.cache().hits(), 1u);
}

TEST(QueryEngine, CacheKeySeparatesShapeAndSignedZero) {
  // The cache key hashes the pixel bytes and folds in H and W: the same
  // bytes under a swapped H x W, and images that differ only in the sign
  // of a zero, are distinct queries. Each pays its own forward, and none
  // displaces another from the cache.
  const Image Wide = randomImage(2, 3, 41);
  Image Tall(3, 2);
  Tall.raw() = Wide.raw();
  Image PosZero = randomImage(4, 4, 42);
  PosZero.raw()[5] = 0.0f;
  Image NegZero = PosZero;
  NegZero.raw()[5] = -0.0f;
  EXPECT_NE(ScoreCache::key(Wide), ScoreCache::key(Tall));
  EXPECT_NE(ScoreCache::key(PosZero), ScoreCache::key(NegZero));
  const std::vector<Image> Imgs{Wide, Tall, PosZero, NegZero};

  RecordingClassifier Inner = makeInner();
  QueryEngine Engine(Inner, config(64));
  for (const Image &Img : Imgs)
    Engine.scores(Img);
  EXPECT_EQ(Inner.calls(), 4u);
  for (const Image &Img : Imgs)
    Engine.scores(Img); // all four are still resident
  EXPECT_EQ(Inner.calls(), 4u);
  EXPECT_EQ(Engine.cache().collisions(), 0u);

  // One prefetch submission: no image is taken for a duplicate of another.
  RecordingClassifier BatchInner = makeInner();
  QueryEngine BatchEngine(BatchInner, config(64));
  BatchEngine.prefetch(Imgs);
  EXPECT_EQ(BatchInner.calls(), 4u);
  for (const Image &Img : Imgs)
    EXPECT_EQ(BatchEngine.scores(Img), Inner.scores(Img));
  EXPECT_EQ(BatchInner.calls(), 4u);
}

TEST(QueryEngine, BatchChunksByConfiguredSize) {
  RecordingClassifier Inner = makeInner();
  QueryEngine Engine(Inner, config(64));
  const std::vector<Image> Imgs = distinctImages(20);

  // 20 unique misses -> physical batches of 8, 8, 4.
  Engine.prefetch(Imgs);
  EXPECT_EQ(Engine.physicalForwards(), 20u);
  ASSERT_EQ(Inner.BatchSizes.size(), 3u);
  EXPECT_EQ(Inner.BatchSizes[0], QueryEngine::BatchSize);
  EXPECT_EQ(Inner.BatchSizes[1], QueryEngine::BatchSize);
  EXPECT_EQ(Inner.BatchSizes[2], 4u);

  // Every batched result landed at its own image.
  for (size_t I = 0; I != Imgs.size(); ++I)
    EXPECT_EQ(Engine.scores(Imgs[I]), Inner.scores(Imgs[I])) << "index " << I;
  EXPECT_EQ(Engine.logicalQueries(), 20u);
  EXPECT_EQ(Engine.physicalForwards(), 20u);
}

TEST(QueryEngine, BatchDeduplicatesIdenticalImages) {
  RecordingClassifier Inner = makeInner();
  QueryEngine Engine(Inner, config(64));
  const Image A = randomImage(4, 4, 1);
  const Image B = randomImage(4, 4, 2);
  const std::vector<Image> Imgs{A, B, A, A, B};

  // The same bytes twice in one submission pay one forward.
  Engine.prefetch(Imgs);
  EXPECT_EQ(Engine.physicalForwards(), 2u);
  ASSERT_EQ(Inner.BatchSizes.size(), 1u);
  EXPECT_EQ(Inner.BatchSizes[0], 2u);

  // Five logical queries, all answered from the two forwards.
  for (const Image &Img : Imgs)
    EXPECT_EQ(Engine.scores(Img), Inner.scores(Img));
  EXPECT_EQ(Engine.logicalQueries(), 5u);
  EXPECT_EQ(Engine.physicalForwards(), 2u);
}

TEST(QueryEngine, PrefetchWarmsCacheWithoutLogicalCharge) {
  RecordingClassifier Inner = makeInner();
  QueryEngine Engine(Inner, config(64));
  ASSERT_TRUE(Engine.prefetchable());
  const std::vector<Image> Imgs = distinctImages(6);

  Engine.prefetch(Imgs);
  EXPECT_EQ(Engine.logicalQueries(), 0u);
  EXPECT_EQ(Engine.physicalForwards(), 6u);

  // Subsequent queries are all hits: no further inner calls.
  const size_t CallsAfterPrefetch = Inner.calls();
  for (const Image &Img : Imgs)
    EXPECT_EQ(Engine.scores(Img), Inner.scores(Img));
  EXPECT_EQ(Engine.physicalForwards(), 6u);
  EXPECT_EQ(Engine.logicalQueries(), 6u);
  // Inner.scores above accounts for the verification queries only.
  EXPECT_EQ(Inner.calls(), CallsAfterPrefetch + Imgs.size());

  // Prefetching already-resident images is free.
  Inner.BatchSizes.clear();
  Engine.prefetch(Imgs);
  EXPECT_TRUE(Inner.BatchSizes.empty());
  EXPECT_EQ(Engine.physicalForwards(), 6u);
}

TEST(QueryEngine, NoCacheDisablesPrefetchAndMemoization) {
  RecordingClassifier Inner = makeInner();
  QueryEngine Engine(Inner, config(0));
  EXPECT_FALSE(Engine.prefetchable());

  const std::vector<Image> Imgs = distinctImages(3);
  Engine.prefetch(Imgs);
  EXPECT_EQ(Inner.calls(), 0u);

  const Image A = Imgs[0];
  (void)Engine.scores(A);
  (void)Engine.scores(A);
  EXPECT_EQ(Engine.logicalQueries(), 2u);
  EXPECT_EQ(Engine.physicalForwards(), 2u); // no memoization
}

TEST(QueryEngine, ThreadedForwardMatchesSerial) {
  RecordingClassifier SerialInner = makeInner();
  QueryEngine Serial(SerialInner, config(64));
  RecordingClassifier ThreadedInner = makeInner();
  QueryEngine Threaded(ThreadedInner, config(64, 4));

  // 23 images are three chunks, spread over the worker pool.
  const std::vector<Image> Imgs = distinctImages(23);
  Serial.prefetch(Imgs);
  Threaded.prefetch(Imgs);
  EXPECT_EQ(Threaded.physicalForwards(), 23u);
  for (size_t I = 0; I != Imgs.size(); ++I)
    EXPECT_EQ(Serial.scores(Imgs[I]), Threaded.scores(Imgs[I]))
        << "index " << I;
  EXPECT_EQ(Serial.physicalForwards(), 23u);
  EXPECT_EQ(Threaded.physicalForwards(), 23u)
      << "every threaded chunk must have reached the cache";
}

TEST(QueryEngine, CloneIsIndependent) {
  RecordingClassifier Inner = makeInner();
  QueryEngine Engine(Inner, config(64));
  const Image A = randomImage(4, 4, 1);
  (void)Engine.scores(A);

  std::unique_ptr<Classifier> CloneP = Engine.clone();
  ASSERT_NE(CloneP, nullptr);
  auto *Clone = dynamic_cast<QueryEngine *>(CloneP.get());
  ASSERT_NE(Clone, nullptr);
  // Fresh counters and cache; same config.
  EXPECT_EQ(Clone->logicalQueries(), 0u);
  EXPECT_EQ(Clone->cache().size(), 0u);
  EXPECT_EQ(Clone->config().CacheCapacity, 64u);
  EXPECT_EQ(Clone->scores(A), Engine.scores(A));
  // The clone queried its own inner copy, not the original.
  EXPECT_EQ(Inner.calls(), 1u);
}

TEST(QueryEngine, CloneSharesCacheWhenConfigured) {
  // The serve-mode pooling knob: with ShareCacheOnClone, clones reuse the
  // master's ScoreCache, so an image scored by one engine is a hit (not a
  // physical forward) in another. Logical query counters stay per-clone.
  RecordingClassifier Inner = makeInner();
  QueryEngineConfig C = config(64);
  C.ShareCacheOnClone = true;
  QueryEngine Engine(Inner, C);
  const Image A = randomImage(4, 4, 1);
  (void)Engine.scores(A);
  ASSERT_EQ(Engine.physicalForwards(), 1u);

  std::unique_ptr<Classifier> CloneP = Engine.clone();
  auto *Clone = dynamic_cast<QueryEngine *>(CloneP.get());
  ASSERT_NE(Clone, nullptr);
  EXPECT_EQ(Clone->cache().size(), 1u) << "clone must see the shared cache";
  EXPECT_EQ(Clone->scores(A), Engine.scores(A));
  EXPECT_EQ(Clone->physicalForwards(), 0u)
      << "the shared cache must have absorbed the clone's query";
  EXPECT_EQ(Clone->logicalQueries(), 1u) << "logical counters stay per-clone";

  // New entries flow both ways.
  const Image B = randomImage(4, 4, 2);
  (void)Clone->scores(B);
  EXPECT_EQ(Engine.scores(B), Inner.scores(B));
  EXPECT_EQ(Engine.physicalForwards(), 1u)
      << "the master must hit the entry the clone inserted";

  // Without the flag the clone starts with a fresh, empty cache.
  QueryEngine Fresh(Inner, config(64));
  (void)Fresh.scores(A);
  auto FreshCloneP = Fresh.clone();
  auto *FreshClone = dynamic_cast<QueryEngine *>(FreshCloneP.get());
  ASSERT_NE(FreshClone, nullptr);
  EXPECT_EQ(FreshClone->cache().size(), 0u);
}

TEST(QueryEngine, CacheCapacityBoundsResidency) {
  RecordingClassifier Inner = makeInner();
  QueryEngine Engine(Inner, config(4));
  const std::vector<Image> Imgs = distinctImages(10);

  // A prefetch stops at the capacity: forwarding more would evict the
  // submission's own entries before the attack reads them.
  Engine.prefetch(Imgs);
  EXPECT_EQ(Engine.physicalForwards(), 4u);
  EXPECT_EQ(Engine.cache().size(), 4u);

  for (const Image &Img : Imgs)
    (void)Engine.scores(Img);
  EXPECT_LE(Engine.cache().size(), 4u);
}
