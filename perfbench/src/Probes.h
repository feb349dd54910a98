//===- perfbench/src/Probes.h - Tracing Classifier decorators ---*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's two layer boundaries inside a sweep, built from the
/// public Classifier interface only:
///
///   attack -> EngineProbe -> QueryEngine -> NNProbe -> NNClassifier
///
/// EngineProbe spans every call the attack makes into the engine, counts
/// logical queries and prefetched images, and matches prefetched
/// Image::contentHash() values against later scores() calls to tell a
/// useful prefetch from a wasted one. NNProbe spans every physical
/// forward the engine pays for and counts the images in it. Both forward
/// prefetch(), prefetchable() and clone(), so the engine behaves exactly
/// as without them and no result byte changes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include "classify/Classifier.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

/// Counters one EngineProbe (and its clones) accumulate.
struct EngineCounts {
  std::atomic<uint64_t> Queries{0};       ///< logical queries
  std::atomic<uint64_t> Prefetched{0};    ///< images passed to prefetch()
  std::atomic<uint64_t> PrefetchHits{0};  ///< of those, later queried

  std::mutex Mu; ///< guards Pending
  /// Prefetched content hashes not yet queried, with multiplicity.
  std::unordered_map<uint64_t, uint32_t> Pending;

  /// Forgets unmatched prefetches (they were wasted); called per image.
  void endImage();
};

class EngineProbe : public oppsla::Classifier {
public:
  EngineProbe(oppsla::Classifier &Inner, std::shared_ptr<EngineCounts> Counts);

  std::vector<float> scores(const oppsla::Image &Img) override;
  std::vector<std::vector<float>> scoresBatch(
      std::span<const oppsla::Image> Imgs) override;
  void prefetch(std::span<const oppsla::Image> Imgs) override;
  bool prefetchable() const override { return Inner.prefetchable(); }
  size_t numClasses() const override { return Inner.numClasses(); }
  std::unique_ptr<oppsla::Classifier> clone() const override;

private:
  void matchPrefetched(const oppsla::Image &Img);

  oppsla::Classifier &Inner;
  std::unique_ptr<oppsla::Classifier> OwnedInner; ///< set on clones
  std::shared_ptr<EngineCounts> Counts;
};

class NNProbe : public oppsla::Classifier {
public:
  explicit NNProbe(oppsla::Classifier &Inner);

  std::vector<float> scores(const oppsla::Image &Img) override;
  std::vector<std::vector<float>> scoresBatch(
      std::span<const oppsla::Image> Imgs) override;
  void prefetch(std::span<const oppsla::Image> Imgs) override {
    Inner.prefetch(Imgs);
  }
  bool prefetchable() const override { return Inner.prefetchable(); }
  size_t numClasses() const override { return Inner.numClasses(); }
  std::unique_ptr<oppsla::Classifier> clone() const override;

private:
  oppsla::Classifier &Inner;
  std::unique_ptr<oppsla::Classifier> OwnedInner; ///< set on clones
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
