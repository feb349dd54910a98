//===- perfbench/src/Probes.cpp - Classifier decorators for tracing -------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Probes.h"

#include "Spans.h"

using namespace oppsla;

namespace perfbench {

void EngineCounts::endImage() {
  std::lock_guard<std::mutex> Lock(Mu);
  Pending.clear();
}

EngineProbe::EngineProbe(Classifier &Inner,
                         std::shared_ptr<EngineCounts> Counts)
    : Inner(Inner), Counts(std::move(Counts)) {}

void EngineProbe::matchPrefetched(const Image &Img) {
  std::lock_guard<std::mutex> Lock(Counts->Mu);
  if (Counts->Pending.empty())
    return;
  auto It = Counts->Pending.find(Img.contentHash());
  if (It == Counts->Pending.end())
    return;
  Counts->PrefetchHits.fetch_add(1, std::memory_order_relaxed);
  if (--It->second == 0)
    Counts->Pending.erase(It);
}

std::vector<float> EngineProbe::scores(const Image &Img) {
  Counts->Queries.fetch_add(1, std::memory_order_relaxed);
  matchPrefetched(Img);
  ScopedSpan S("engine", 1);
  return Inner.scores(Img);
}

std::vector<std::vector<float>> EngineProbe::scoresBatch(
    std::span<const Image> Imgs) {
  Counts->Queries.fetch_add(Imgs.size(), std::memory_order_relaxed);
  for (const Image &Img : Imgs)
    matchPrefetched(Img);
  ScopedSpan S("engine", static_cast<uint32_t>(Imgs.size()));
  return Inner.scoresBatch(Imgs);
}

void EngineProbe::prefetch(std::span<const Image> Imgs) {
  Counts->Prefetched.fetch_add(Imgs.size(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(Counts->Mu);
    for (const Image &Img : Imgs)
      ++Counts->Pending[Img.contentHash()];
  }
  ScopedSpan S("engine.prefetch", static_cast<uint32_t>(Imgs.size()));
  Inner.prefetch(Imgs);
}

std::unique_ptr<Classifier> EngineProbe::clone() const {
  std::unique_ptr<Classifier> C = Inner.clone();
  if (!C)
    return nullptr;
  auto P = std::make_unique<EngineProbe>(*C, Counts);
  P->OwnedInner = std::move(C);
  return P;
}

NNProbe::NNProbe(Classifier &Inner) : Inner(Inner) {}

std::vector<float> NNProbe::scores(const Image &Img) {
  ScopedSpan S("nn", 1);
  return Inner.scores(Img);
}

std::vector<std::vector<float>> NNProbe::scoresBatch(
    std::span<const Image> Imgs) {
  ScopedSpan S("nn", static_cast<uint32_t>(Imgs.size()));
  return Inner.scoresBatch(Imgs);
}

std::unique_ptr<Classifier> NNProbe::clone() const {
  std::unique_ptr<Classifier> C = Inner.clone();
  if (!C)
    return nullptr;
  auto P = std::make_unique<NNProbe>(*C);
  P->OwnedInner = std::move(C);
  return P;
}

} // namespace perfbench
