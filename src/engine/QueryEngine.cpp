//===- engine/QueryEngine.cpp - Batched, memoizing query engine --------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/QueryEngine.h"

#include "support/Metrics.h"
#include "support/Profiler.h"
#include "support/Trace.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

using namespace oppsla;

namespace {

telemetry::Counter &logicalCounter() {
  static telemetry::Counter &C = telemetry::counter("engine.queries");
  return C;
}
telemetry::Counter &forwardCounter() {
  static telemetry::Counter &C = telemetry::counter("engine.forwards");
  return C;
}
telemetry::Counter &hitCounter() {
  static telemetry::Counter &C = telemetry::counter("engine.cache.hits");
  return C;
}
telemetry::Counter &missCounter() {
  static telemetry::Counter &C = telemetry::counter("engine.cache.misses");
  return C;
}
telemetry::Counter &prefetchCounter() {
  static telemetry::Counter &C = telemetry::counter("engine.prefetch.images");
  return C;
}
telemetry::Histogram &batchSizeHist() {
  static telemetry::Histogram &H = telemetry::histogram(
      "engine.batch.size", telemetry::exponentialBuckets(1.0, 2.0, 12));
  return H;
}

} // namespace

QueryEngine::QueryEngine(Classifier &Inner, QueryEngineConfig Config)
    : Inner(Inner), Config(Config),
      Cache(std::make_shared<ScoreCache>(Config.CacheCapacity)) {}

QueryEngine::~QueryEngine() = default;

std::vector<float> QueryEngine::scores(const Image &Img) {
  telemetry::ProfileScope Span("engine.query");
  ++Logical;
  logicalCounter().inc();
  std::vector<float> S;
  const bool Memo = Cache->enabled();
  const uint64_t Hash = Memo ? ScoreCache::key(Img) : 0;
  if (Memo) {
    if (Cache->lookup(Img, Hash, S)) {
      hitCounter().inc();
      return S;
    }
    missCounter().inc();
  }
  S = Inner.scores(Img);
  ++Physical;
  forwardCounter().inc();
  batchSizeHist().observe(1.0);
  if (Memo)
    Cache->insert(Img, Hash, S);
  return S;
}

void QueryEngine::prefetch(std::span<const Image> Imgs) {
  // Without a cache there is nowhere to park speculative results.
  if (!Cache->enabled() || Imgs.empty())
    return;
  telemetry::ProfileScope Span("engine.prefetch");

  std::vector<size_t> Unique;
  std::vector<uint64_t> Hashes(Imgs.size()); ///< reused by the inserts below
  std::unordered_map<uint64_t, std::vector<size_t>> Reps;
  for (size_t I = 0; I != Imgs.size(); ++I) {
    const uint64_t Hash = Hashes[I] = ScoreCache::key(Imgs[I]);
    if (Cache->contains(Imgs[I], Hash))
      continue;
    bool Aliased = false;
    for (size_t Rep : Reps[Hash])
      if (Imgs[Rep].sameBytes(Imgs[I])) {
        Aliased = true;
        break;
      }
    if (Aliased)
      continue;
    Reps[Hash].push_back(I);
    Unique.push_back(I);
    // Prefetching past the cache capacity would evict this submission's
    // own entries before the attack consumes them.
    if (Unique.size() == Cache->capacity())
      break;
  }
  if (Unique.empty())
    return;

  std::vector<std::vector<float>> Scores(Imgs.size());
  forwardUnique(Imgs, Unique, Scores);
  for (size_t I : Unique)
    Cache->insert(Imgs[I], Hashes[I], std::move(Scores[I]));
  prefetchCounter().inc(Unique.size());

  if (telemetry::traceEnabled())
    telemetry::traceEvent(
        "engine_batch",
        {{"kind", "prefetch"},
         {"images", static_cast<uint64_t>(Imgs.size())},
         {"forwards", static_cast<uint64_t>(Unique.size())}});
}

void QueryEngine::forwardUnique(std::span<const Image> Imgs,
                                const std::vector<size_t> &Unique,
                                std::vector<std::vector<float>> &Out) {
  telemetry::ProfileScope Span("engine.forward");
  Physical += Unique.size();
  forwardCounter().inc(Unique.size());

  // Chunk boundaries: [K*BatchSize, (K+1)*BatchSize) over Unique.
  const size_t B = BatchSize;
  const size_t NumChunks = (Unique.size() + B - 1) / B;
  for (size_t K = 0; K != NumChunks; ++K)
    batchSizeHist().observe(static_cast<double>(
        std::min(B, Unique.size() - K * B)));

  auto RunChunk = [&](Classifier &C, size_t K) {
    const size_t Begin = K * B;
    const size_t End = std::min(Begin + B, Unique.size());
    std::vector<Image> Chunk;
    {
      telemetry::ProfileScope AssembleSpan("engine.assemble");
      Chunk.reserve(End - Begin);
      for (size_t I = Begin; I != End; ++I)
        Chunk.push_back(Imgs[Unique[I]]);
    }
    std::vector<std::vector<float>> S =
        C.scoresBatch(std::span<const Image>(Chunk));
    for (size_t I = Begin; I != End; ++I)
      Out[Unique[I]] = std::move(S[I - Begin]);
  };

  if (NumChunks > 1 && Config.Threads > 1 && !Pool) {
    Clones = workerClones(Inner, Config.Threads);
    if (!Clones.empty())
      Pool = std::make_unique<ThreadPool>(Config.Threads);
  }
  if (NumChunks > 1 && Pool) {
    // Worker T runs chunks T, T+W, T+2W, ... on its own classifier (0 is
    // Inner): a fixed assignment, so the chunks each classifier's delta
    // reference comes from never depend on scheduling.
    const size_t W = Pool->numThreads();
    Pool->forEach(std::min(W, NumChunks), [&](size_t T) {
      Classifier &C = T == 0 ? Inner : *Clones[T - 1];
      for (size_t K = T; K < NumChunks; K += W)
        RunChunk(C, K);
    });
    return;
  }

  // A single chunk (or no workers) runs on the calling thread.
  for (size_t K = 0; K != NumChunks; ++K)
    RunChunk(Inner, K);
}

std::unique_ptr<Classifier> QueryEngine::clone() const {
  auto InnerClone = Inner.clone();
  if (!InnerClone)
    return nullptr;
  auto Out = std::make_unique<QueryEngine>(*InnerClone, Config);
  Out->OwnedInner = std::move(InnerClone);
  if (Config.ShareCacheOnClone)
    Out->Cache = Cache; // thread-safe, byte-verified: results unchanged
  return Out;
}

std::string oppsla::engineMetricsSummary() {
  const uint64_t Queries = logicalCounter().value();
  if (Queries == 0)
    return "";
  const uint64_t Forwards = forwardCounter().value();
  const uint64_t Hits = hitCounter().value();
  const uint64_t Misses = missCounter().value();
  std::ostringstream S;
  S << "engine: " << Queries << " logical queries, " << Forwards
    << " physical forwards";
  if (Hits + Misses != 0) {
    S.precision(1);
    S << ", cache hit rate " << std::fixed
      << 100.0 * static_cast<double>(Hits) /
             static_cast<double>(Hits + Misses)
      << "%";
  }
  const telemetry::Histogram &H = batchSizeHist();
  if (H.count() != 0) {
    S.precision(1);
    S << ", avg physical batch " << std::fixed << H.mean();
  }
  return S.str();
}

std::map<std::string, double> oppsla::engineLedgerMetrics() {
  std::map<std::string, double> M;
  const uint64_t Queries = logicalCounter().value();
  if (Queries == 0)
    return M;
  const uint64_t Forwards = forwardCounter().value();
  const uint64_t Hits = hitCounter().value();
  const uint64_t Misses = missCounter().value();
  M["engine.queries.logical"] = static_cast<double>(Queries);
  M["engine.forwards.physical"] = static_cast<double>(Forwards);
  M["engine.forwards_per_query"] =
      static_cast<double>(Forwards) / static_cast<double>(Queries);
  M["engine.cache.hits"] = static_cast<double>(Hits);
  M["engine.cache.misses"] = static_cast<double>(Misses);
  if (Hits + Misses != 0)
    M["engine.cache.hit_rate"] = static_cast<double>(Hits) /
                                 static_cast<double>(Hits + Misses);
  M["engine.prefetch.images"] =
      static_cast<double>(prefetchCounter().value());
  const telemetry::Histogram &H = batchSizeHist();
  if (H.count() != 0)
    M["engine.batch.mean"] = H.mean();
  return M;
}
