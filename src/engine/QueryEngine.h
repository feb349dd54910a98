//===- engine/QueryEngine.h - Batched, memoizing query engine ---*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The query engine that sits between the attacks and the classifier. It
/// is itself a Classifier, so every existing call site (QueryCounter,
/// sweeps, clones) composes unchanged; what it adds is the split the
/// paper's accounting needs:
///
///   - *logical queries* are what the attack asks for and what the
///     paper's avgQueries metric reports — a cache hit still counts;
///   - *physical forwards* are what the hardware pays — one per cache
///     miss in scores(), plus prefetch submissions run as batched forwards
///     in chunks of BatchSize, optionally spread over a worker pool of
///     classifier clones.
///
/// Correctness invariant: the engine never changes a single result byte.
/// Forwards are deterministic and per-sample independent (batched output
/// is bit-identical to serial output), and the ScoreCache verifies full
/// image bytes on every hit, so any combination of --cache-capacity,
/// --no-cache and engine threads yields byte-identical attack outcomes —
/// enforced end to end by the cli_eval_engine_identical ctest.
///
/// prefetch() is the speculation entry point and the engine's only batched
/// path: attacks submit the candidate images they are *about* to query
/// serially; the engine runs them as batched forwards into the cache, and
/// the subsequent scores() calls hit. Mispredicted candidates cost a wasted
/// forward, never a wrong answer.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_ENGINE_QUERYENGINE_H
#define OPPSLA_ENGINE_QUERYENGINE_H

#include "classify/Classifier.h"
#include "engine/ScoreCache.h"
#include "support/ThreadPool.h"

#include <map>
#include <memory>
#include <string>

namespace oppsla {

/// Engine tunables, mirrored by the CLI's --cache-capacity / --no-cache /
/// --engine-threads flags.
struct QueryEngineConfig {
  /// ScoreCache entries; 0 disables memoization (and with it prefetch).
  size_t CacheCapacity = 4096;
  /// Worker threads for prefetch forwards. 1 = evaluate on the calling
  /// thread; >1 spreads the BatchSize-chunks of one prefetch submission
  /// over a pool of classifier clones (requires a cloneable inner
  /// classifier). Results land at their submission index, so the thread
  /// count never changes them.
  size_t Threads = 1;
  /// When true, clone() hands out engines that share this engine's
  /// ScoreCache instead of building a fresh one. The cache is thread-safe
  /// and verifies full image bytes on every hit, so sharing can only
  /// convert misses into hits — results stay byte-identical. The serve
  /// subsystem turns this on so concurrent jobs against the same victim
  /// pool their forwards.
  bool ShareCacheOnClone = false;
};

/// Memoizing classifier decorator with a batched prefetch.
class QueryEngine : public Classifier {
public:
  /// Maximum images per physical forward of a prefetch submission (the
  /// {N,3,H,W} batch dimension).
  static constexpr size_t BatchSize = 8;

  /// Wraps \p Inner (not owned; must outlive the engine).
  explicit QueryEngine(Classifier &Inner,
                       QueryEngineConfig Config = QueryEngineConfig());
  ~QueryEngine() override;

  std::vector<float> scores(const Image &Img) override;
  void prefetch(std::span<const Image> Imgs) override;
  bool prefetchable() const override { return Cache->enabled(); }
  size_t numClasses() const override { return Inner.numClasses(); }

  /// Clones the inner classifier and builds an independent engine around
  /// it (same config; fresh cache, or this engine's cache when
  /// Config.ShareCacheOnClone). Returns nullptr when the inner classifier
  /// is not cloneable.
  std::unique_ptr<Classifier> clone() const override;

  const QueryEngineConfig &config() const { return Config; }
  ScoreCache &cache() { return *Cache; }

  /// Per-engine counters (process-wide aggregates live in the telemetry
  /// registry under engine.*).
  uint64_t logicalQueries() const { return Logical; }
  uint64_t physicalForwards() const { return Physical; }

private:
  /// Runs the batched forward for the non-empty \p Unique (indices into
  /// \p Imgs), chunked by BatchSize and optionally parallelized, writing
  /// score vectors into \p Out at the same positions.
  void forwardUnique(std::span<const Image> Imgs,
                     const std::vector<size_t> &Unique,
                     std::vector<std::vector<float>> &Out);

  Classifier &Inner;
  std::unique_ptr<Classifier> OwnedInner; ///< set on clones
  QueryEngineConfig Config;
  std::shared_ptr<ScoreCache> Cache; ///< never null; shared across clones
                                     ///< when Config.ShareCacheOnClone

  /// Chunk workers, built by the first multi-chunk prefetch when
  /// Config.Threads > 1: worker 0 runs on Inner, worker T on Clones[T-1].
  std::vector<std::unique_ptr<Classifier>> Clones;
  std::unique_ptr<ThreadPool> Pool;

  uint64_t Logical = 0;
  uint64_t Physical = 0;
};

/// One-line human summary of the process-wide engine counters (hit rate,
/// forwards vs logical queries, mean physical batch). Empty string when no
/// engine query ran.
std::string engineMetricsSummary();

/// The same process-wide engine counters as a flat numeric map, derived
/// ratios included (`engine.cache.hit_rate`, `engine.forwards_per_query`,
/// `engine.batch.mean`) — the shape BenchJson/the bench ledger ingest, so
/// every bench artifact carries the engine's efficiency next to its
/// throughput. Empty map when no engine query ran.
std::map<std::string, double> engineLedgerMetrics();

} // namespace oppsla

#endif // OPPSLA_ENGINE_QUERYENGINE_H
