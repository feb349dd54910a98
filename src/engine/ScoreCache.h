//===- engine/ScoreCache.h - Memoizing score cache --------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An LRU cache from image content to classifier score vectors. The attacks
/// revisit perturbed images constantly (speculative prefetch, re-expanded
/// sketch pairs, DE populations circling the same pixels), and a classifier
/// forward is deterministic, so memoized scores are bit-identical to fresh
/// ones — caching can never change a result, only skip a forward.
///
/// Keys are ScoreCache::key values, but a 64-bit hash is not an identity:
/// every hit re-verifies the full pixel bytes against the stored image and
/// treats a mismatch as a miss (counted separately), so a hash collision
/// costs a forward, never a wrong answer.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_ENGINE_SCORECACHE_H
#define OPPSLA_ENGINE_SCORECACHE_H

#include "data/Image.h"

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace oppsla {

/// Thread-safe LRU map: image bytes -> score vector.
class ScoreCache {
public:
  /// \p Capacity is the maximum number of resident entries; 0 disables the
  /// cache entirely (every lookup misses, inserts are dropped).
  explicit ScoreCache(size_t Capacity) : Capacity(Capacity) {}

  /// The cache key of \p Img: its pixel bytes hashed as 64-bit words in
  /// four independent xor-rotate-multiply lanes, folded with H and W
  /// through the SplitMix64 finalizer. Every probe and insert pays it.
  /// Unlike Image::contentHash, which seeds attack RNG streams, it is never
  /// part of a result, so it can change without moving a byte.
  static uint64_t key(const Image &Img);

  /// Looks up \p Img (whose key() the caller already computed).
  /// On a verified hit, copies the memoized scores into \p ScoresOut,
  /// promotes the entry to most-recently-used, and returns true.
  bool lookup(const Image &Img, uint64_t Hash, std::vector<float> &ScoresOut);

  /// Memoizes \p Scores for \p Img, evicting the least-recently-used entry
  /// when full. An existing entry under the same hash is overwritten (for
  /// a genuine collision the newer image wins; the loser just misses).
  void insert(const Image &Img, uint64_t Hash, std::vector<float> Scores);

  /// True if a verified entry for \p Img is resident (no LRU promotion).
  bool contains(const Image &Img, uint64_t Hash) const;

  size_t size() const;
  size_t capacity() const { return Capacity; }
  bool enabled() const { return Capacity != 0; }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  /// Lookups whose hash matched a resident entry with different bytes.
  uint64_t collisions() const { return Collisions; }

  /// Drops every entry (stats are kept).
  void clear();

private:
  struct Entry {
    uint64_t Hash;
    size_t H, W;
    std::vector<float> Pixels; ///< full image bytes for hit verification
    std::vector<float> Scores;
  };

  static bool sameImage(const Entry &E, const Image &Img);

  size_t Capacity;
  mutable std::mutex Mu;
  std::list<Entry> Lru; ///< front = most recently used
  std::unordered_map<uint64_t, std::list<Entry>::iterator> Map;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Collisions = 0;
};

} // namespace oppsla

#endif // OPPSLA_ENGINE_SCORECACHE_H
