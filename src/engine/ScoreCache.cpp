//===- engine/ScoreCache.cpp - Memoizing score cache -------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/ScoreCache.h"

#include <cstring>

using namespace oppsla;

namespace {

/// SplitMix64's finalizer: a bijective avalanche of one 64-bit word.
uint64_t splitMix(uint64_t X) {
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

} // namespace

uint64_t ScoreCache::key(const Image &Img) {
  // Four lanes keep four multiplies in flight where contentHash's single
  // FNV-1a chain waits on each one. A plain xor-multiply step only carries
  // a difference toward the high bits, so two exponent-only changes in the
  // high halves of one lane's words could cancel; rotating by 32 before
  // the multiply sends every bit through the low half on the next step.
  constexpr uint64_t Mul = 0x9e3779b97f4a7c15ULL;
  uint64_t Lane[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                      0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
  const auto Step = [](uint64_t State, uint64_t Word) {
    const uint64_t X = State ^ Word;
    return ((X << 32) | (X >> 32)) * Mul;
  };
  const std::vector<float> &Raw = Img.raw();
  const char *Bytes = reinterpret_cast<const char *>(Raw.data());
  const size_t Words = Raw.size() / 2;
  size_t I = 0;
  for (; I + 4 <= Words; I += 4) {
    for (size_t L = 0; L != 4; ++L) {
      uint64_t Word;
      std::memcpy(&Word, Bytes + (I + L) * sizeof(Word), sizeof(Word));
      Lane[L] = Step(Lane[L], Word);
    }
  }
  for (; I != Words; ++I) {
    uint64_t Word;
    std::memcpy(&Word, Bytes + I * sizeof(Word), sizeof(Word));
    Lane[I % 4] = Step(Lane[I % 4], Word);
  }
  if (Raw.size() % 2 != 0) {
    uint32_t Last;
    std::memcpy(&Last, Bytes + Words * sizeof(uint64_t), sizeof(Last));
    Lane[3] = Step(Lane[3], Last);
  }
  uint64_t Key = splitMix((static_cast<uint64_t>(Img.height()) << 32) ^
                          static_cast<uint64_t>(Img.width()));
  for (const uint64_t L : Lane)
    Key = splitMix(Key ^ L);
  return Key;
}

bool ScoreCache::sameImage(const Entry &E, const Image &Img) {
  if (E.H != Img.height() || E.W != Img.width())
    return false;
  const std::vector<float> &Raw = Img.raw();
  if (E.Pixels.size() != Raw.size())
    return false;
  // Byte comparison, not float ==: the hash is over bit patterns, and
  // -0.0f / NaN payloads must verify the same way they hashed.
  return std::memcmp(E.Pixels.data(), Raw.data(),
                     Raw.size() * sizeof(float)) == 0;
}

bool ScoreCache::lookup(const Image &Img, uint64_t Hash,
                        std::vector<float> &ScoresOut) {
  std::lock_guard<std::mutex> Lock(Mu);
  const auto It = Map.find(Hash);
  if (It == Map.end()) {
    ++Misses;
    return false;
  }
  if (!sameImage(*It->second, Img)) {
    ++Collisions;
    ++Misses;
    return false;
  }
  Lru.splice(Lru.begin(), Lru, It->second);
  ScoresOut = It->second->Scores;
  ++Hits;
  return true;
}

void ScoreCache::insert(const Image &Img, uint64_t Hash,
                        std::vector<float> Scores) {
  if (Capacity == 0)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  const auto It = Map.find(Hash);
  if (It != Map.end()) {
    // Refresh (or, on collision, replace) the resident entry in place.
    Entry &E = *It->second;
    E.H = Img.height();
    E.W = Img.width();
    E.Pixels = Img.raw();
    E.Scores = std::move(Scores);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  if (Lru.size() >= Capacity) {
    Map.erase(Lru.back().Hash);
    Lru.pop_back();
  }
  Lru.push_front(Entry{Hash, Img.height(), Img.width(), Img.raw(),
                       std::move(Scores)});
  Map[Hash] = Lru.begin();
}

bool ScoreCache::contains(const Image &Img, uint64_t Hash) const {
  std::lock_guard<std::mutex> Lock(Mu);
  const auto It = Map.find(Hash);
  return It != Map.end() && sameImage(*It->second, Img);
}

size_t ScoreCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Lru.size();
}

void ScoreCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Map.clear();
  Lru.clear();
}
