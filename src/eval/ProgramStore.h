//===- eval/ProgramStore.h - Content-addressed program store ----*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The content-addressed store for synthesized programs. Synthesis is by
/// far the most expensive phase (MaxIter full training-set evaluations per
/// class), yet its result is a pure function of a small key: the DSL
/// version, the victim (its cache stem already hashes architecture, task,
/// scale and training seed), the attacked class, and the synthesis
/// configuration. The store persists every island's elite under that key
/// so synthesize/eval/serve rehydrate programs instead of re-searching,
/// and attack-time portfolio selection can pick among the elites.
///
/// Layout: one OPWF wire artifact per key at `<root>/<hex64(key)>.opwf`,
/// holding a JobSpec record (the canonical key string plus per-program
/// training stats as JSON) and one Program record per stored program,
/// index-parallel with the stats. Record 0 is always the program the
/// synthesis run returned; records 1.. are the island elites. Writes are
/// atomic (tmp + rename) and every record is CRC'd by the wire layer; a
/// load re-verifies the canonical key byte-for-byte against the request,
/// so a hash collision or a corrupted entry degrades to a miss (the caller
/// falls back to search), never to a wrong program.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_EVAL_PROGRAMSTORE_H
#define OPPSLA_EVAL_PROGRAMSTORE_H

#include "core/Condition.h"

#include <string>
#include <vector>

namespace oppsla {

/// Everything the synthesized programs of one (victim, class) are a pure
/// function of. Fields deliberately mirror SynthesisConfig plus the
/// training-set shape; two keys with equal canonical() strings are
/// guaranteed to describe byte-identical synthesis runs.
struct ProgramStoreKey {
  uint32_t Dsl = DslVersion;  ///< condition-language version
  std::string VictimStem;     ///< victim cache stem (hashes arch/task/scale)
  size_t Label = 0;           ///< attacked class
  size_t MaxIter = 0;         ///< MH iterations per chain
  double Beta = 0.02;         ///< score sharpness
  uint64_t QueryCap = 0;      ///< per-image query cap during synthesis
  uint64_t Seed = 0;          ///< the per-class synthesis seed
  size_t Islands = 1;         ///< island count
  size_t ExchangeInterval = 0; ///< normalized to 0 when Islands <= 1
  size_t TrainPerClass = 0;   ///< synthesis training-set size per class

  /// One-line canonical rendering; the byte-verified identity of an entry.
  std::string canonical() const;
  /// FNV-1a 64-bit hash of canonical(); names the entry file.
  uint64_t hash() const;
};

/// One stored program with the training-set stats behind it.
struct StoredProgram {
  Program P;
  double AvgQueries = 0.0;
  size_t Successes = 0;
  size_t Attacks = 0;
};

/// Exact-round-trip text form of a program (the `%.17g` four-line format
/// shared with saveProgram); what Program wire records carry.
std::string programToStoreText(const Program &P);
bool programFromStoreText(const std::string &Text, Program &P);

/// Attack-time portfolio selection over a store entry: the elite with the
/// lowest average query count among those that succeeded at least once,
/// ties to the earliest index; entry 0 (the synthesis run's own pick) when
/// nothing succeeded. For entries written by this repo's synthesis this
/// re-derives entry 0 — the rule exists so external tools and future
/// multi-entry portfolios agree on the selection.
const StoredProgram &
selectFromPortfolio(const std::vector<StoredProgram> &Portfolio);

/// The store itself: a directory of immutable, content-addressed entries.
class ProgramStore {
public:
  /// \p Root may be empty to use defaultRoot().
  explicit ProgramStore(std::string Root = "");

  /// `$OPPSLA_CACHE_DIR/programs` (or `.oppsla-cache/programs`).
  static std::string defaultRoot();

  const std::string &root() const { return Root; }

  /// The entry file a key addresses.
  std::string entryPath(const ProgramStoreKey &K) const;

  /// Loads and verifies the entry for \p K. Returns true and fills
  /// \p Portfolio (entry 0 first) on a hit; false on a miss, a key
  /// mismatch, stats save() cannot write, or any corruption — callers
  /// fall back to synthesis.
  /// Bumps the synth.store.{hits,misses} counters.
  bool load(const ProgramStoreKey &K,
            std::vector<StoredProgram> &Portfolio) const;

  /// Atomically persists \p Portfolio (entry 0 = the selected program)
  /// under \p K, creating the store directory if needed.
  bool save(const ProgramStoreKey &K,
            const std::vector<StoredProgram> &Portfolio) const;

private:
  std::string Root;
};

} // namespace oppsla

#endif // OPPSLA_EVAL_PROGRAMSTORE_H
