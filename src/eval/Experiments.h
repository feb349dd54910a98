//===- eval/Experiments.h - Shared experiment setup -------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common setup shared by the bench binaries and examples: building the
/// scaled victim classifiers (the paper's three CIFAR CNNs and two
/// ImageNet CNNs), generating held-out test sets, and synthesizing — or
/// loading from the disk cache — the per-class adversarial programs.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_EVAL_EXPERIMENTS_H
#define OPPSLA_EVAL_EXPERIMENTS_H

#include "classify/Training.h"
#include "core/Synthesizer.h"
#include "support/BenchScale.h"

#include <memory>
#include <vector>

namespace oppsla {

/// The paper's CIFAR-10 victim families, in table order.
const std::vector<Arch> &cifarArchs();
/// The paper's ImageNet victim families.
const std::vector<Arch> &imageNetArchs();

/// Image side used for \p Task at this scale.
size_t taskSide(TaskKind Task, const BenchScale &Scale);

/// Builds (or loads from cache) the victim classifier for (\p Task,
/// \p Architecture) at this scale.
std::unique_ptr<NNClassifier> makeScaledVictim(TaskKind Task,
                                               Arch Architecture,
                                               const BenchScale &Scale,
                                               uint64_t Seed = 1);

/// The cache stem makeScaledVictim uses for this victim; also the key
/// under which its synthesized programs are cached.
std::string victimStem(TaskKind Task, Arch Architecture,
                       const BenchScale &Scale, uint64_t Seed = 1);

/// A held-out evaluation set: Scale.TestPerClass images for each of
/// Scale.NumClasses classes, generated from a seed disjoint from every
/// training seed.
Dataset makeTestSet(TaskKind Task, const BenchScale &Scale,
                    uint64_t Seed = 1);

/// Per-class synthesis training sets use this seed; disjoint from victim
/// training and test generation.
Dataset makeSynthesisSet(TaskKind Task, size_t Label,
                         const BenchScale &Scale, uint64_t Seed = 1);

/// How the synthesis phase runs: parallelism shape plus program-store
/// policy. Shared by the CLI commands, the benches, and the serve job
/// runner so they all spell the same knobs the same way.
struct SynthesisRunOptions {
  /// Worker threads, split as SynthesisConfig::Threads describes (across
  /// islands, then Threads / Islands scorers per island). Never part of
  /// any cache key: the synthesized programs are bit-identical at any
  /// thread count.
  size_t Threads = 1;
  size_t Islands = 1;          ///< SynthesisConfig::Islands
  size_t ExchangeInterval = 25; ///< SynthesisConfig::ExchangeInterval
  /// Rehydrate from / persist to the content-addressed program store.
  bool UseStore = true;
  /// Store directory; empty = ProgramStore::defaultRoot().
  std::string StoreRoot;
};

/// The per-class synthesis configuration every consumer agrees on (and
/// the source of truth for the program-store key): MaxIter/cap from the
/// scale, a per-class seed derived from \p Seed, parallelism and island
/// shape from \p Opts.
SynthesisConfig classSynthesisConfig(const BenchScale &Scale, size_t Label,
                                     uint64_t Seed,
                                     const SynthesisRunOptions &Opts);

/// Synthesizes the adversarial program for one (victim, class) — or
/// rehydrates it from the program store, where the winning elites of a
/// previous run are kept under a key covering everything the result is a
/// function of (DSL version, victim stem, class, synthesis config).
/// Candidates are scored on \p Victim itself, through synthesizeProgram's
/// per-image sketch memos, which change the forward count but never a
/// result byte.
Program synthesizeClassProgram(NNClassifier &Victim,
                               const std::string &VictimStem, TaskKind Task,
                               const BenchScale &Scale, size_t Label,
                               uint64_t Seed,
                               const SynthesisRunOptions &Opts);

/// synthesizeClassProgram for every class; returns Scale.NumClasses
/// programs. The store key includes \p VictimStem so programs synthesized
/// for one classifier are never reused for another.
std::vector<Program> synthesizeClassPrograms(NNClassifier &Victim,
                                             const std::string &VictimStem,
                                             TaskKind Task,
                                             const BenchScale &Scale,
                                             uint64_t Seed,
                                             const SynthesisRunOptions &Opts);

/// Back-compat shim for the pre-island call sites.
std::vector<Program> synthesizeClassPrograms(NNClassifier &Victim,
                                             const std::string &VictimStem,
                                             TaskKind Task,
                                             const BenchScale &Scale,
                                             uint64_t Seed = 1,
                                             size_t Threads = 1);

/// Saves a program as a small text file. \returns true on success.
bool saveProgram(const Program &P, const std::string &Path);

/// Loads a program saved with saveProgram.
bool loadProgram(Program &P, const std::string &Path);

} // namespace oppsla

#endif // OPPSLA_EVAL_EXPERIMENTS_H
