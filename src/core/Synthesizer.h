//===- core/Synthesizer.h - OPPSLA's MH search (Algorithm 2) ----*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// OPPSLA's synthesizer (Appendix B, Algorithm 2): Metropolis-Hastings-
/// style stochastic search over sketch instantiations. Each candidate
/// program is scored by running it on every training image and measuring
/// the average number of queries over *successful* attacks:
///
///   S(P) = exp(-beta * avgQueries(P))
///
/// A mutated candidate P' replaces P with probability min(1, S(P')/S(P)).
/// Every run on a training image goes through that image's SketchMemo,
/// shared by all candidates and islands of one call, so a call forwards
/// each distinct (image, pixel, corner) query once; queries are still
/// counted one by one, so the memo never changes a result.
/// The synthesizer optionally records a trace of the best program so far
/// with cumulative query counts — the raw series behind the paper's
/// Figure 4.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_CORE_SYNTHESIZER_H
#define OPPSLA_CORE_SYNTHESIZER_H

#include "core/Mutation.h"
#include "core/Sketch.h"

#include <vector>

namespace oppsla {

/// Hyper-parameters of Algorithm 2.
struct SynthesisConfig {
  size_t MaxIter = 210;    ///< MH iterations (paper Appendix C uses 210)
  double Beta = 0.02;      ///< score sharpness in exp(-beta * avgQ)
  uint64_t PerImageQueryCap = 4096; ///< cap per training image (DESIGN §5.3)
  uint64_t Seed = 1;       ///< RNG seed for init + proposals + acceptance
  /// Worker threads. Candidate scoring dominates synthesis cost (MaxIter
  /// evaluations of the full training set), so each of the N islands
  /// scores its candidates on Threads / N workers over classifier clones,
  /// and up to min(Threads, N) islands run concurrently. The MH chains
  /// themselves stay serial and per-image results are reduced in index
  /// order, so any thread count produces bit-identical programs. Requires
  /// a cloneable classifier; falls back to serial otherwise.
  size_t Threads = 1;
  /// Number of independent MH chains ("islands"), N = max(1, Islands).
  /// A single island is the paper's chain on Rng(Seed). With N > 1 island
  /// i derives its own Rng stream from (Seed, i) via SplitMix64 splitting,
  /// and every ExchangeInterval iterations the islands exchange elites on
  /// a ring in deterministic index order — so the result is a pure
  /// function of (Seed, Islands, ExchangeInterval) at ANY thread count.
  size_t Islands = 1;
  /// Island iterations between elite exchanges (ignored for Islands <= 1).
  size_t ExchangeInterval = 25;
};

/// Aggregate result of running one program over a training set.
struct ProgramEval {
  double AvgQueries = 0.0;   ///< over successful attacks only
  size_t Successes = 0;      ///< images successfully attacked
  size_t Attacks = 0;        ///< images attempted
  uint64_t TotalQueries = 0; ///< all queries posed, successes and failures

  /// The paper's score S(P) = exp(-beta * avgQ); programs with zero
  /// successes score 0 so they are (almost) never accepted.
  double score(double Beta) const;
};

/// One entry of the synthesis trace, which follows the *elite trajectory*:
/// entry 0 is the best initial program across islands, then one entry per
/// round (one iteration for a single island, ExchangeInterval iterations
/// otherwise) holding the global best program so far. Iteration counts
/// per-island iterations and CumulativeQueries sums over all islands. The
/// chains' own per-iteration accept/reject decisions are the `synth_iter`
/// trace events.
struct SynthesisStep {
  size_t Iteration = 0;            ///< 0 = the initial random programs
  bool Accepted = false;           ///< the global best improved this round
  Program Current;                 ///< best program seen so far
  double AvgQueries = 0.0;         ///< its training-set average queries
  uint64_t CumulativeQueries = 0;  ///< synthesis queries posed so far
};

/// The best program one island ever scored, with the training-set
/// statistics behind its score — what the program store persists for
/// attack-time portfolio selection.
struct IslandElite {
  Program P;
  ProgramEval Eval;   ///< training-set stats of P
  double Score = 0.0; ///< Eval.score(Beta), 0 when nothing succeeded
};

/// Runs program \p P over every (image, label) pair of \p TrainSet with a
/// per-image budget of \p PerImageCap queries. With \p Threads > 1 the
/// images are scored by a worker pool over classifier clones; the
/// per-image outcomes are reduced in index order, so the result is
/// bit-identical to the serial evaluation.
ProgramEval evaluateProgram(const Program &P, Classifier &N,
                            const Dataset &TrainSet, uint64_t PerImageCap,
                            size_t Threads = 1);

/// OPPSLA: synthesizes a program for classifier \p N and training set
/// \p TrainSet with N = max(1, Config.Islands) MH chains. Returns the
/// best-scoring program any chain saw (the chains explore, they do not
/// estimate), or the fixed prioritization when no candidate ever
/// succeeded. If \p Trace is non-null every round is recorded. If
/// \p Elites is non-null it receives each island's best-seen program and
/// stats — the raw material the program store persists.
Program synthesizeProgram(Classifier &N, const Dataset &TrainSet,
                          const SynthesisConfig &Config,
                          std::vector<SynthesisStep> *Trace = nullptr,
                          std::vector<IslandElite> *Elites = nullptr);

/// The Sketch+Random baseline (Appendix C): samples \p NumSamples random
/// programs, evaluates each on the training set, and returns the one with
/// the lowest average query count. \p Threads parallelizes each
/// evaluation as in evaluateProgram.
Program randomSearchProgram(Classifier &N, const Dataset &TrainSet,
                            size_t NumSamples, uint64_t PerImageCap,
                            uint64_t Seed, size_t Threads = 1);

} // namespace oppsla

#endif // OPPSLA_CORE_SYNTHESIZER_H
