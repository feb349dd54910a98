//===- core/Synthesizer.cpp - OPPSLA's MH search (Algorithm 2) ---------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Synthesizer.h"

#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Profiler.h"
#include "support/Progress.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>

using namespace oppsla;

double ProgramEval::score(double Beta) const {
  if (Successes == 0)
    return 0.0;
  return std::exp(-Beta * AvgQueries);
}

namespace {

/// Outcome of one sketch run, recorded per image so the aggregate can be
/// reduced in a fixed order regardless of which worker produced it.
struct ImageOutcome {
  uint64_t Queries = 0;
  bool Counted = false; ///< successful and not already misclassified
};

/// One exact memo per training image (core/Sketch.h). Every scorer of one
/// synthesis shares them, so each (training image, pixel, corner) query is
/// forwarded once however many candidates and islands ask it.
using TrainingMemos = std::deque<SketchMemo>;

TrainingMemos trainingMemos(const Dataset &TrainSet) {
  TrainingMemos Memos;
  for (const Image &X : TrainSet.Images)
    Memos.emplace_back(X);
  return Memos;
}

/// Scores candidate programs on a classifier: over a pool of workers when
/// it has two or more and the classifier can be cloned (worker slot 0 on
/// the classifier itself, the others on clones), serially otherwise. An MH
/// chain scores MaxIter+1 candidates, so the pool and the clones are built
/// once per chain, not once per candidate.
class Scorer {
public:
  Scorer(Classifier &N, size_t Threads, TrainingMemos &Memos)
      : N(N), Memos(Memos),
        Clones(workerClones(N, std::min(Threads, Memos.size()))) {
    if (!Clones.empty())
      Pool = std::make_unique<ThreadPool>(Clones.size() + 1);
  }

  /// Fills one outcome slot per training image, then reduces them in index
  /// order (the average is a floating-point sum, so reduction order is
  /// part of the contract).
  ProgramEval evaluate(const Program &P, const Dataset &TrainSet,
                       uint64_t PerImageCap) {
    assert(TrainSet.size() > 0 && "empty training set");
    assert(TrainSet.size() == Memos.size() && "one memo per training image");
    telemetry::ProfileScope Span("synth.score");
    std::vector<ImageOutcome> Out(TrainSet.size());
    const Sketch Sk(P);
    auto RunOne = [&](Classifier &NN, size_t I) {
      const SketchResult R = Sk.run(NN, TrainSet.Images[I],
                                    TrainSet.Labels[I], PerImageCap,
                                    &Memos[I]);
      Out[I].Queries = R.Queries;
      Out[I].Counted = R.Success && !R.AlreadyMisclassified;
    };
    if (Pool)
      Pool->forEach(TrainSet.size(), [&](size_t Slot, size_t I) {
        RunOne(Slot == 0 ? N : *Clones[Slot - 1], I);
      });
    else
      for (size_t I = 0; I != TrainSet.size(); ++I)
        RunOne(N, I);

    ProgramEval Eval;
    double QuerySum = 0.0;
    for (const ImageOutcome &O : Out) {
      Eval.TotalQueries += O.Queries;
      ++Eval.Attacks;
      if (!O.Counted)
        continue; // the paper averages over successful attacks only
      ++Eval.Successes;
      QuerySum += static_cast<double>(O.Queries);
    }
    if (Eval.Successes > 0)
      Eval.AvgQueries = QuerySum / static_cast<double>(Eval.Successes);
    return Eval;
  }

private:
  Classifier &N;
  TrainingMemos &Memos;
  std::vector<std::unique_ptr<Classifier>> Clones;
  std::unique_ptr<ThreadPool> Pool; ///< null: score serially on N
};

/// Stream-id tag for island Rng derivation: with N > 1 islands, island i
/// of a synthesis seeded S draws from SplitMix64 stream
/// (S, IslandStreamTag + i), so the streams are decorrelated from each
/// other and from every other derived stream (serve shard seeds, dataset
/// seeds) without any shared draw order.
constexpr uint64_t IslandStreamTag = 0x49534c44; // "ISLD"

/// One MH chain ("island"). Its state is island-private (Rng, chain
/// state), and a round borrows the scorer of whichever island-pool slot
/// runs it, so rounds can run on any thread — or all on one — with
/// bit-identical results.
struct IslandState {
  size_t Index = 0;
  Rng R{1};
  Program P;               ///< current chain state
  ProgramEval Eval;
  double Score = 0.0;
  Program Best;            ///< best-seen elite (incl. adopted migrants)
  ProgramEval BestEval;
  double BestScore = 0.0;
  uint64_t Cumulative = 0; ///< queries posed by this island
};

/// Runs \p Iters MH iterations on island \p S.
void runIslandRound(IslandState &S, Scorer &Sc, const MutationContext &Ctx,
                    const SynthesisConfig &Config, size_t StartIter,
                    size_t Iters, const Dataset &TrainSet,
                    telemetry::Counter &IterCounter,
                    telemetry::Counter &AcceptCounter,
                    telemetry::Counter &SynthQueries) {
  telemetry::ProfileScope Span("synth.island");
  for (size_t K = 0; K != Iters; ++K) {
    const size_t Iter = StartIter + K;
    MutationKind Kind = MutationKind::Root;
    Program Candidate;
    {
      telemetry::ProfileScope ProposeSpan("synth.propose");
      Candidate = mutateProgram(S.P, Ctx, S.R, &Kind);
    }
    const ProgramEval CandEval =
        Sc.evaluate(Candidate, TrainSet, Config.PerImageQueryCap);
    const double CandScore = CandEval.score(Config.Beta);
    S.Cumulative += CandEval.TotalQueries;
    // MH acceptance: u < S(P')/S(P). A zero-score incumbent accepts any
    // scoring candidate.
    bool Accept;
    if (S.Score <= 0.0)
      Accept = CandScore > 0.0;
    else
      Accept = S.R.uniform() < CandScore / S.Score;
    if (Accept) {
      S.P = Candidate;
      S.Eval = CandEval;
      S.Score = CandScore;
    }
    if (CandScore > S.BestScore) {
      S.Best = Candidate;
      S.BestEval = CandEval;
      S.BestScore = CandScore;
    }
    IterCounter.inc();
    if (Accept)
      AcceptCounter.inc();
    SynthQueries.inc(CandEval.TotalQueries);
    if (telemetry::traceEnabled())
      telemetry::traceEvent("synth_iter",
                            {{"island", S.Index},
                             {"iter", Iter},
                             {"proposal", mutationKindName(Kind)},
                             {"accepted", Accept},
                             {"cand_score", CandScore},
                             {"cand_avg_queries", CandEval.AvgQueries},
                             {"cand_successes", CandEval.Successes},
                             {"cur_avg_queries", S.Eval.AvgQueries},
                             {"cum_queries", S.Cumulative}});
  }
}

} // namespace

ProgramEval oppsla::evaluateProgram(const Program &P, Classifier &N,
                                    const Dataset &TrainSet,
                                    uint64_t PerImageCap, size_t Threads) {
  TrainingMemos Memos = trainingMemos(TrainSet);
  return Scorer(N, Threads, Memos).evaluate(P, TrainSet, PerImageCap);
}

Program oppsla::synthesizeProgram(Classifier &N, const Dataset &TrainSet,
                                  const SynthesisConfig &Config,
                                  std::vector<SynthesisStep> *Trace,
                                  std::vector<IslandElite> *Elites) {
  const size_t NumIslands = std::max<size_t>(1, Config.Islands);
  // A lone island never exchanges, so its rounds are single iterations and
  // its trace keeps one step per iteration.
  const size_t Interval =
      NumIslands == 1 ? 1 : std::max<size_t>(1, Config.ExchangeInterval);
  MutationContext Ctx;
  Ctx.ImageSide =
      TrainSet.size() > 0 ? TrainSet.Images.front().height() : 32;

  static telemetry::Counter &IterCounter =
      telemetry::counter("synth.iterations");
  static telemetry::Counter &AcceptCounter =
      telemetry::counter("synth.accepts");
  static telemetry::Counter &SynthQueries =
      telemetry::counter("synth.queries");
  static telemetry::Counter &IslandCounter =
      telemetry::counter("synth.islands");
  static telemetry::Counter &ExchangeCounter =
      telemetry::counter("synth.exchanges");
  IslandCounter.inc(NumIslands);

  std::vector<IslandState> Islands(NumIslands);
  for (size_t I = 0; I != NumIslands; ++I) {
    IslandState &S = Islands[I];
    S.Index = I;
    // A lone island draws from Rng(Seed) itself, the paper's single chain.
    // N > 1 keeps derived streams for every island: moving island 0 onto
    // Rng(Seed) would change their programs under unchanged store keys.
    S.R = NumIslands == 1
              ? Rng(Config.Seed)
              : Rng(Rng::deriveRunSeed(Config.Seed, IslandStreamTag + I));
  }

  // Up to min(Threads, N) islands run at once, one per island-pool slot.
  // Slot 0 scores on the caller's classifier, the others on clones; a
  // classifier that cannot be cloned runs every island serially on N —
  // same chains, same result, no parallelism. Each slot scores on
  // Threads / N workers: a lone island scores each candidate in parallel,
  // N > 1 islands score serially until Threads >= 2N. All slots share
  // one set of training memos.
  TrainingMemos Memos = trainingMemos(TrainSet);
  const std::vector<std::unique_ptr<Classifier>> Clones =
      workerClones(N, std::min(Config.Threads, NumIslands));
  std::vector<Scorer> Scorers;
  Scorers.reserve(Clones.size() + 1);
  Scorers.emplace_back(N, Config.Threads / NumIslands, Memos);
  for (const std::unique_ptr<Classifier> &C : Clones)
    Scorers.emplace_back(*C, Config.Threads / NumIslands, Memos);
  std::unique_ptr<ThreadPool> Pool;
  if (!Clones.empty())
    Pool = std::make_unique<ThreadPool>(Scorers.size());

  // Runs Fn over every island, on the pool when there is one.
  auto RunAll = [&](const std::function<void(IslandState &, Scorer &)> &Fn) {
    if (!Pool) {
      for (IslandState &S : Islands)
        Fn(S, Scorers.front());
      return;
    }
    Pool->forEach(NumIslands, [&](size_t Slot, size_t I) {
      Fn(Islands[I], Scorers[Slot]);
    });
  };

  // Round 0: every island draws and scores its own initial program.
  RunAll([&](IslandState &S, Scorer &Sc) {
    telemetry::ProfileScope Span("synth.island");
    S.P = randomProgram(Ctx, S.R);
    S.Eval = Sc.evaluate(S.P, TrainSet, Config.PerImageQueryCap);
    S.Score = S.Eval.score(Config.Beta);
    S.Cumulative = S.Eval.TotalQueries;
    S.Best = S.P;
    S.BestEval = S.Eval;
    S.BestScore = S.Score;
    SynthQueries.inc(S.Eval.TotalQueries);
  });

  // First-wins argmax in island-index order: ties go to the lower index,
  // so "the global best" is itself deterministic.
  auto GlobalBest = [&]() -> const IslandState & {
    const IslandState *B = &Islands.front();
    for (const IslandState &S : Islands)
      if (S.BestScore > B->BestScore)
        B = &S;
    return *B;
  };
  auto TotalQueries = [&]() {
    uint64_t Sum = 0;
    for (const IslandState &S : Islands)
      Sum += S.Cumulative;
    return Sum;
  };

  if (Trace)
    Trace->push_back(SynthesisStep{0, true, GlobalBest().Best,
                                   GlobalBest().BestEval.AvgQueries,
                                   TotalQueries()});
  if (telemetry::traceEnabled())
    telemetry::traceEvent("synth_begin",
                          {{"max_iter", Config.MaxIter},
                           {"beta", Config.Beta},
                           {"train_images", TrainSet.size()},
                           {"islands", NumIslands},
                           {"exchange_interval", Interval},
                           {"init_avg_queries", GlobalBest().BestEval.AvgQueries},
                           {"init_queries", TotalQueries()}});
  logDebug() << "synthesis init: islands=" << NumIslands
             << " interval=" << Interval
             << " bestAvgQ=" << GlobalBest().BestEval.AvgQueries;

  telemetry::progressBegin("synth", Config.MaxIter);
  size_t Done = 0;
  while (Done < Config.MaxIter) {
    const size_t Iters = std::min(Interval, Config.MaxIter - Done);
    const double PrevBest = GlobalBest().BestScore;
    RunAll([&](IslandState &S, Scorer &Sc) {
      runIslandRound(S, Sc, Ctx, Config, Done + 1, Iters, TrainSet,
                     IterCounter, AcceptCounter, SynthQueries);
    });
    Done += Iters;

    // Ring migration, in island-index order from a pre-round snapshot:
    // island i receives island (i-1)'s elite and adopts it as its chain
    // state iff it strictly beats the current score. No Rng is consumed,
    // so exchanges never perturb the chains' random streams.
    if (Done < Config.MaxIter && NumIslands > 1) {
      struct EliteSnap {
        Program P;
        ProgramEval Eval;
        double Score;
      };
      std::vector<EliteSnap> Snap;
      Snap.reserve(NumIslands);
      for (const IslandState &S : Islands)
        Snap.push_back(EliteSnap{S.Best, S.BestEval, S.BestScore});
      for (size_t I = 0; I != NumIslands; ++I) {
        const EliteSnap &In = Snap[(I + NumIslands - 1) % NumIslands];
        IslandState &S = Islands[I];
        if (In.Score > S.Score) {
          S.P = In.P;
          S.Eval = In.Eval;
          S.Score = In.Score;
        }
        if (In.Score > S.BestScore) {
          S.Best = In.P;
          S.BestEval = In.Eval;
          S.BestScore = In.Score;
        }
      }
      ExchangeCounter.inc();
      if (telemetry::traceEnabled())
        telemetry::traceEvent("synth_exchange",
                              {{"iter", Done},
                               {"islands", NumIslands},
                               {"best_score", GlobalBest().BestScore}});
    }

    const IslandState &B = GlobalBest();
    if (Trace)
      Trace->push_back(SynthesisStep{Done, B.BestScore > PrevBest, B.Best,
                                     B.BestEval.AvgQueries, TotalQueries()});
    telemetry::progressSet(
        Done,
        B.BestEval.Attacks ? static_cast<double>(B.BestEval.Successes) /
                                 static_cast<double>(B.BestEval.Attacks)
                           : 0.0,
        B.BestEval.AvgQueries);
  }
  telemetry::progressFinish();

  if (Elites) {
    Elites->clear();
    for (const IslandState &S : Islands)
      Elites->push_back(IslandElite{S.Best, S.BestEval, S.BestScore});
  }

  const IslandState &B = GlobalBest();
  if (telemetry::traceEnabled())
    telemetry::traceEvent("synth_end",
                          {{"avg_queries", B.BestEval.AvgQueries},
                           {"successes", B.BestEval.Successes},
                           {"attacks", B.BestEval.Attacks},
                           {"islands", NumIslands},
                           {"cum_queries", TotalQueries()}});
  logInfo() << "synthesis done: islands=" << NumIslands
            << " bestAvgQ=" << B.BestEval.AvgQueries << " over "
            << B.BestEval.Successes << "/" << B.BestEval.Attacks
            << " train images, total synthesis queries=" << TotalQueries();
  if (B.BestScore <= 0.0) {
    // No candidate ever succeeded on the training set (e.g. a robust
    // class under a tight cap): the scores carry no signal, so prefer the
    // deterministic fixed prioritization over an arbitrary random program.
    logWarn() << "synthesis saw no successful training attack; returning "
                 "the fixed-prioritization program";
    return allFalseProgram();
  }
  return B.Best;
}

Program oppsla::randomSearchProgram(Classifier &N, const Dataset &TrainSet,
                                    size_t NumSamples, uint64_t PerImageCap,
                                    uint64_t Seed, size_t Threads) {
  assert(NumSamples > 0 && "need at least one sample");
  Rng R(Seed);
  MutationContext Ctx;
  Ctx.ImageSide =
      TrainSet.size() > 0 ? TrainSet.Images.front().height() : 32;

  TrainingMemos Memos = trainingMemos(TrainSet);
  Scorer Sc(N, Threads, Memos);

  Program Best;
  double BestAvg = 0.0;
  bool HaveBest = false;
  for (size_t I = 0; I != NumSamples; ++I) {
    const Program P = randomProgram(Ctx, R);
    const ProgramEval Eval = Sc.evaluate(P, TrainSet, PerImageCap);
    if (Eval.Successes == 0)
      continue;
    if (!HaveBest || Eval.AvgQueries < BestAvg) {
      Best = P;
      BestAvg = Eval.AvgQueries;
      HaveBest = true;
    }
  }
  if (!HaveBest) {
    logWarn() << "random search found no succeeding program; returning "
                 "the fixed-prioritization program";
    return allFalseProgram();
  }
  return Best;
}
