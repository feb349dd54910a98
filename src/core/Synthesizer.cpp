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
#include <atomic>
#include <cmath>
#include <functional>
#include <future>
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

/// Per-worker evaluation state reused across many evaluateProgram calls:
/// an MH chain scores MaxIter+1 candidates, so the pool and the classifier
/// clones are built once per chain, not once per candidate. An empty
/// Workers list (or a 1-element one) means serial evaluation.
struct EvalWorkers {
  std::unique_ptr<ThreadPool> Pool;
  std::vector<Classifier *> Classifiers; ///< [0] is the caller's own
  std::vector<std::unique_ptr<Classifier>> Owned;

  /// Builds workers for \p Threads threads; degrades to serial (empty)
  /// when the classifier is not cloneable or Threads < 2.
  static EvalWorkers make(Classifier &N, size_t Threads, size_t NumImages) {
    EvalWorkers W;
    const size_t Count = std::min(Threads, NumImages);
    if (Count < 2)
      return W;
    std::vector<std::unique_ptr<Classifier>> Owned;
    for (size_t T = 1; T != Count; ++T) {
      auto C = N.clone();
      if (!C)
        return W; // not cloneable: keep W empty, run serial
      Owned.push_back(std::move(C));
    }
    W.Owned = std::move(Owned);
    W.Classifiers.push_back(&N);
    for (auto &C : W.Owned)
      W.Classifiers.push_back(C.get());
    W.Pool = std::make_unique<ThreadPool>(Count);
    return W;
  }

  bool parallel() const { return Pool != nullptr; }
};

/// The shared core of serial and parallel evaluation: fills one outcome
/// slot per training image, then reduces them in index order (the average
/// is a floating-point sum, so reduction order is part of the contract).
ProgramEval evaluateProgramWith(const Program &P, Classifier &N,
                                const Dataset &TrainSet, uint64_t PerImageCap,
                                EvalWorkers *Workers) {
  assert(TrainSet.size() > 0 && "empty training set");
  telemetry::ProfileScope Span("synth.score");
  std::vector<ImageOutcome> Out(TrainSet.size());

  auto RunOne = [&](Sketch &Sk, Classifier &NN, size_t I) {
    const SketchResult R =
        Sk.run(NN, TrainSet.Images[I], TrainSet.Labels[I], PerImageCap);
    Out[I].Queries = R.Queries;
    Out[I].Counted = R.Success && !R.AlreadyMisclassified;
  };

  if (Workers && Workers->parallel()) {
    std::atomic<size_t> Next{0};
    std::vector<std::future<void>> Futures;
    Futures.reserve(Workers->Classifiers.size());
    // Adopt the submitting thread's job context (profile root + trace
    // id) on each pool worker — synthesis inside a served job should
    // attribute to that job.
    const char *ProfRoot = telemetry::ambientProfileRoot();
    const std::string TraceId = telemetry::traceContextId();
    for (Classifier *NT : Workers->Classifiers)
      Futures.push_back(Workers->Pool->submit([&, NT] {
        telemetry::ProfileTaskScope Task(ProfRoot);
        telemetry::TraceContextScope Trace(TraceId);
        Sketch Sk(P);
        for (size_t I = Next.fetch_add(1); I < TrainSet.size();
             I = Next.fetch_add(1))
          RunOne(Sk, *NT, I);
      }));
    for (auto &F : Futures)
      F.get();
  } else {
    Sketch Sk(P);
    for (size_t I = 0; I != TrainSet.size(); ++I)
      RunOne(Sk, N, I);
  }

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

/// Stream-id tag for island Rng derivation: with N > 1 islands, island i
/// of a synthesis seeded S draws from SplitMix64 stream
/// (S, IslandStreamTag + i), so the streams are decorrelated from each
/// other and from every other derived stream (serve shard seeds, dataset
/// seeds) without any shared draw order.
constexpr uint64_t IslandStreamTag = 0x49534c44; // "ISLD"

/// One MH chain ("island"). Everything an island touches is island-private
/// (Rng, classifier, scorers, chain state), so rounds can run on any
/// thread — or all on one — with bit-identical results.
struct IslandState {
  size_t Index = 0;
  Rng R{1};
  Classifier *Cls = nullptr;
  EvalWorkers Workers;     ///< candidate scorers over Cls and its clones
  Program P;               ///< current chain state
  ProgramEval Eval;
  double Score = 0.0;
  Program Best;            ///< best-seen elite (incl. adopted migrants)
  ProgramEval BestEval;
  double BestScore = 0.0;
  uint64_t Cumulative = 0; ///< queries posed by this island
};

/// Runs \p Iters MH iterations on island \p S.
void runIslandRound(IslandState &S, const MutationContext &Ctx,
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
    const ProgramEval CandEval = evaluateProgramWith(
        Candidate, *S.Cls, TrainSet, Config.PerImageQueryCap, &S.Workers);
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
  if (Threads < 2)
    return evaluateProgramWith(P, N, TrainSet, PerImageCap, nullptr);
  EvalWorkers Workers = EvalWorkers::make(N, Threads, TrainSet.size());
  return evaluateProgramWith(P, N, TrainSet, PerImageCap, &Workers);
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

  // Island 0 runs on the caller's classifier, the rest on clones. A
  // non-cloneable classifier degrades to all islands sharing N serially —
  // same chains, same result, no parallelism.
  std::vector<std::unique_ptr<Classifier>> Owned;
  bool Cloneable = true;
  for (size_t I = 1; I < NumIslands && Cloneable; ++I) {
    auto C = N.clone();
    if (!C)
      Cloneable = false;
    else
      Owned.push_back(std::move(C));
  }
  if (!Cloneable)
    Owned.clear();

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
    S.Cls = (I == 0 || !Cloneable) ? &N : Owned[I - 1].get();
    // Threads / N scorers per island: a lone island scores each candidate
    // in parallel, N > 1 islands score serially until Threads >= 2N.
    S.Workers = EvalWorkers::make(*S.Cls, Config.Threads / NumIslands,
                                  TrainSet.size());
  }

  const size_t PoolThreads =
      Cloneable ? std::min(Config.Threads, NumIslands) : 1;
  std::unique_ptr<ThreadPool> Pool;
  if (PoolThreads >= 2)
    Pool = std::make_unique<ThreadPool>(PoolThreads);

  // Runs Fn over every island, on the pool when available. Pool workers
  // adopt the submitting thread's job context so island spans and trace
  // events attribute to the surrounding job.
  auto RunAll = [&](const std::function<void(IslandState &)> &Fn) {
    if (!Pool) {
      for (IslandState &S : Islands)
        Fn(S);
      return;
    }
    const char *ProfRoot = telemetry::ambientProfileRoot();
    const std::string TraceId = telemetry::traceContextId();
    std::vector<std::future<void>> Futures;
    Futures.reserve(NumIslands);
    for (size_t I = 0; I != NumIslands; ++I)
      Futures.push_back(Pool->submit([&, I] {
        telemetry::ProfileTaskScope Task(ProfRoot);
        telemetry::TraceContextScope TraceScope(TraceId);
        Fn(Islands[I]);
      }));
    for (auto &F : Futures)
      F.get();
  };

  // Round 0: every island draws and scores its own initial program.
  RunAll([&](IslandState &S) {
    telemetry::ProfileScope Span("synth.island");
    S.P = randomProgram(Ctx, S.R);
    S.Eval = evaluateProgramWith(S.P, *S.Cls, TrainSet,
                                 Config.PerImageQueryCap, &S.Workers);
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
    RunAll([&](IslandState &S) {
      runIslandRound(S, Ctx, Config, Done + 1, Iters, TrainSet, IterCounter,
                     AcceptCounter, SynthQueries);
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

  EvalWorkers Workers = EvalWorkers::make(N, Threads, TrainSet.size());

  Program Best;
  double BestAvg = 0.0;
  bool HaveBest = false;
  for (size_t I = 0; I != NumSamples; ++I) {
    const Program P = randomProgram(Ctx, R);
    const ProgramEval Eval =
        evaluateProgramWith(P, N, TrainSet, PerImageCap, &Workers);
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
