//===- perfbench/src/AttackSweep.cpp - The attack_sweep workload ----------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The Figure 3 evaluation as `oppsla eval` ships it: OPPSLA's per-class
// programs, Sparse-RS and SuOPA each sweep a seeded held-out test set of
// every victim through a default-config QueryEngine (one per victim and
// attack, as one `oppsla eval` invocation builds it).
//
// A round draws a fresh test set per victim from (--seed, round); rounds
// repeat until --seconds have passed. The round's (victim, attack) groups
// run concurrently on `sweep_threads` threads, like that many `oppsla
// eval` processes side by side. On the shared development host a single
// sweep thread ran in one of two speeds 35% apart for minutes at a time,
// so single-threaded runs split into two groups; concurrent groups share
// the host's vCPUs and average that out. Within a group each image goes
// through its own runAttackOverSet / runProgramsOverSet call on the
// group's engine: with one sweep thread per group that is exactly the
// whole-set sweep (the engine's cache carries over between calls), and it
// lets the benchmark time and trace every image from outside. The op is
// one test-set sweep (one victim, one attack).
//
// Quality metrics (avg_queries.*, success_at100_pct.oppsla) come from
// round 0 only, so they repeat exactly for one seed.
//
//===----------------------------------------------------------------------===//

#include "Probes.h"
#include "Spans.h"
#include "Workloads.h"

#include "attacks/SparseRS.h"
#include "attacks/SuOPA.h"
#include "engine/QueryEngine.h"
#include "eval/Evaluation.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <array>
#include <cstring>
#include <iostream>

using namespace oppsla;

namespace perfbench {

namespace {

constexpr size_t NumAttacks = 3;
/// The engine every sweep runs through: the defaults `oppsla eval` uses.
const QueryEngineConfig EngineConfig;
const std::array<const char *, NumAttacks> AttackNames = {"oppsla",
                                                          "sparse_rs", "suopa"};
const std::array<const char *, NumAttacks> EvalSpanNames = {
    "eval.oppsla", "eval.sparse_rs", "eval.suopa"};

struct World {
  std::vector<Victim> Victims;
  std::vector<std::vector<Program>> Programs; ///< per victim, per class
  double StoreLoadSeconds = 0.0;
  uint64_t StoreMisses = 0;
};

/// Loads every victim and its class programs, one victim per task on
/// \p Pool.
World setUp(const Options &O, const BenchScale &Scale, ThreadPool &Pool) {
  World W;
  const std::vector<std::string> Names = victimNames(O, "victims");
  const SynthesisRunOptions StoreOpts = storedProgramOptions(O);
  const uint64_t Misses0 = telemetry::counter("synth.store.misses").value();
  W.Victims.resize(Names.size());
  W.Programs.resize(Names.size());
  std::vector<double> LoadSeconds(Names.size(), 0.0);
  Pool.forEach(Names.size(), [&](size_t I) {
    Victim &V = W.Victims[I];
    V = victimByName(Names[I], Scale);
    V.Net = makeScaledVictim(V.Task, V.Architecture, Scale, VictimSeed);
    for (size_t Label = 0; Label != Scale.NumClasses; ++Label) {
      const auto T0 = Clock::now();
      W.Programs[I].push_back(synthesizeClassProgram(
          *V.Net, V.Stem, V.Task, Scale, Label, VictimSeed, StoreOpts));
      LoadSeconds[I] += secondsSince(T0);
    }
  });
  for (double S : LoadSeconds)
    W.StoreLoadSeconds += S;
  W.StoreMisses = telemetry::counter("synth.store.misses").value() - Misses0;
  return W;
}

/// One pass over the rounds: its per-image logs (in sweep order) and wall
/// clock.
struct Pass {
  std::vector<AttackRunLog> Logs;
  std::vector<uint8_t> LogAttack; ///< attack index of each log
  size_t Groups = 0;   ///< (round, victim, attack) groups completed
  size_t Round0Logs = 0;
  double Seconds = 0.0;
  CpuTimes Cpu;
  uint64_t BeginNs = 0, EndNs = 0;
};

bool sameLogs(const AttackRunLog &A, const AttackRunLog &B) {
  return A.Label == B.Label && A.Discarded == B.Discarded &&
         A.Success == B.Success && A.Queries == B.Queries;
}

/// Sweeps rounds of test sets. A round's (victim, attack) groups run
/// concurrently on the pool, each on its own copy of the victim (a network
/// keeps forward scratch space) through its own engine; their logs are
/// kept in group order, so a pass's outcomes do not depend on the threads.
class Sweeper {
public:
  Sweeper(const Options &O, const BenchScale &Scale, const World &W,
          ThreadPool &Pool)
      : O(O), Scale(Scale), W(W), Pool(Pool) {
    for (const Victim &V : W.Victims)
      for (size_t A = 0; A != NumAttacks; ++A) {
        Nets.push_back(V.Net->clone());
        Counts.push_back(std::make_shared<EngineCounts>());
      }
  }

  size_t groups() const { return Nets.size(); }

  /// Sweeps rounds until \p Seconds have passed (or exactly \p MaxRounds
  /// rounds when non-zero). \p Raw queries the bare victim instead of the
  /// engine (the engine-invariance reference).
  Pass run(double Seconds, size_t MaxRounds, bool Traced, bool Raw = false) {
    Pass P;
    setRecording(Traced);
    P.BeginNs = nowNs();
    const auto T0 = Clock::now();
    const CpuTimes Cpu0 = processCpu();
    const size_t NumVictims = W.Victims.size();
    for (size_t Round = 0;; ++Round) {
      std::vector<Dataset> Tests(NumVictims);
      Pool.forEach(NumVictims, [&](size_t V) {
        setSpanContext(0, -1, static_cast<int>(V));
        ScopedSpan S("data.test_set");
        Tests[V] = makeTestSet(W.Victims[V].Task, Scale,
                               deriveSeed(O.Seed, Round * 64 + V));
      });
      std::vector<std::vector<AttackRunLog>> Logs(groups());
      // The ImageNet-like victims come last and cost the most: start them
      // first so that no long group is left to run alone.
      Pool.forEach(groups(), [&](size_t K) {
        const size_t G = groups() - 1 - K;
        Logs[G] = sweepGroup(Round, G, Tests[G / NumAttacks], Traced, Raw);
      });
      for (size_t G = 0; G != groups(); ++G)
        for (const AttackRunLog &L : Logs[G]) {
          P.Logs.push_back(L);
          P.LogAttack.push_back(static_cast<uint8_t>(G % NumAttacks));
        }
      P.Groups += groups();
      if (Round == 0)
        P.Round0Logs = P.Logs.size();
      if (MaxRounds ? Round + 1 == MaxRounds
                    : Round > 0 && secondsSince(T0) >= Seconds)
        break;
    }
    P.Seconds = secondsSince(T0);
    P.Cpu = processCpu() - Cpu0;
    P.EndNs = nowNs();
    setRecording(false);
    return P;
  }

  /// Probe counts per group (victim * NumAttacks + attack).
  std::vector<std::shared_ptr<EngineCounts>> Counts;

private:
  std::vector<AttackRunLog> sweepGroup(size_t Round, size_t G,
                                       const Dataset &Test, bool Traced,
                                       bool Raw) {
    const size_t V = G / NumAttacks, A = G % NumAttacks;
    Classifier &Net = *Nets[G];
    // One engine per (victim, attack, test set), as `oppsla eval` builds
    // it; in the traced pass the probes sit on both sides of it.
    NNProbe NP(Net);
    Classifier &Below = Traced ? static_cast<Classifier &>(NP) : Net;
    QueryEngine Engine(Below, EngineConfig);
    EngineProbe EP(Engine, Counts[G]);
    Classifier &Front = Raw      ? Net
                        : Traced ? static_cast<Classifier &>(EP)
                                 : Engine;
    SparseRS SparseAttack;
    SuOPA SuAttack;
    std::vector<AttackRunLog> Out;
    for (size_t I = 0; I != Test.size(); ++I) {
      Dataset One;
      One.NumClasses = Test.NumClasses;
      One.Images.push_back(Test.Images[I]);
      One.Labels.push_back(Test.Labels[I]);
      setSpanContext(((Round * groups() + G) * Test.size()) + I + 1,
                     static_cast<int>(A), static_cast<int>(V));
      std::vector<AttackRunLog> Logs;
      {
        ScopedSpan S(EvalSpanNames[A]);
        if (A == 0)
          Logs = runProgramsOverSet(W.Programs[V], Front, One, Budget, 1);
        else if (A == 1)
          Logs = runAttackOverSet(SparseAttack, Front, One, Budget, 1);
        else
          Logs = runAttackOverSet(SuAttack, Front, One, Budget, 1);
      }
      if (Traced)
        Counts[G]->endImage();
      Out.push_back(Logs.at(0));
    }
    return Out;
  }

  const Options &O;
  const BenchScale &Scale;
  const World &W;
  std::vector<std::unique_ptr<Classifier>> Nets; ///< per group
  ThreadPool &Pool;
};

void reportQuality(Sheet &Out, const Pass &P) {
  std::array<std::vector<AttackRunLog>, NumAttacks> ByAttack;
  for (size_t I = 0; I != P.Round0Logs; ++I)
    ByAttack[P.LogAttack[I]].push_back(P.Logs[I]);
  for (size_t A = 0; A != NumAttacks; ++A)
    Out.metric(std::string("avg_queries.") + AttackNames[A],
               toQuerySample(ByAttack[A]).avgQueries(), "count");
  Out.metric("success_at100_pct.oppsla",
             100.0 * successRateAt(ByAttack[0], 100), "%");
}

void reportLayers(Sheet &Out, const std::vector<Span> &Spans,
                  const Sweeper &S, const World &W) {
  std::array<double, NumAttacks> EvalS{}, AttackSelfS{}, EngineSelfS{};
  std::array<uint64_t, NumAttacks> NNImages{}, NNCalls{};
  std::vector<double> VictimNNs(W.Victims.size(), 0.0);
  std::vector<uint64_t> VictimImages(W.Victims.size(), 0);
  for (const Span &Sp : Spans) {
    const int A = Sp.Attack;
    if (A < 0 || A >= static_cast<int>(NumAttacks))
      continue;
    if (std::strncmp(Sp.Name, "eval.", 5) == 0) {
      EvalS[A] += Sp.seconds();
      AttackSelfS[A] += Sp.selfSeconds();
    } else if (std::strncmp(Sp.Name, "engine", 6) == 0) {
      EngineSelfS[A] += Sp.selfSeconds();
    } else if (std::strcmp(Sp.Name, "nn") == 0) {
      NNImages[A] += Sp.Count;
      ++NNCalls[A];
      VictimNNs[Sp.Victim] += Sp.seconds();
      VictimImages[Sp.Victim] += Sp.Count;
    }
  }
  std::array<double, NumAttacks> Queries{}, Prefetched{}, PrefetchHits{};
  for (size_t G = 0; G != S.groups(); ++G) {
    const EngineCounts &C = *S.Counts[G];
    Queries[G % NumAttacks] += static_cast<double>(C.Queries.load());
    Prefetched[G % NumAttacks] += static_cast<double>(C.Prefetched.load());
    PrefetchHits[G % NumAttacks] += static_cast<double>(C.PrefetchHits.load());
  }
  for (size_t A = 0; A != NumAttacks; ++A) {
    const std::string N = AttackNames[A];
    Out.metric("eval.sweep_s." + N, EvalS[A], "s");
    Out.metric("attacks.self_s." + N, AttackSelfS[A], "s");
    Out.metric("attacks.queries." + N, Queries[A], "count");
    Out.metric("engine.self_s." + N, EngineSelfS[A], "s");
    Out.metric("engine.prefetch_images." + N, Prefetched[A], "count");
    Out.metric("engine.prefetch_useful_pct." + N,
               Prefetched[A] > 0 ? 100.0 * PrefetchHits[A] / Prefetched[A]
                                 : 0.0,
               "%");
    Out.metric("engine.forwards_per_query." + N,
               Queries[A] > 0 ? NNImages[A] / Queries[A] : 0.0, "ratio");
    Out.metric("engine.batch_mean." + N,
               NNCalls[A] ? static_cast<double>(NNImages[A]) / NNCalls[A] : 0.0,
               "images");
    Out.metric("nn.images." + N, static_cast<double>(NNImages[A]), "count");
  }
  for (size_t V = 0; V != W.Victims.size(); ++V)
    Out.metric("nn.us_per_image." + W.Victims[V].Name,
               VictimImages[V] ? 1e6 * VictimNNs[V] / VictimImages[V] : 0.0,
               "us");
  Out.metric("store.load_s", W.StoreLoadSeconds, "s");
}

} // namespace

int runAttackSweep(const Options &O, Sheet &Out) {
  const BenchScale Scale = BenchScale::preset(O.knobString("scale"));
  const size_t Threads = static_cast<size_t>(O.knob("sweep_threads"));
  const std::string Host =
      hostRecord("sweep=" + std::to_string(Threads) +
                 " engine=" + std::to_string(EngineConfig.Threads));

  ThreadPool Pool(Threads);
  World W = setUp(O, Scale, Pool);
  SetupTimes Setup;
  if (!O.Trace)
    Setup.burst([&] { W = setUp(O, Scale, Pool); });
  if (W.StoreMisses)
    Out.fail("program store missed " + std::to_string(W.StoreMisses) +
             " class programs; run `perfbench warm` first");

  Sweeper S(O, Scale, W, Pool);
  if (O.Trace) {
    const Pass Untraced = S.run(O.Seconds / 2, 0, false);
    resetSpans();
    const CounterSnapshot Before;
    const Pass Traced = S.run(0, Untraced.Groups / S.groups(), true);
    Out.attempted(Traced.Logs.size());
    for (size_t I = 0; I != Traced.Logs.size(); ++I)
      if (I >= Untraced.Logs.size() ||
          !sameLogs(Traced.Logs[I], Untraced.Logs[I]))
        Out.fail("traced outcome of image " + std::to_string(I) +
                 " differs from the untraced pass");
    const std::vector<Span> Spans = collect();
    reportLayers(Out, Spans, S, W);
    Out.notExercised(synthLayers(), O.Workload);
    Out.notExercised(serveLayers(), O.Workload);
    reportTracedPass(Out, O, Spans, Traced.BeginNs, Traced.EndNs,
                     100.0 * (Traced.Seconds - Untraced.Seconds) /
                         Untraced.Seconds,
                     Before, Host);
    return 0;
  }

  const Pass P = S.run(O.Seconds, 0, false);
  const double Rss = peakRssMb();
  Out.attempted(P.Logs.size());
  Setup.burst([&] { W = setUp(O, Scale, Pool); });

  // Engine invariance: round 0 through the bare victim gives the same
  // outcome bytes as through the engine.
  const Pass Ref = S.run(0, 1, false, true);
  for (size_t I = 0; I != Ref.Logs.size(); ++I)
    if (!sameLogs(Ref.Logs[I], P.Logs[I]))
      Out.fail("image " + std::to_string(I) +
               ": engine outcome differs from the bare victim's");

  reportEndToEnd(Out, static_cast<double>(P.Groups), P.Seconds, P.Cpu, Setup,
                 Rss);
  double Queries = 0.0;
  for (const AttackRunLog &L : P.Logs)
    Queries += static_cast<double>(L.Queries);
  Out.metric("images_per_s", P.Logs.size() / P.Seconds, "1/s");
  Out.metric("queries_per_s", Queries / P.Seconds, "1/s");
  reportQuality(Out, P);
  return 0;
}

} // namespace perfbench
