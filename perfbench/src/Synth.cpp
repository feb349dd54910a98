//===- perfbench/src/Synth.cpp - The synth workload -----------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Cold MH island synthesis of every class program for the configured
// victims, with the program store bypassed: each round synthesizes every
// (victim, class) program from a synthesis seed derived from (--seed,
// round) through synthesizeClassProgram, the call `oppsla synthesize`,
// `oppsla eval` and the serve runner share. The op is one class program.
//
// synthesizeClassProgram builds its own engine around the concrete victim,
// so the traced pass spans each call from outside and reads the synthesis
// and engine telemetry counters for the layers inside it. The shared-cache
// engine counters vary run to run on the island path; they are reported
// as measured values and never compared exactly.
//
// synth_train_avg_queries, the training-set average queries of round 0's
// programs, is recomputed after timing with evaluateProgram and repeats
// exactly for one seed.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "core/Parse.h"
#include "engine/QueryEngine.h"
#include "support/ThreadPool.h"

#include <iostream>

using namespace oppsla;

namespace perfbench {

namespace {

/// Four islands exchanging elites every two iterations. Smoke synthesis
/// runs four MH iterations, so the CLI's default interval of 25 would never
/// exchange; this shape runs the island and exchange paths that the synth.*
/// layer metrics count.
constexpr size_t Islands = 4;
constexpr size_t ExchangeInterval = 2;

struct Pass {
  std::vector<std::string> Programs; ///< program text, in synthesis order
  double Seconds = 0.0;
  CpuTimes Cpu;
  uint64_t BeginNs = 0, EndNs = 0;
};

uint64_t roundSeed(const Options &O, size_t Round) {
  // Synthesis seeds stay small: classSynthesisConfig multiplies them.
  return deriveSeed(O.Seed, Round) % 1000003 + 2;
}

SynthesisRunOptions synthOptions(size_t Threads) {
  SynthesisRunOptions Opts;
  Opts.Threads = Threads;
  Opts.Islands = Islands;
  Opts.ExchangeInterval = ExchangeInterval;
  Opts.UseStore = false;
  return Opts;
}

/// Synthesizes rounds until \p Seconds have passed, or exactly \p MaxOps
/// programs when non-zero.
Pass run(const Options &O, const BenchScale &Scale,
         std::vector<Victim> &Victims, double Seconds, size_t MaxOps,
         size_t Threads, bool Traced) {
  Pass P;
  const SynthesisRunOptions Opts = synthOptions(Threads);
  setRecording(Traced);
  P.BeginNs = nowNs();
  const auto T0 = Clock::now();
  const CpuTimes Cpu0 = processCpu();
  uint64_t OpId = 0;
  for (size_t Round = 0;; ++Round) {
    for (size_t V = 0; V != Victims.size(); ++V) {
      Victim &Vic = Victims[V];
      for (size_t Label = 0; Label != Scale.NumClasses; ++Label) {
        setSpanContext(++OpId, -1, static_cast<int>(V));
        Program Prog;
        {
          ScopedSpan S("eval.synthesize");
          Prog = synthesizeClassProgram(*Vic.Net, Vic.Stem, Vic.Task, Scale,
                                        Label, roundSeed(O, Round), Opts);
        }
        P.Programs.push_back(Prog.str());
        const bool Done = MaxOps ? P.Programs.size() == MaxOps
                                 : Round > 0 && secondsSince(T0) >= Seconds;
        if (Done) {
          P.Seconds = secondsSince(T0);
          P.Cpu = processCpu() - Cpu0;
          P.EndNs = nowNs();
          setRecording(false);
          return P;
        }
      }
    }
  }
}

/// Mean over round 0's programs of their training-set average queries.
double trainAvgQueries(const Options &O, const BenchScale &Scale,
                       std::vector<Victim> &Victims, const Pass &P,
                       Sheet &Out) {
  double Sum = 0.0;
  size_t K = 0;
  for (Victim &Vic : Victims) {
    QueryEngine Engine(*Vic.Net);
    for (size_t Label = 0; Label != Scale.NumClasses; ++Label, ++K) {
      Program Prog;
      const ParseResult R = parseProgram(P.Programs[K], Prog);
      if (!R.Ok || Prog.str() != P.Programs[K]) {
        Out.fail("program " + std::to_string(K) + " does not round-trip: " +
                 P.Programs[K]);
        continue;
      }
      const Dataset Train =
          makeSynthesisSet(Vic.Task, Label, Scale, roundSeed(O, 0));
      Sum += evaluateProgram(Prog, Engine, Train, Scale.SynthQueryCap)
                 .AvgQueries;
    }
  }
  return K ? Sum / static_cast<double>(K) : 0.0;
}

} // namespace

int runSynth(const Options &O, Sheet &Out) {
  const BenchScale Scale = BenchScale::preset(O.knobString("scale"));
  const size_t Threads = static_cast<size_t>(O.knob("threads"));
  const std::string Host = hostRecord("synth=" + std::to_string(Threads) +
                                      " islands=" + std::to_string(Islands));

  // Set-up loads the victims concurrently, one per task.
  const std::vector<std::string> Names = victimNames(O, "victims");
  ThreadPool Pool(Threads);
  std::vector<Victim> Victims;
  auto SetUp = [&] {
    Victims.clear();
    Victims.resize(Names.size());
    Pool.forEach(Names.size(), [&](size_t I) {
      Victims[I] = victimByName(Names[I], Scale);
      Victims[I].Net = makeScaledVictim(Victims[I].Task,
                                        Victims[I].Architecture, Scale,
                                        VictimSeed);
    });
  };
  SetUp();
  SetupTimes Setup;
  if (!O.Trace)
    Setup.burst(SetUp);
  const size_t PerRound = Victims.size() * Scale.NumClasses;

  if (O.Trace) {
    const Pass Untraced =
        run(O, Scale, Victims, O.Seconds / 2, 0, Threads, false);
    resetSpans();
    const CounterSnapshot Before;
    const Pass Traced = run(O, Scale, Victims, 0, Untraced.Programs.size(),
                            Threads, true);
    Out.attempted(Traced.Programs.size());
    for (size_t I = 0; I != Traced.Programs.size(); ++I)
      if (Traced.Programs[I] != Untraced.Programs[I])
        Out.fail("traced program " + std::to_string(I) +
                 " differs from the untraced pass");

    const double Iters = Before.since("synth.iterations");
    const double Accepts = Before.since("synth.accepts");
    const std::vector<Span> Spans = collect(); // one per class program
    double ClassSeconds = 0.0;
    for (const Span &Sp : Spans)
      ClassSeconds += Sp.seconds();
    Out.metric("synth.class_s",
               Spans.empty() ? 0.0 : ClassSeconds / Spans.size(), "s");
    Out.metric("synth.iterations", Iters, "count");
    Out.metric("synth.accepts", Accepts, "count");
    Out.metric("synth.accept_pct", Iters > 0 ? 100.0 * Accepts / Iters : 0.0,
               "%");
    Out.metric("synth.queries", Before.since("synth.queries"), "count");
    Out.metric("synth.exchanges", Before.since("synth.exchanges"), "count");
    Out.notExercised(attackSweepLayers(O), O.Workload);
    Out.notExercised(serveLayers(), O.Workload);
    reportTracedPass(Out, O, Spans, Traced.BeginNs, Traced.EndNs,
                     100.0 * (Traced.Seconds - Untraced.Seconds) /
                         Untraced.Seconds,
                     Before, Host);
    return 0;
  }

  const Pass P = run(O, Scale, Victims, O.Seconds, 0, Threads, false);
  const double Rss = peakRssMb();
  Out.attempted(P.Programs.size());
  Setup.burst(SetUp);

  // Island determinism: round 0 on one thread gives the same programs.
  const Pass Ref = run(O, Scale, Victims, 0, PerRound, 1, false);
  for (size_t I = 0; I != Ref.Programs.size(); ++I)
    if (Ref.Programs[I] != P.Programs[I])
      Out.fail("program " + std::to_string(I) +
               " differs between thread counts");

  reportEndToEnd(Out, static_cast<double>(P.Programs.size()), P.Seconds,
                 P.Cpu, Setup, Rss);
  Out.metric("programs_per_h", 3600.0 * P.Programs.size() / P.Seconds, "1/h");
  Out.metric("synth_train_avg_queries",
             trainAvgQueries(O, Scale, Victims, P, Out), "count");
  return 0;
}

} // namespace perfbench
