//===- bench/fig4_synthesis_queries.cpp - Reproduces Figure 4 -----------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Figure 4 of the paper: how good do the intermediate (accepted) programs
// get as a function of the synthesis budget? OPPSLA synthesizes for one
// classifier (VGG) and one class; each accepted program is then evaluated
// on a held-out test set of that class, reporting the average number of
// attack queries (left plot: vs cumulative synthesis queries; right plot:
// vs iterations). The fixed-prioritization (all-False) program is the
// zero-synthesis-queries reference line. The paper's shape: a steep drop
// (~2.7x below the all-False program) within the first few iterations,
// then a long flat tail of marginal (<1%) improvements.
//
//===----------------------------------------------------------------------===//

#include "eval/Evaluation.h"
#include "eval/Experiments.h"
#include "support/ArgParse.h"
#include "support/BenchJson.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <iostream>

using namespace oppsla;

int main(int argc, char **argv) {
  // --trace-out / --metrics-out / --profile (see support/Metrics.h).
  const ArgParse Args(argc, argv);
  if (!telemetry::configureFromArgs(Args))
    return 1;
  const auto BenchStart = std::chrono::steady_clock::now();
  const BenchScale Scale = BenchScale::fromEnv();
  const size_t Threads = threadCountFromArgs(Args);
  std::cout << "== Figure 4: attack quality vs synthesis budget (scale: "
            << Scale.Name << ") ==\n\n";

  const TaskKind Task = TaskKind::CifarLike;
  const size_t Label = 0; // the paper uses the Airplane class
  auto Victim = makeScaledVictim(Task, Arch::MiniVGG, Scale);
  const Dataset Train = makeSynthesisSet(Task, Label, Scale);
  const Dataset Test = makeTestSet(Task, Scale).filterByClass(Label);

  // Reference: the fixed-prioritization program (zero synthesis queries).
  const auto FixedLogs = runProgramsOverSet(
      std::vector<Program>(Scale.NumClasses, allFalseProgram()), *Victim,
      Test, Scale.EvalQueryCap, Threads);
  const double FixedAvg = toQuerySample(FixedLogs).avgQueries();

  // Synthesis with a full trace (DESIGN.md §15): the trace records the
  // elite trajectory, one step per round (per exchange round with
  // --synth-islands N > 1, per iteration with one island), and an
  // "accept" means the global best improved. The default exchange cadence
  // is short enough to fire even within the smoke iteration budget.
  SynthesisConfig Config;
  Config.MaxIter = Scale.SynthIters;
  Config.PerImageQueryCap = Scale.SynthQueryCap;
  Config.Seed = 1;
  Config.Threads = Threads;
  Config.Islands =
      static_cast<size_t>(std::max(1LL, Args.getInt("synth-islands", 2)));
  Config.ExchangeInterval =
      static_cast<size_t>(std::max(1LL, Args.getInt("exchange-interval", 2)));
  std::vector<SynthesisStep> Trace;
  synthesizeProgram(*Victim, Train, Config, &Trace);

  Table T({"iteration", "synthesis #queries", "test avg #queries",
           "vs Sketch+False"});
  T.addRow({"(fixed prioritization)", "0", Table::fmt(FixedAvg, 1), "1.00x"});

  // Evaluate each *accepted* program (the paper records accepted
  // intermediates); skip repeats when a proposal was rejected.
  double LastPlotted = -1.0;
  for (const SynthesisStep &Step : Trace) {
    if (!Step.Accepted)
      continue;
    std::vector<Program> PerClass(Scale.NumClasses, Step.Current);
    const auto Logs = runProgramsOverSet(PerClass, *Victim, Test,
                                         Scale.EvalQueryCap, Threads);
    const double Avg = toQuerySample(Logs).avgQueries();
    logInfo() << "fig4: iter " << Step.Iteration << " -> test avgQ=" << Avg;
    T.addRow({std::to_string(Step.Iteration),
              std::to_string(Step.CumulativeQueries), Table::fmt(Avg, 1),
              Table::fmt(FixedAvg > 0 ? Avg / FixedAvg : 0.0, 2) + "x"});
    LastPlotted = Avg;
  }

  T.print(std::cout);
  std::cout << "\nFinal accepted program reaches "
            << Table::fmt(LastPlotted, 1) << " avg queries vs "
            << Table::fmt(FixedAvg, 1)
            << " for the fixed prioritization.\nExpected shape (paper): "
               "most of the improvement lands within the first few\n"
               "iterations (the paper reports ~2.7x after ~6 iterations), "
               "then a flat tail.\n";

  BenchJson BJ("fig4_synthesis_queries", Scale.Name, Args);
  BJ.set("wall_seconds",
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       BenchStart)
             .count());
  BJ.set("fixed_avg_queries", FixedAvg);
  BJ.set("final_avg_queries", LastPlotted);
  BJ.addTelemetryCounters();
  if (!BJ.writeFromArgs(Args))
    return 1;
  telemetry::finalizeTelemetry();
  return 0;
}
