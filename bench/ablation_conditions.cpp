//===- bench/ablation_conditions.cpp - Extra ablations beyond the paper -------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Two ablations that extend the paper's Appendix C:
//
//  (1) Per-condition ablation: starting from a synthesized program,
//      disable each condition B_i (replace with the canonical False) and
//      measure the average query count — which of the four reordering
//      rules carries the improvement?
//
//  (2) Training-robustness ablation: the same architecture trained with
//      flip/translate/cutout augmentation; how much harder does the victim
//      become for one pixel attacks (success rate and queries)?
//
// Both honor OPPSLA_BENCH_SCALE.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "eval/Evaluation.h"
#include "eval/Experiments.h"
#include "support/ArgParse.h"
#include "support/BenchJson.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <iostream>

using namespace oppsla;

namespace {

void perConditionAblation(const BenchScale &Scale, size_t Threads) {
  std::cout << "-- (1) per-condition ablation (MiniResNet) --\n\n";
  const TaskKind Task = TaskKind::CifarLike;
  auto Victim = makeScaledVictim(Task, Arch::MiniResNet, Scale);
  const std::vector<Program> Programs = synthesizeClassPrograms(
      *Victim, victimStem(Task, Arch::MiniResNet, Scale), Task, Scale,
      /*Seed=*/1, Threads);
  const Dataset Test = makeTestSet(Task, Scale);

  Table T({"variant", "avg #queries", "median #queries"});
  auto Measure = [&](const std::string &Name,
                     const std::vector<Program> &Ps) {
    logInfo() << "ablation: " << Name;
    const auto Logs = runProgramsOverSet(Ps, *Victim, Test,
                                         Scale.EvalQueryCap, Threads);
    const QuerySample S = toQuerySample(Logs);
    T.addRow({Name, Table::fmt(S.avgQueries(), 2),
              Table::fmt(S.medianQueries(), 1)});
  };

  Measure("synthesized (all four conditions)", Programs);
  const Program False = allFalseProgram();
  for (size_t Drop = 0; Drop != 4; ++Drop) {
    std::vector<Program> Variant = Programs;
    for (Program &P : Variant)
      P.Conds[Drop] = False.Conds[Drop];
    Measure("without B" + std::to_string(Drop + 1), Variant);
  }
  Measure("all-False (fixed prioritization)",
          std::vector<Program>(Scale.NumClasses, False));
  T.print(std::cout);
  std::cout << "\nFirst synthesized program, analyzed:\n"
            << explainProgram(Programs.front(),
                              taskSide(Task, Scale))
            << "\n";
}

void robustnessAblation(const BenchScale &Scale, size_t Threads) {
  std::cout << "-- (2) augmented-training robustness ablation "
               "(MiniResNet) --\n\n";
  const TaskKind Task = TaskKind::CifarLike;
  const Dataset Test = makeTestSet(Task, Scale);

  Table T({"victim training", "test attack success", "avg #queries"});
  for (const bool Augmented : {false, true}) {
    VictimSpec Spec;
    Spec.Task = Task;
    Spec.Architecture = Arch::MiniResNet;
    Spec.NumClasses = 10;
    Spec.TrainImagesPerClass =
        std::max<size_t>(1, Scale.ClassifierTrainSet / 10);
    Spec.Side = taskSide(Task, Scale);
    Spec.Train.Epochs = Scale.TrainEpochs;
    if (Augmented) {
      Spec.Train.UseAugment = true;
      Spec.Train.Augment.CutoutPatch = 3;
    }
    auto Victim = makeVictim(Spec);

    // Attack with the fixed-prioritization sketch (no synthesis, so the
    // comparison isolates the victim's robustness).
    const std::vector<Program> Fixed(Scale.NumClasses, allFalseProgram());
    const auto Logs = runProgramsOverSet(Fixed, *Victim, Test,
                                         Scale.EvalQueryCap, Threads);
    const QuerySample S = toQuerySample(Logs);
    T.addRow({Augmented ? "flips+translate+cutout" : "plain (paper-like)",
              Table::fmt(100.0 * S.successRate(), 1) + "%",
              Table::fmt(S.avgQueries(), 1)});
  }
  T.print(std::cout);
  std::cout << "\nExpected: augmentation (cutout especially) lowers one "
               "pixel attack success.\n";
}

} // namespace

int main(int argc, char **argv) {
  // --trace-out / --metrics-out / --profile (see support/Metrics.h).
  const ArgParse Args(argc, argv);
  if (!telemetry::configureFromArgs(Args))
    return 1;
  const auto BenchStart = std::chrono::steady_clock::now();
  const BenchScale Scale = BenchScale::fromEnv();
  const size_t Threads = threadCountFromArgs(Args);
  std::cout << "== Extended ablations (scale: " << Scale.Name << ") ==\n\n";
  perConditionAblation(Scale, Threads);
  robustnessAblation(Scale, Threads);

  BenchJson BJ("ablation_conditions", Scale.Name, Args);
  BJ.set("wall_seconds",
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       BenchStart)
             .count());
  BJ.addTelemetryCounters();
  if (!BJ.writeFromArgs(Args))
    return 1;
  telemetry::finalizeTelemetry();
  return 0;
}
