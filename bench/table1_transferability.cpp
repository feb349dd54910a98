//===- bench/table1_transferability.cpp - Reproduces Table 1 ------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Table 1 of the paper: transferability of adversarial programs across
// CIFAR classifiers. Programs are synthesized once per (classifier,
// class) and then used to attack *other* classifiers; the metric is the
// average number of queries over successful attacks. The paper's shape:
// off-diagonal entries stay within a small factor of the diagonal (the
// programs encode network-agnostic prioritization knowledge), with the
// GoogLeNet-synthesized programs transferring worst.
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
  std::cout << "== Table 1: transferability (avg #queries; scale: "
            << Scale.Name << ") ==\n\n";

  const TaskKind Task = TaskKind::CifarLike;
  const std::vector<Arch> &Archs = cifarArchs();
  const Dataset Test = makeTestSet(Task, Scale);

  // Victims and their synthesized per-class programs.
  std::vector<std::unique_ptr<NNClassifier>> Victims;
  std::vector<std::vector<Program>> ProgramSets;
  for (Arch A : Archs) {
    Victims.push_back(makeScaledVictim(Task, A, Scale));
    ProgramSets.push_back(synthesizeClassPrograms(
        *Victims.back(), victimStem(Task, A, Scale), Task, Scale,
        /*Seed=*/1, Threads));
  }

  std::vector<std::string> Header = {"target \\ synthesized for"};
  for (Arch A : Archs)
    Header.emplace_back(archName(A));
  Table AvgT(Header), RateT(Header);

  for (size_t Target = 0; Target != Victims.size(); ++Target) {
    std::vector<std::string> AvgRow = {archName(Archs[Target])};
    std::vector<std::string> RateRow = {archName(Archs[Target])};
    for (size_t Source = 0; Source != ProgramSets.size(); ++Source) {
      logInfo() << "table1: programs(" << archName(Archs[Source])
                << ") -> target " << archName(Archs[Target]);
      const auto Logs =
          runProgramsOverSet(ProgramSets[Source], *Victims[Target], Test,
                             Scale.EvalQueryCap, Threads);
      const QuerySample S = toQuerySample(Logs);
      AvgRow.push_back(Table::fmt(S.avgQueries(), 2));
      RateRow.push_back(Table::fmt(100.0 * S.successRate(), 1) + "%");
    }
    AvgT.addRow(std::move(AvgRow));
    RateT.addRow(std::move(RateRow));
  }

  std::cout << "Average #queries over successful attacks "
               "(diagonal = programs on their own classifier):\n";
  AvgT.print(std::cout);
  std::cout << "\nSuccess rates (independent of which program is used — "
               "every sketch instantiation is exhaustive):\n";
  RateT.print(std::cout);
  std::cout << "\nExpected shape (paper): off-diagonal avg queries within "
               "a small factor\n(~1.2-2x) of the diagonal.\n";

  BenchJson BJ("table1_transferability", Scale.Name, Args);
  BJ.set("wall_seconds",
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       BenchStart)
             .count());
  BJ.set("victims", static_cast<double>(Victims.size()));
  BJ.addTelemetryCounters();
  if (!BJ.writeFromArgs(Args))
    return 1;
  telemetry::finalizeTelemetry();
  return 0;
}
