//===- bench/fig3_success_vs_queries.cpp - Reproduces Figure 3 ---------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Figure 3 of the paper: success rate at query budgets (<=100, <=500,
// <=10000) for OPPSLA vs Sparse-RS vs SuOPA, on three CIFAR-like victims
// and two ImageNet-like victims. The paper's qualitative shape:
//
//   - OPPSLA dominates at small budgets (<=100) by a wide margin;
//   - the baselines close much of the gap at large budgets, but OPPSLA
//     stays on top;
//   - ImageNet victims have a pair space far larger than the budget, so
//     absolute rates drop for the search baselines.
//
// Honors OPPSLA_BENCH_SCALE (smoke|small|paper). One attack run per test
// image at the maximum budget yields the full success-rate curve via the
// prefix property (see eval/Evaluation.h).
//
//===----------------------------------------------------------------------===//

#include "attacks/SketchAttack.h"
#include "attacks/SparseRS.h"
#include "attacks/SuOPA.h"
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

void runTask(TaskKind Task, const std::vector<Arch> &Archs,
             const BenchScale &Scale, size_t Threads) {
  const std::vector<uint64_t> Budgets = {100, 500, Scale.EvalQueryCap};
  std::vector<std::string> Header = {"classifier", "attack"};
  for (uint64_t B : Budgets)
    Header.push_back("success@" + std::to_string(B));
  Header.emplace_back("avg #q (succ)");
  Table T(std::move(Header));

  const Dataset Test = makeTestSet(Task, Scale);
  for (Arch A : Archs) {
    auto Victim = makeScaledVictim(Task, A, Scale);
    logInfo() << "fig3: evaluating " << Victim->name() << " over "
              << Test.size() << " test images";

    // OPPSLA: per-class synthesized programs.
    const std::vector<Program> Programs = synthesizeClassPrograms(
        *Victim, victimStem(Task, A, Scale), Task, Scale, /*Seed=*/1,
        Threads);
    const auto OppslaLogs = runProgramsOverSet(Programs, *Victim, Test,
                                               Scale.EvalQueryCap, Threads);

    SparseRS Rs;
    const auto RsLogs =
        runAttackOverSet(Rs, *Victim, Test, Scale.EvalQueryCap, Threads);

    SuOPAConfig DeConfig;
    // Keep Su et al.'s defining trait (population >= the minimum query
    // count) while fitting the budget at reduced scales.
    DeConfig.PopulationSize =
        std::min<size_t>(400, std::max<size_t>(20, Scale.EvalQueryCap / 10));
    SuOPA De(DeConfig);
    const auto DeLogs =
        runAttackOverSet(De, *Victim, Test, Scale.EvalQueryCap, Threads);

    const struct {
      const char *Name;
      const std::vector<AttackRunLog> &Logs;
    } Rows[] = {{"OPPSLA", OppslaLogs},
                {"Sparse-RS", RsLogs},
                {"SuOPA", DeLogs}};
    for (const auto &Row : Rows) {
      std::vector<std::string> Cells = {Victim->name(), Row.Name};
      for (uint64_t B : Budgets)
        Cells.push_back(
            Table::fmt(100.0 * successRateAt(Row.Logs, B), 1) + "%");
      Cells.push_back(Table::fmt(toQuerySample(Row.Logs).avgQueries(), 1));
      T.addRow(std::move(Cells));
    }
  }
  T.print(std::cout);
  std::cout << "\n";
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
  std::cout << "== Figure 3: success rate vs query budget (scale: "
            << Scale.Name << ") ==\n\n";
  std::cout << "-- CIFAR-like victims --\n";
  runTask(TaskKind::CifarLike, cifarArchs(), Scale, Threads);
  std::cout << "-- ImageNet-like victims --\n";
  runTask(TaskKind::ImageNetLike, imageNetArchs(), Scale, Threads);
  std::cout << "Expected shape (paper): OPPSLA >= baselines at every "
               "budget;\nthe gap is largest at <=100 queries; baselines "
               "approach OPPSLA\nonly at the largest budgets.\n";

  BenchJson BJ("fig3_success_vs_queries", Scale.Name, Args);
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
