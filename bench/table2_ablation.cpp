//===- bench/table2_ablation.cpp - Reproduces Table 2 (Appendix C) ------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Table 2 of the paper: the contribution of (a) the synthesized conditions
// and (b) the stochastic search, on the three CIFAR classifiers:
//
//   - OPPSLA           : MH-synthesized programs
//   - Sketch+False     : all conditions false (fixed prioritization)
//   - Sketch+Random    : best of N randomly sampled programs
//   - Sparse-RS        : the external baseline
//
// Reported: average and median #queries over successful attacks. All
// sketch variants share the same success rate (every instantiation is
// exhaustive). Expected ordering (paper): OPPSLA < Sketch+Random <
// Sketch+False < Sparse-RS on average queries.
//
//===----------------------------------------------------------------------===//

#include "attacks/SparseRS.h"
#include "eval/Evaluation.h"
#include "eval/Experiments.h"
#include "support/ArgParse.h"
#include "support/BenchJson.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>

using namespace oppsla;

namespace {

std::string cacheDir() {
  if (const char *Env = std::getenv("OPPSLA_CACHE_DIR"))
    return Env;
  return ".oppsla-cache";
}

/// Synthesizes (or loads) the Sketch+Random per-class baselines: the best
/// of Scale.SynthIters uniformly sampled programs per class — the same
/// sampling budget the paper grants (one random program per MH iteration).
std::vector<Program> randomBaselinePrograms(NNClassifier &Victim,
                                            const std::string &Stem,
                                            TaskKind Task,
                                            const BenchScale &Scale,
                                            size_t Threads) {
  std::vector<Program> Programs;
  std::error_code EC;
  std::filesystem::create_directories(cacheDir(), EC);
  for (size_t Label = 0; Label != Scale.NumClasses; ++Label) {
    std::ostringstream Key;
    Key << cacheDir() << "/rand_" << Stem << "_cls" << Label << "_i"
        << Scale.SynthIters << "_t" << Scale.TrainPerClass << ".txt";
    Program P;
    if (loadProgram(P, Key.str())) {
      Programs.push_back(P);
      continue;
    }
    const Dataset Train = makeSynthesisSet(Task, Label, Scale);
    logInfo() << "table2: random-search baseline for class " << Label;
    P = randomSearchProgram(Victim, Train, Scale.SynthIters,
                            Scale.SynthQueryCap,
                            /*Seed=*/0xabc123 + Label, Threads);
    saveProgram(P, Key.str());
    Programs.push_back(P);
  }
  return Programs;
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
  std::cout << "== Table 2: conditions & search ablation (scale: "
            << Scale.Name << ") ==\n\n";

  const TaskKind Task = TaskKind::CifarLike;
  const Dataset Test = makeTestSet(Task, Scale);
  Table T({"classifier", "approach", "avg #queries", "median #queries",
           "success rate"});

  for (Arch A : cifarArchs()) {
    auto Victim = makeScaledVictim(Task, A, Scale);
    const std::string Stem = victimStem(Task, A, Scale);

    const std::vector<Program> Synthesized = synthesizeClassPrograms(
        *Victim, Stem, Task, Scale, /*Seed=*/1, Threads);
    const std::vector<Program> FalseProgs(Scale.NumClasses,
                                          allFalseProgram());
    const std::vector<Program> RandomProgs =
        randomBaselinePrograms(*Victim, Stem, Task, Scale, Threads);

    struct RowSpec {
      const char *Name;
      const std::vector<Program> *Programs; ///< null => Sparse-RS
    };
    const RowSpec Rows[] = {{"OPPSLA", &Synthesized},
                            {"Sketch+False", &FalseProgs},
                            {"Sketch+Random", &RandomProgs},
                            {"Sparse-RS", nullptr}};
    for (const RowSpec &Row : Rows) {
      logInfo() << "table2: " << Row.Name << " on " << Victim->name();
      std::vector<AttackRunLog> Logs;
      if (Row.Programs) {
        Logs = runProgramsOverSet(*Row.Programs, *Victim, Test,
                                  Scale.EvalQueryCap, Threads);
      } else {
        SparseRS Rs;
        Logs = runAttackOverSet(Rs, *Victim, Test, Scale.EvalQueryCap,
                                Threads);
      }
      const QuerySample S = toQuerySample(Logs);
      T.addRow({Victim->name(), Row.Name, Table::fmt(S.avgQueries(), 2),
                Table::fmt(S.medianQueries(), 1),
                Table::fmt(100.0 * S.successRate(), 1) + "%"});
    }
  }

  T.print(std::cout);
  std::cout << "\nExpected shape (paper): OPPSLA < Sketch+Random < "
               "Sketch+False < Sparse-RS\non average queries; all sketch "
               "variants share one success rate.\n";

  BenchJson BJ("table2_ablation", Scale.Name, Args);
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
