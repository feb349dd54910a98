//===- eval/Experiments.cpp - Shared experiment setup ------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"

#include "eval/ProgramStore.h"
#include "support/Logging.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

using namespace oppsla;

const std::vector<Arch> &oppsla::cifarArchs() {
  static const std::vector<Arch> Archs = {Arch::MiniGoogLeNet,
                                          Arch::MiniResNet, Arch::MiniVGG};
  return Archs;
}

const std::vector<Arch> &oppsla::imageNetArchs() {
  static const std::vector<Arch> Archs = {Arch::MiniDenseNet,
                                          Arch::MiniResNet50};
  return Archs;
}

size_t oppsla::taskSide(TaskKind Task, const BenchScale &Scale) {
  return Task == TaskKind::CifarLike ? Scale.CifarSide : Scale.ImageNetSide;
}

namespace {

VictimSpec scaledSpec(TaskKind Task, Arch Architecture,
                      const BenchScale &Scale, uint64_t Seed) {
  VictimSpec Spec;
  Spec.Task = Task;
  Spec.Architecture = Architecture;
  Spec.Seed = Seed;
  // Victims are always full 10-way classifiers like the paper's (a wider
  // softmax keeps margins realistic); Scale.NumClasses only bounds which
  // classes the experiments attack.
  Spec.NumClasses = 10;
  Spec.TrainImagesPerClass =
      std::max<size_t>(1, Scale.ClassifierTrainSet / 10);
  Spec.Side = taskSide(Task, Scale);
  Spec.Train.Epochs = Scale.TrainEpochs;
  return Spec;
}

} // namespace

std::unique_ptr<NNClassifier> oppsla::makeScaledVictim(TaskKind Task,
                                                       Arch Architecture,
                                                       const BenchScale &Scale,
                                                       uint64_t Seed) {
  return makeVictim(scaledSpec(Task, Architecture, Scale, Seed));
}

std::string oppsla::victimStem(TaskKind Task, Arch Architecture,
                               const BenchScale &Scale, uint64_t Seed) {
  return scaledSpec(Task, Architecture, Scale, Seed).cacheStem();
}

Dataset oppsla::makeTestSet(TaskKind Task, const BenchScale &Scale,
                            uint64_t Seed) {
  // 0xteset namespace: disjoint from the victim-training (0x...7) and
  // synthesis (below) seed streams.
  return generateSynthetic(Task, Scale.TestPerClass,
                           /*Seed=*/Seed * 7778777 + 424243,
                           taskSide(Task, Scale), Scale.NumClasses);
}

Dataset oppsla::makeSynthesisSet(TaskKind Task, size_t Label,
                                 const BenchScale &Scale, uint64_t Seed) {
  Dataset All = generateSynthetic(Task, Scale.TrainPerClass,
                                  /*Seed=*/Seed * 31337 + 101 + Label * 977,
                                  taskSide(Task, Scale), Scale.NumClasses);
  return All.filterByClass(Label);
}

//===----------------------------------------------------------------------===//
// Program (de)serialization
//===----------------------------------------------------------------------===//

bool oppsla::saveProgram(const Program &P, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const Condition &C : P.Conds)
    std::fprintf(F, "%d %d %d %.17g\n", static_cast<int>(C.Func),
                 static_cast<int>(C.Source), static_cast<int>(C.Cmp),
                 C.Threshold);
  std::fclose(F);
  return true;
}

bool oppsla::loadProgram(Program &P, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return false;
  Program Out;
  for (Condition &C : Out.Conds) {
    int Func = 0, Source = 0, Cmp = 0;
    double Threshold = 0.0;
    if (std::fscanf(F, "%d %d %d %lg", &Func, &Source, &Cmp, &Threshold) !=
        4) {
      std::fclose(F);
      return false;
    }
    if (Func < 0 || Func >= static_cast<int>(NumFuncKinds) || Source < 0 ||
        Source > 1 || Cmp < 0 || Cmp > 1) {
      std::fclose(F);
      return false;
    }
    C.Func = static_cast<FuncKind>(Func);
    C.Source = static_cast<PixelSource>(Source);
    C.Cmp = static_cast<CmpKind>(Cmp);
    C.Threshold = Threshold;
  }
  std::fclose(F);
  P = Out;
  return true;
}

SynthesisConfig oppsla::classSynthesisConfig(const BenchScale &Scale,
                                             size_t Label, uint64_t Seed,
                                             const SynthesisRunOptions &Opts) {
  SynthesisConfig Config;
  Config.MaxIter = Scale.SynthIters;
  Config.PerImageQueryCap = Scale.SynthQueryCap;
  Config.Seed = Seed * 131071 + Label * 8191 + 5;
  Config.Threads = Opts.Threads;
  Config.Islands = Opts.Islands;
  Config.ExchangeInterval = Opts.ExchangeInterval;
  return Config;
}

Program oppsla::synthesizeClassProgram(NNClassifier &Victim,
                                       const std::string &VictimStem,
                                       TaskKind Task, const BenchScale &Scale,
                                       size_t Label, uint64_t Seed,
                                       const SynthesisRunOptions &Opts) {
  const SynthesisConfig Config =
      classSynthesisConfig(Scale, Label, Seed, Opts);

  ProgramStoreKey Key;
  Key.VictimStem = VictimStem;
  Key.Label = Label;
  Key.MaxIter = Config.MaxIter;
  Key.Beta = Config.Beta;
  Key.QueryCap = Config.PerImageQueryCap;
  Key.Seed = Config.Seed;
  Key.Islands = Config.Islands;
  Key.ExchangeInterval = Config.ExchangeInterval;
  Key.TrainPerClass = Scale.TrainPerClass;

  ProgramStore Store(Opts.StoreRoot);
  if (Opts.UseStore) {
    std::vector<StoredProgram> Portfolio;
    if (Store.load(Key, Portfolio)) {
      logInfo() << "rehydrated program for class " << Label
                << " from store entry " << Store.entryPath(Key);
      return selectFromPortfolio(Portfolio).P;
    }
  }

  const Dataset Train = makeSynthesisSet(Task, Label, Scale, Seed);
  logInfo() << "synthesizing program for " << Victim.name() << " class "
            << Label << " (" << Train.size() << " train images, "
            << Config.MaxIter << " iters, " << Config.Islands
            << " island(s))";
  // Candidates are scored on the bare victim: synthesizeProgram's
  // per-image memos already answer every repeated query exactly, so an
  // engine here would only add its hashing, image copies and prefetch.
  std::vector<IslandElite> Elites;
  const Program P =
      synthesizeProgram(Victim, Train, Config, /*Trace=*/nullptr, &Elites);

  if (Opts.UseStore) {
    // Entry 0 is the program this run returned; its stats come from the
    // matching elite (zeros for the no-success fallback program, which
    // keeps portfolio selection landing back on it). Entries 1.. are
    // every island's elite — the attack-time portfolio.
    std::vector<StoredProgram> Portfolio;
    StoredProgram Selected;
    Selected.P = P;
    const std::string PText = programToStoreText(P);
    for (const IslandElite &E : Elites)
      if (programToStoreText(E.P) == PText) {
        Selected.AvgQueries = E.Eval.AvgQueries;
        Selected.Successes = E.Eval.Successes;
        Selected.Attacks = E.Eval.Attacks;
        break;
      }
    Portfolio.push_back(Selected);
    for (const IslandElite &E : Elites)
      Portfolio.push_back(StoredProgram{E.P, E.Eval.AvgQueries,
                                        E.Eval.Successes, E.Eval.Attacks});
    if (!Store.save(Key, Portfolio))
      logWarn() << "failed to persist program to store entry "
                << Store.entryPath(Key);
  }
  return P;
}

std::vector<Program> oppsla::synthesizeClassPrograms(
    NNClassifier &Victim, const std::string &VictimStem, TaskKind Task,
    const BenchScale &Scale, uint64_t Seed, const SynthesisRunOptions &Opts) {
  std::vector<Program> Programs;
  Programs.reserve(Scale.NumClasses);
  for (size_t Label = 0; Label != Scale.NumClasses; ++Label)
    Programs.push_back(
        synthesizeClassProgram(Victim, VictimStem, Task, Scale, Label, Seed,
                               Opts));
  return Programs;
}

std::vector<Program> oppsla::synthesizeClassPrograms(
    NNClassifier &Victim, const std::string &VictimStem, TaskKind Task,
    const BenchScale &Scale, uint64_t Seed, size_t Threads) {
  SynthesisRunOptions Opts;
  Opts.Threads = Threads;
  return synthesizeClassPrograms(Victim, VictimStem, Task, Scale, Seed, Opts);
}
