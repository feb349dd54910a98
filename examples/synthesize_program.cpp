//===- examples/synthesize_program.cpp - Full synthesis walkthrough ----------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The "attacker's workflow" example: pick a victim architecture and a
// target class, run OPPSLA's Metropolis-Hastings synthesis with a visible
// per-iteration trace, save the resulting adversarial program to a file,
// reload it, and attack held-out images with it.
//
// Run: build/examples/synthesize_program
//        [--arch vgg|resnet|googlenet|densenet|resnet50]
//        [--class K] [--iters N] [--scale smoke|small|paper]
//        [--out program.txt]
//
//===----------------------------------------------------------------------===//

#include "attacks/SketchAttack.h"
#include "eval/Evaluation.h"
#include "eval/Experiments.h"
#include "support/ArgParse.h"
#include "support/Table.h"

#include <iostream>

using namespace oppsla;

int main(int argc, char **argv) {
  ArgParse Args(argc, argv);
  const BenchScale Scale = BenchScale::preset(Args.get("scale", "smoke"));
  const Arch A = archFromName(Args.get("arch", "MiniResNet"));
  const auto Label = static_cast<size_t>(Args.getInt("class", 1));
  const auto Iters =
      static_cast<size_t>(Args.getInt("iters", (long long)Scale.SynthIters));
  const std::string OutPath = Args.get("out", "oppsla_program.txt");

  std::cout << "Victim: " << archName(A) << " on the "
            << taskName(TaskKind::CifarLike) << " task; attacking class "
            << Label << ".\n\n";
  auto Victim = makeScaledVictim(TaskKind::CifarLike, A, Scale);

  // Synthesize with a visible trace.
  const Dataset Train = makeSynthesisSet(TaskKind::CifarLike, Label, Scale);
  SynthesisConfig Config;
  Config.MaxIter = Iters;
  Config.PerImageQueryCap = Scale.SynthQueryCap;
  std::vector<SynthesisStep> Trace;
  const Program P = synthesizeProgram(*Victim, Train, Config, &Trace);

  // The trace follows the best program so far; the chain's own
  // accept/reject decisions are the `synth_iter` events that
  // `oppsla synthesize --trace-out` writes.
  std::cout << "Synthesis trace (" << Train.size() << " training images, "
            << Iters << " iterations):\n";
  Table T({"iter", "new best", "best train avg #q", "cumulative synth #q"});
  for (const SynthesisStep &Step : Trace)
    T.addRow({std::to_string(Step.Iteration), Step.Accepted ? "yes" : "no",
              Table::fmt(Step.AvgQueries, 1),
              std::to_string(Step.CumulativeQueries)});
  T.print(std::cout);

  std::cout << "\nSynthesized adversarial program:\n" << P.str();

  // Persist + reload round trip (what a real attacker ships).
  if (!saveProgram(P, OutPath)) {
    std::cerr << "error: cannot write " << OutPath << "\n";
    return 1;
  }
  Program Reloaded;
  if (!loadProgram(Reloaded, OutPath)) {
    std::cerr << "error: cannot reload " << OutPath << "\n";
    return 1;
  }
  std::cout << "\nProgram saved to '" << OutPath << "' and reloaded.\n";

  // Attack held-out images with the reloaded program.
  const Dataset Test =
      makeTestSet(TaskKind::CifarLike, Scale).filterByClass(Label);
  SketchAttack Attack(Reloaded);
  const auto Logs =
      runAttackOverSet(Attack, *Victim, Test, Scale.EvalQueryCap);
  const QuerySample S = toQuerySample(Logs);
  std::cout << "\nHeld-out attack results (" << Test.size() << " images, "
            << "budget " << Scale.EvalQueryCap << "):\n"
            << "  success rate : "
            << Table::fmt(100.0 * S.successRate(), 1) << "%\n"
            << "  avg #queries : " << Table::fmt(S.avgQueries(), 1) << "\n"
            << "  med #queries : " << Table::fmt(S.medianQueries(), 1)
            << "\n";
  return 0;
}
