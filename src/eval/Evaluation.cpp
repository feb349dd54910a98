//===- eval/Evaluation.cpp - Attack evaluation harness -----------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/Evaluation.h"

#include "attacks/SketchAttack.h"
#include "support/Profiler.h"
#include "support/Progress.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace oppsla;

namespace {

/// The sweep both entry points share. RunOne(NN, Slot, I) attacks image I
/// of \p TestSet on classifier NN; the sweep records its outcome into a
/// pre-sized log slot. With \p Threads > 1 the images fan out over a pool
/// whose worker slot 0 runs on \p N and the others on clones, so the logs
/// are bit-identical to the serial sweep (each run's outcome is a pure
/// function of the attack seed and the image — see Attack::attack()). A
/// classifier that cannot be cloned runs the serial sweep.
std::vector<AttackRunLog> sweep(
    Classifier &N, const Dataset &TestSet, size_t Threads,
    const std::function<AttackResult(Classifier &, size_t, size_t)> &RunOne) {
  telemetry::ProfileScope Span("eval.sweep");
  telemetry::progressBegin("eval", TestSet.size());
  std::vector<AttackRunLog> Logs(TestSet.size());
  auto Record = [&](Classifier &NN, size_t Slot, size_t I) {
    telemetry::TraceImageScope Scope(static_cast<int64_t>(I));
    const AttackResult R = RunOne(NN, Slot, I);
    AttackRunLog &Log = Logs[I];
    Log.Label = TestSet.Labels[I];
    Log.Discarded = R.AlreadyMisclassified;
    Log.Success = R.Success && !R.AlreadyMisclassified;
    Log.Queries = R.Queries;
    telemetry::progressItem(!Log.Discarded, Log.Success, Log.Queries);
  };

  const size_t Workers = std::min(Threads, TestSet.size());
  const std::vector<std::unique_ptr<Classifier>> Clones =
      workerClones(N, Workers);
  if (Clones.empty()) {
    for (size_t I = 0; I != TestSet.size(); ++I)
      Record(N, 0, I);
  } else {
    ThreadPool Pool(Workers);
    Pool.forEach(TestSet.size(), [&](size_t Slot, size_t I) {
      Record(Slot == 0 ? N : *Clones[Slot - 1], Slot, I);
    });
  }
  telemetry::progressFinish();
  return Logs;
}

} // namespace

std::vector<AttackRunLog> oppsla::runAttackOverSet(Attack &A, Classifier &N,
                                                   const Dataset &TestSet,
                                                   uint64_t Budget,
                                                   size_t Threads) {
  // Worker slot 0 runs A itself, every other slot its own clone.
  std::vector<std::unique_ptr<Attack>> Clones;
  for (size_t Slot = 1; Slot < std::min(Threads, TestSet.size()); ++Slot)
    Clones.push_back(A.clone());
  return sweep(N, TestSet, Threads,
               [&](Classifier &NN, size_t Slot, size_t I) {
                 Attack &AT = Slot == 0 ? A : *Clones[Slot - 1];
                 return AT.attack(NN, TestSet.Images[I], TestSet.Labels[I],
                                  Budget);
               });
}

std::vector<AttackRunLog> oppsla::runProgramsOverSet(
    const std::vector<Program> &Programs, Classifier &N,
    const Dataset &TestSet, uint64_t Budget, size_t Threads) {
  // Per-image construction of the SketchAttack is cheap (programs are a
  // handful of ops), so each run builds the attack for its label locally;
  // that also makes the parallel path trivially race-free.
  return sweep(N, TestSet, Threads, [&](Classifier &NN, size_t, size_t I) {
    const size_t Label = TestSet.Labels[I];
    assert(Label < Programs.size() && "no program for this class");
    SketchAttack A(Programs[Label]);
    return A.attack(NN, TestSet.Images[I], Label, Budget);
  });
}

QuerySample oppsla::toQuerySample(const std::vector<AttackRunLog> &Logs) {
  QuerySample Sample;
  for (const AttackRunLog &Log : Logs) {
    if (Log.Discarded)
      continue;
    if (Log.Success)
      Sample.SuccessQueries.push_back(static_cast<double>(Log.Queries));
    else
      ++Sample.NumFailures;
  }
  return Sample;
}

double oppsla::successRateAt(const std::vector<AttackRunLog> &Logs,
                             uint64_t Budget) {
  size_t Within = 0, Total = 0;
  for (const AttackRunLog &Log : Logs) {
    if (Log.Discarded)
      continue;
    ++Total;
    if (Log.Success && Log.Queries <= Budget)
      ++Within;
  }
  if (Total == 0)
    return 0.0;
  return static_cast<double>(Within) / static_cast<double>(Total);
}
