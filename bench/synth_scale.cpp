//===- bench/synth_scale.cpp - Island synthesis scaling -----------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Synthesis throughput and determinism of the parallel MH island search
// (DESIGN.md §15): programs/hour as a function of the island count, plus
// the two correctness invariants the gate pins exactly:
//
//   island_determinism  — the programs synthesized with --synth-islands 4
//                         are byte-identical at 4 worker threads and at 1.
//   store_hit_identical — re-running against a warm program store
//                         rehydrates byte-identical programs without
//                         re-searching (synth.store.hits > 0).
//
// Wall-clock metrics (programs_per_hour*) carry wide ratio rules or stay
// info-only: on a loaded or single-core box the speedup is noise, but the
// determinism bits never are.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/ProgramStore.h"
#include "support/ArgParse.h"
#include "support/BenchJson.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <vector>

using namespace oppsla;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

std::string portfolioText(const std::vector<Program> &Programs) {
  std::string Out;
  for (const Program &P : Programs)
    Out += programToStoreText(P);
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  const ArgParse Args(argc, argv);
  if (!telemetry::configureFromArgs(Args))
    return 1;
  const auto BenchStart = std::chrono::steady_clock::now();
  const BenchScale Scale = BenchScale::fromEnv();
  const size_t Threads = threadCountFromArgs(Args);
  std::cout << "== Island synthesis scaling (scale: " << Scale.Name
            << ", threads: " << Threads << ") ==\n\n";

  const TaskKind Task = TaskKind::CifarLike;
  auto Victim = makeScaledVictim(Task, Arch::MiniVGG, Scale);
  const std::string Stem = victimStem(Task, Arch::MiniVGG, Scale);

  // A bench-private store root, cleared up front so every run of this
  // binary sees the same cold-store world — the store hit/miss counters
  // are exact-gated and must not depend on leftovers from a prior run.
  const std::string StoreRoot = "synth_scale_store";
  std::filesystem::remove_all(StoreRoot);

  // An exchange cadence that actually fires within the scaled iteration
  // budget (smoke runs only 4 MH iterations).
  const size_t Exchange = Scale.SynthIters >= 50 ? 25 : 2;

  auto synthAll = [&](size_t Islands, size_t RunThreads, bool UseStore) {
    SynthesisRunOptions Opts;
    Opts.Threads = RunThreads;
    Opts.Islands = Islands;
    Opts.ExchangeInterval = Exchange;
    Opts.UseStore = UseStore;
    Opts.StoreRoot = StoreRoot;
    return synthesizeClassPrograms(*Victim, Stem, Task, Scale, /*Seed=*/1,
                                   Opts);
  };

  // --- Cold sweep: programs/hour vs island count ---------------------------
  Table T({"islands", "programs", "seconds", "programs/hour"});
  const size_t IslandCounts[] = {1, 2, 4};
  double ColdPph[3] = {0, 0, 0};
  std::vector<Program> ColdFour;
  for (size_t Idx = 0; Idx != 3; ++Idx) {
    const size_t Islands = IslandCounts[Idx];
    const auto T0 = std::chrono::steady_clock::now();
    auto Programs = synthAll(Islands, Threads, /*UseStore=*/true);
    const double Secs = secondsSince(T0);
    ColdPph[Idx] = Secs > 0 ? Programs.size() / Secs * 3600.0 : 0.0;
    if (Islands == 4)
      ColdFour = Programs;
    T.addRow({std::to_string(Islands), std::to_string(Programs.size()),
              Table::fmt(Secs, 3), Table::fmt(ColdPph[Idx], 0)});
  }
  T.print(std::cout);

  // --- Warm rehydration: the store replaces the search ---------------------
  const auto WarmT0 = std::chrono::steady_clock::now();
  const auto Warm = synthAll(4, Threads, /*UseStore=*/true);
  const double WarmSecs = secondsSince(WarmT0);
  const bool WarmIdentical = portfolioText(Warm) == portfolioText(ColdFour);
  std::cout << "\nwarm rehydration: " << Table::fmt(WarmSecs, 3) << " s, "
            << (WarmIdentical ? "byte-identical" : "MISMATCH") << "\n";
  if (!WarmIdentical)
    logWarn() << "warm store rehydration did not reproduce the cold run";

  // --- Thread-count invariance of the island search ------------------------
  // Same (seed, islands, exchange interval) at 4 worker threads and 1;
  // the store is bypassed so both runs genuinely search.
  const auto FourThreads = synthAll(4, /*RunThreads=*/4, /*UseStore=*/false);
  const auto OneThread = synthAll(4, /*RunThreads=*/1, /*UseStore=*/false);
  const bool Deterministic =
      portfolioText(FourThreads) == portfolioText(OneThread);
  std::cout << "island determinism (4 threads vs 1): "
            << (Deterministic ? "byte-identical" : "MISMATCH") << "\n";
  if (!Deterministic)
    logWarn() << "island synthesis diverged across thread counts";

  // --- Throughput sample for the ratio gate --------------------------------
  // Repeat the no-store 4-island synthesis in windows of at least 0.25 s
  // and report the median window. A window holds a dozen or so programs at
  // smoke, so one stall or burst on a shared host moves a single window's
  // rate by half; the median of several is a measurement.
  constexpr size_t PphWindows = 5;
  std::vector<double> WindowPph;
  size_t Produced = 0;
  double PphSecs = 0.0;
  for (size_t W = 0; W != PphWindows; ++W) {
    size_t InWindow = 0;
    const auto WindowT0 = std::chrono::steady_clock::now();
    double Secs = 0.0;
    do {
      InWindow += synthAll(4, Threads, /*UseStore=*/false).size();
      Secs = secondsSince(WindowT0);
    } while (Secs < 0.25);
    WindowPph.push_back(InWindow / Secs * 3600.0);
    Produced += InWindow;
    PphSecs += Secs;
  }
  std::sort(WindowPph.begin(), WindowPph.end());
  const double Pph = WindowPph[PphWindows / 2];
  std::cout << "sustained: " << Produced << " programs in "
            << Table::fmt(PphSecs, 3) << " s over " << PphWindows
            << " windows, median " << Table::fmt(Pph, 0)
            << " programs/hour (windows " << Table::fmt(WindowPph.front(), 0)
            << "-" << Table::fmt(WindowPph.back(), 0) << ")\n";

  BenchJson BJ("synth_scale", Scale.Name, Args);
  BJ.set("wall_seconds", secondsSince(BenchStart));
  BJ.set("threads", static_cast<double>(Threads));
  BJ.set("programs_per_hour", Pph);
  BJ.set("programs_per_hour_i1", ColdPph[0]);
  BJ.set("programs_per_hour_i2", ColdPph[1]);
  BJ.set("programs_per_hour_i4", ColdPph[2]);
  BJ.set("island_speedup_4x", ColdPph[0] > 0 ? ColdPph[2] / ColdPph[0] : 0.0);
  BJ.set("warm_rehydrate_seconds", WarmSecs);
  BJ.set("island_determinism", Deterministic ? 1.0 : 0.0);
  BJ.set("store_hit_identical", WarmIdentical ? 1.0 : 0.0);
  BJ.addTelemetryCounters();
  if (!BJ.writeFromArgs(Args))
    return 1;
  telemetry::finalizeTelemetry();
  return (Deterministic && WarmIdentical) ? 0 : 1;
}
