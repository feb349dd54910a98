//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the three workloads plus the victim bookkeeping they
/// share. Victims are named "<task>_<arch>" (cifar_vgg, imagenet_resnet50,
/// ...), the spelling `oppsla serve` job specs use for (task, arch).
///
/// Every workload prints the same end-to-end metrics (see reportEndToEnd),
/// where an "op" is the workload's unit of work, and its own headline
/// metrics under their own names. A traced run (Options::Trace) instead
/// makes an untraced and a traced pass over the same inputs, checks that
/// their outcomes are byte-identical and reports the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"
#include "Spans.h"

#include "classify/NNClassifier.h"
#include "eval/Experiments.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Seed the victims are trained with and the class programs synthesized
/// with; pooled serve jobs must name it, so it is fixed, not --seed.
constexpr uint64_t VictimSeed = 1;

/// Query budget per image of every sweep and serve job: above the 100
/// queries success_at100_pct needs, small enough that a smoke test-set
/// sweep takes milliseconds.
constexpr uint64_t Budget = 128;

struct Victim {
  std::string Name; ///< "cifar_vgg"
  oppsla::TaskKind Task = oppsla::TaskKind::CifarLike;
  oppsla::Arch Architecture = oppsla::Arch::MiniVGG;
  std::string Stem; ///< victimStem(): cache and program-store key
  std::unique_ptr<oppsla::NNClassifier> Net;

  std::string taskName() const;
  std::string archName() const;
};

/// Parses "cifar_vgg"-style names; exits on an unknown one.
Victim victimByName(const std::string &Name, const oppsla::BenchScale &Scale);

/// The knob \p Name of \p O as a list of victim names.
std::vector<std::string> victimNames(const Options &O, const std::string &Name);

/// The synthesis options every cached class program was made with (the
/// `oppsla eval` and `oppsla serve` defaults) and the store they live in.
oppsla::SynthesisRunOptions storedProgramOptions(const Options &O);

/// Trains every victim and synthesizes every class program the workloads
/// load, into the benchmark's private cache and store.
int warmState(const Options &O, const oppsla::json::Value &AllKnobs);

/// setup_s: the median wall time of set-ups made in bursts, one before
/// and one after the timed pass. Set-up takes about a millisecond, and on a
/// shared host its speed shifts by half over tens of milliseconds, so each
/// burst lasts at least SetupBurstSeconds and the two bursts sample the host
/// at both ends of the pass.
class SetupTimes {
public:
  /// Runs \p SetUp, each time replacing the state the previous call built,
  /// at least SetupBurstRepeats times and for at least SetupBurstSeconds.
  template <typename Fn> void burst(Fn &&SetUp) {
    const auto Begin = Clock::now();
    for (size_t K = 0;
         K < SetupBurstRepeats || secondsSince(Begin) < SetupBurstSeconds;
         ++K) {
      const auto T0 = Clock::now();
      SetUp();
      Seconds.push_back(secondsSince(T0));
    }
  }

  /// Prints the quartiles and returns the median, in seconds.
  double median() const;

private:
  static constexpr size_t SetupBurstRepeats = 21;
  static constexpr double SetupBurstSeconds = 0.5;
  std::vector<double> Seconds;
};

/// The per-layer metrics each workload reports on a traced run; every
/// workload reports the other workloads' layers as not exercised.
/// attackSweepLayers reads attack_sweep's victims from \p O.All (one
/// nn.us_per_image each).
MetricNames attackSweepLayers(const Options &O);
MetricNames synthLayers();
MetricNames serveLayers();

int runAttackSweep(const Options &O, Sheet &Out);
int runSynth(const Options &O, Sheet &Out);
int runServeJobs(const Options &O, Sheet &Out);

/// The telemetry counters at one moment, so a traced pass can report how
/// much each grew during it.
class CounterSnapshot {
public:
  CounterSnapshot();
  /// Growth of counter \p Name since the snapshot was taken.
  double since(const std::string &Name) const;

private:
  std::map<std::string, uint64_t> Values;
};

/// What every traced run reports last: the engine's process-wide cache hit
/// rate and forwards since \p Before (measured values; shared-cache
/// counters vary run to run and are never gated), uncovered_pct of the
/// traced pass [\p BeginNs, \p EndNs), trace_overhead_pct, and the Chrome
/// Trace of \p Spans, stamped with \p Host.
void reportTracedPass(Sheet &Out, const Options &O,
                      const std::vector<Span> &Spans, uint64_t BeginNs,
                      uint64_t EndNs, double OverheadPct,
                      const CounterSnapshot &Before, const std::string &Host);

/// Reports the end-to-end metrics every workload prints: ops_per_s, \p Ops
/// over the pass of \p Seconds; user_cpu_ms_per_op, the process's user CPU
/// time over the pass (\p Cpu) per op; setup_s from \p Setup; and
/// peak_rss_mb. Kernel CPU
/// time, mostly socket and file calls, is printed as sys_cpu_ms_per_op.
void reportEndToEnd(Sheet &Out, double Ops, double Seconds,
                    const CpuTimes &Cpu, const SetupTimes &Setup,
                    double RssMb);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
