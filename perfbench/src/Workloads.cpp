//===- perfbench/src/Workloads.cpp - Shared workload helpers --------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <iostream>

using namespace oppsla;

namespace perfbench {

std::string Victim::taskName() const {
  return Task == TaskKind::ImageNetLike ? "imagenet" : "cifar";
}

std::string Victim::archName() const {
  return Name.substr(Name.find('_') + 1);
}

Victim victimByName(const std::string &Name, const BenchScale &Scale) {
  Victim V;
  V.Name = Name;
  const size_t Sep = Name.find('_');
  const std::string Task = Name.substr(0, Sep);
  const std::string ArchText =
      Sep == std::string::npos ? "" : Name.substr(Sep + 1);
  V.Architecture = archFromName(ArchText);
  if ((Task != "cifar" && Task != "imagenet") || V.Architecture == Arch::Mlp) {
    std::cerr << "perfbench: unknown victim '" << Name << "'\n";
    std::exit(2);
  }
  V.Task = Task == "imagenet" ? TaskKind::ImageNetLike : TaskKind::CifarLike;
  V.Stem = victimStem(V.Task, V.Architecture, Scale, VictimSeed);
  return V;
}

std::vector<std::string> victimNames(const Options &O,
                                     const std::string &Name) {
  std::vector<std::string> Names;
  if (const json::Value *L = O.Knobs.find(Name))
    for (const json::Value &V : L->array())
      Names.push_back(V.str());
  if (Names.empty()) {
    std::cerr << "perfbench: workload '" << O.Workload << "' lists no "
              << Name << "\n";
    std::exit(2);
  }
  return Names;
}

SynthesisRunOptions storedProgramOptions(const Options &O) {
  SynthesisRunOptions Opts;
  Opts.Threads = std::min<size_t>(4, ThreadPool::hardwareThreads());
  Opts.UseStore = true;
  Opts.StoreRoot = O.StateDir + "/programs";
  return Opts;
}

int warmState(const Options &O, const json::Value &AllKnobs) {
  for (const auto &[Workload, Knobs] : AllKnobs.members()) {
    Options W = O;
    W.Workload = Workload;
    W.Knobs = Knobs;
    const BenchScale Scale = BenchScale::preset(W.knobString("scale"));
    const bool NeedsPrograms = Workload != "synth";
    for (const std::string &Name : victimNames(W, "victims")) {
      Victim V = victimByName(Name, Scale);
      V.Net = makeScaledVictim(V.Task, V.Architecture, Scale, VictimSeed);
      if (NeedsPrograms)
        synthesizeClassPrograms(*V.Net, V.Stem, V.Task, Scale, VictimSeed,
                                storedProgramOptions(W));
      std::cout << "warm: " << Workload << " " << Name << "\n";
    }
  }
  return 0;
}

CounterSnapshot::CounterSnapshot() {
  for (const auto &[Name, Value] :
       telemetry::MetricsRegistry::instance().counterValues())
    Values[Name] = Value;
}

double CounterSnapshot::since(const std::string &Name) const {
  auto It = Values.find(Name);
  return static_cast<double>(telemetry::counter(Name).value() -
                             (It == Values.end() ? 0 : It->second));
}

void reportTracedPass(Sheet &Out, const Options &O,
                      const std::vector<Span> &Spans, uint64_t BeginNs,
                      uint64_t EndNs, double OverheadPct,
                      const CounterSnapshot &Before, const std::string &Host) {
  const double Hits = Before.since("engine.cache.hits");
  const double Misses = Before.since("engine.cache.misses");
  Out.metric("engine.cache_hit_pct",
             Hits + Misses > 0 ? 100.0 * Hits / (Hits + Misses) : 0.0, "%");
  Out.metric("engine.forwards", Before.since("engine.forwards"), "count");
  Out.metric("uncovered_pct", uncoveredPct(Spans, BeginNs, EndNs), "%");
  Out.metric("trace_overhead_pct", OverheadPct, "%");
  if (!O.TraceOut.empty() &&
      !writeChromeTrace(O.TraceOut, Spans, BeginNs, Host))
    Out.fail("cannot write " + O.TraceOut);
}

double SetupTimes::median() const {
  std::printf("setup: %zu set-ups, quartiles %.6f %.6f %.6f s\n",
              Seconds.size(), quantile(Seconds, 0.25), quantile(Seconds, 0.5),
              quantile(Seconds, 0.75));
  return perfbench::median(Seconds);
}

void reportEndToEnd(Sheet &Out, double Ops, double Seconds,
                    const CpuTimes &Cpu, const SetupTimes &Setup,
                    double RssMb) {
  std::printf("ops: %.0f in %.3f s\n", Ops, Seconds);
  Out.metric("ops_per_s", Seconds > 0 ? Ops / Seconds : 0.0, "1/s");
  Out.metric("user_cpu_ms_per_op", Ops > 0 ? 1e3 * Cpu.User / Ops : 0.0, "ms");
  Out.metric("sys_cpu_ms_per_op", Ops > 0 ? 1e3 * Cpu.System / Ops : 0.0,
             "ms");
  Out.metric("setup_s", Setup.median(), "s");
  Out.metric("peak_rss_mb", RssMb, "MB");
}

MetricNames attackSweepLayers(const Options &O) {
  Options Sweep = O;
  Sweep.Workload = "attack_sweep";
  if (const json::Value *K = O.All.find(Sweep.Workload))
    Sweep.Knobs = *K;
  MetricNames Names;
  for (const char *A : {"oppsla", "sparse_rs", "suopa"})
    for (const auto &[Metric, Unit] : MetricNames{
             {"eval.sweep_s.", "s"},
             {"attacks.self_s.", "s"},
             {"attacks.queries.", "count"},
             {"engine.self_s.", "s"},
             {"engine.prefetch_images.", "count"},
             {"engine.prefetch_useful_pct.", "%"},
             {"engine.forwards_per_query.", "ratio"},
             {"engine.batch_mean.", "images"},
             {"nn.images.", "count"}})
      Names.emplace_back(Metric + A, Unit);
  for (const std::string &V : victimNames(Sweep, "victims"))
    Names.emplace_back("nn.us_per_image." + V, "us");
  Names.emplace_back("store.load_s", "s");
  return Names;
}

MetricNames synthLayers() {
  return {{"synth.class_s", "s"},       {"synth.iterations", "count"},
          {"synth.accepts", "count"},   {"synth.accept_pct", "%"},
          {"synth.queries", "count"},   {"synth.exchanges", "count"}};
}

MetricNames serveLayers() {
  return {{"serve.queue_wait_ms.p50", "ms"}, {"serve.queue_wait_ms.p99", "ms"},
          {"serve.setup_ms", "ms"},          {"serve.shard_ms", "ms"},
          {"serve.checkpoint_ms", "ms"},     {"serve.finalize_ms", "ms"},
          {"http.submit_ms", "ms"},          {"http.result_ms", "ms"},
          {"http.requests_per_job", "count"}, {"wire.result_bytes", "bytes"},
          {"wire.parse_us", "us"}};
}

} // namespace perfbench
