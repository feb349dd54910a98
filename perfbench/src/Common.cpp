//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "support/Ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include <sys/resource.h>

using namespace oppsla;

namespace perfbench {

double Options::knob(const std::string &Name) const {
  const json::Value *V = Knobs.find(Name);
  if (!V || !V->isNumber()) {
    std::cerr << "perfbench: workload '" << Workload
              << "' has no numeric knob '" << Name << "'\n";
    std::exit(2);
  }
  return V->number();
}

std::string Options::knobString(const std::string &Name) const {
  const json::Value *V = Knobs.find(Name);
  if (!V || !V->isString()) {
    std::cerr << "perfbench: workload '" << Workload << "' has no string knob '"
              << Name << "'\n";
    std::exit(2);
  }
  return V->str();
}

void Sheet::metric(const std::string &Name, double Value,
                   const std::string &Unit) {
  Metrics[Name] = Entry{Value, Unit};
  std::printf("metric %s = %.9g %s\n", Name.c_str(), Value, Unit.c_str());
}

void Sheet::notExercised(const MetricNames &Names,
                         const std::string &Workload) {
  for (const auto &[Name, Unit] : Names) {
    Metrics[Name] = Entry{0.0, Unit};
    std::printf("metric %s = 0 %s (layer not exercised by %s)\n", Name.c_str(),
                Unit.c_str(), Workload.c_str());
  }
}

void Sheet::fail(const std::string &Why) {
  ++Failed;
  std::cout << "check failed: " << Why << "\n";
}

std::string Sheet::json() const {
  std::string Out = "{\"correct\": ";
  Out += correct() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, E] : Metrics) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "\"";
    json::escape(Out, Name);
    Out += "\": {\"value\": ";
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(E.Value) ? E.Value : 0.0);
    Out += Buf;
    Out += ", \"unit\": \"";
    json::escape(Out, E.Unit);
    Out += "\"}";
  }
  Out += "}}";
  return Out;
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  const double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

CpuTimes processCpu() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) * 1e-6;
  };
  return CpuTimes{Sec(Usage.ru_utime), Sec(Usage.ru_stime)};
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t deriveSeed(uint64_t Seed, uint64_t Stream) {
  // SplitMix64 finalizer over the pair.
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ULL + Stream + 0x632BE59BD9B4E019ULL;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

std::string hostRecord(const std::string &Threads) {
  const HostFingerprint &H = hostFingerprint();
  const std::string Record = "nproc=" + std::to_string(H.Cores) + " cpu=\"" +
                             H.CpuModel + "\" threads=\"" + Threads +
                             "\" build=\"" + H.BuildFlags + "\"";
  std::cout << "host: " << Record << "\n";
  return Record;
}

} // namespace perfbench
