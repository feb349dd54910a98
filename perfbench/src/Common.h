//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the parsed
/// command line, the per-workload knobs from perfbench/workloads.json, the
/// result sheet that collects metrics and output checks, and small helpers
/// (quantiles, peak RSS, seed derivation, the host record).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "support/Json.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// (name, unit) pairs of metrics.
using MetricNames = std::vector<std::pair<std::string, std::string>>;

/// The command line every workload receives, plus its workloads.json entry.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string StateDir;  ///< benchmark-private state (cache, store, ckpts)
  std::string TraceOut;  ///< Chrome Trace JSON path (traced runs only)
  oppsla::json::Value Knobs; ///< this workload's workloads.json object
  oppsla::json::Value All;   ///< every workload's workloads.json object

  double knob(const std::string &Name) const;
  std::string knobString(const std::string &Name) const;
};

/// Collects the run's metrics and output checks and renders the result.
class Sheet {
public:
  /// Records metric \p Name and prints `metric <name> = <value> <unit>`.
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Records every metric of \p Names as 0: per-layer metrics of layers
  /// the workload \p Workload does not exercise.
  void notExercised(const MetricNames &Names, const std::string &Workload);
  /// Counts \p N attempted operations.
  void attempted(uint64_t N) { Attempted += N; }
  /// Counts one failed operation (a failed job, a refused request or a
  /// failed output check) and prints why.
  void fail(const std::string &Why);
  /// Failed operations over attempted ones, in percent.
  double errorPct() const {
    return Attempted ? 100.0 * static_cast<double>(Failed) /
                           static_cast<double>(Attempted)
                     : 100.0;
  }
  bool correct() const { return Failed == 0 && Attempted > 0; }

  /// The one-line JSON result: correct, attempted, failed, metrics.
  std::string json() const;

private:
  struct Entry {
    double Value;
    std::string Unit;
  };
  std::map<std::string, Entry> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Linear-interpolated quantile \p Q in [0,1]; 0 for an empty sample.
double quantile(std::vector<double> Values, double Q);
double median(std::vector<double> Values);
double mean(const std::vector<double> &Values);

/// CPU time this process has used so far, all threads, in seconds.
struct CpuTimes {
  double User = 0.0;
  double System = 0.0;

  CpuTimes operator-(const CpuTimes &O) const {
    return CpuTimes{User - O.User, System - O.System};
  }
};
CpuTimes processCpu();

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// A well-mixed 64-bit value derived from (\p Seed, \p Stream).
uint64_t deriveSeed(uint64_t Seed, uint64_t Stream);

/// Prints and returns the host record: nproc, CPU model, build flags and
/// the thread counts \p Threads.
std::string hostRecord(const std::string &Threads);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
