//===- support/BenchJson.h - Standard bench result artifact ----*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standard machine-readable artifact every bench binary writes at its
/// `--json-out` path (schema version kBenchSchemaVersion):
///
///   {"schema": 2, "name": "<bench>", "scale": "<smoke|small|paper>",
///    "repeat": <i>, "metrics": {"<key>": <number>, ...}}
///
/// One flat numeric map keeps the driver-side diffing trivial. The
/// artifact is ledger-ready: `oppsla_bench ingest` turns it into one JSONL
/// ledger row, and `oppsla_bench gate` medians repeated runs of the same
/// bench (distinguished by the `--repeat i` flag) before comparing against
/// a baseline.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_SUPPORT_BENCHJSON_H
#define OPPSLA_SUPPORT_BENCHJSON_H

#include <map>
#include <string>

namespace oppsla {

class ArgParse;

/// Builder for the BENCH_<name>.json artifact.
struct BenchJson {
  BenchJson(std::string Name, std::string Scale)
      : Name(std::move(Name)), Scale(std::move(Scale)) {}

  /// Standard construction for a bench main: picks up the `--repeat i`
  /// index from \p Args (0 when absent).
  BenchJson(std::string Name, std::string Scale, const ArgParse &Args);

  std::string Name;
  std::string Scale;
  int Repeat = 0; ///< which of N repeated runs this artifact records
  std::map<std::string, double> Metrics; ///< name-sorted for determinism

  void set(const std::string &Key, double Value) { Metrics[Key] = Value; }

  /// Copies every telemetry counter of the process into Metrics, skipping
  /// the `nn.forward.*` delta/full image counters.
  void addTelemetryCounters();

  /// Renders the artifact as a JSON document (trailing newline included).
  std::string render() const;

  /// Writes render() to \p Path. \returns true on success.
  bool write(const std::string &Path) const;

  /// Writes to \p Args's `--json-out` path when given. \returns false
  /// (after logging) only when the path was given but writing failed.
  bool writeFromArgs(const ArgParse &Args) const;
};

} // namespace oppsla

#endif // OPPSLA_SUPPORT_BENCHJSON_H
