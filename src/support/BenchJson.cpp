//===- support/BenchJson.cpp - Standard bench result artifact ----------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BenchJson.h"

#include "support/ArgParse.h"
#include "support/Json.h"
#include "support/Ledger.h"
#include "support/Logging.h"
#include "support/Metrics.h"

#include <cstdio>

using namespace oppsla;

BenchJson::BenchJson(std::string Name, std::string Scale,
                     const ArgParse &Args)
    : Name(std::move(Name)), Scale(std::move(Scale)),
      Repeat(static_cast<int>(Args.getInt("repeat", 0))) {}

void BenchJson::addTelemetryCounters() {
  const std::string Skip = "nn.forward.";
  for (const auto &[Name, Value] :
       telemetry::MetricsRegistry::instance().counterValues()) {
    if (Name.compare(0, Skip.size(), Skip) == 0)
      continue;
    Metrics[Name] = static_cast<double>(Value);
  }
}

std::string BenchJson::render() const {
  char Head[64];
  std::snprintf(Head, sizeof(Head), "{\"schema\":%d,\"name\":\"",
                kBenchSchemaVersion);
  std::string Out = Head;
  json::escape(Out, Name);
  Out += "\",\"scale\":\"";
  json::escape(Out, Scale);
  std::snprintf(Head, sizeof(Head), "\",\"repeat\":%d,\"metrics\":{",
                Repeat);
  Out += Head;
  bool First = true;
  for (const auto &[Key, Value] : Metrics) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    json::escape(Out, Key);
    Out += "\":";
    json::appendNumber(Out, Value);
  }
  Out += "}}\n";
  return Out;
}

bool BenchJson::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const std::string Json = render();
  const size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  return Written == Json.size() && std::fclose(F) == 0;
}

bool BenchJson::writeFromArgs(const ArgParse &Args) const {
  const std::string Path = Args.get("json-out", "");
  if (Path.empty())
    return true;
  if (!write(Path)) {
    logError() << "cannot write --json-out " << Path;
    return false;
  }
  return true;
}
