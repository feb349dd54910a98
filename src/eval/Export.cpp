//===- eval/Export.cpp - CSV export of evaluation results --------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/Export.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <set>

using namespace oppsla;

namespace {

const char *outcomeName(const AttackRunLog &Log) {
  return Log.Discarded ? "discarded" : Log.Success ? "success" : "failure";
}

} // namespace

bool oppsla::exportRunLogsCsv(const std::vector<AttackRunLog> &Logs,
                              const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("label,outcome,queries\n", F);
  for (const AttackRunLog &Log : Logs)
    std::fprintf(F, "%zu,%s,%llu\n", Log.Label, outcomeName(Log),
                 static_cast<unsigned long long>(Log.Queries));
  std::fclose(F);
  return true;
}

bool oppsla::exportSuccessCurveCsv(const std::vector<AttackRunLog> &Logs,
                                   uint64_t MaxBudget,
                                   const std::string &Path) {
  // Sample points: every power-of-two-ish step plus each exact success
  // time, so the curve's jumps are all represented.
  std::set<uint64_t> Budgets;
  for (uint64_t B = 1; B <= MaxBudget; B = std::max(B + 1, B + B / 4))
    Budgets.insert(B);
  Budgets.insert(MaxBudget);
  for (const AttackRunLog &Log : Logs)
    if (Log.Success && !Log.Discarded && Log.Queries <= MaxBudget)
      Budgets.insert(Log.Queries);

  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("budget,success_rate\n", F);
  for (uint64_t B : Budgets)
    std::fprintf(F, "%llu,%.6f\n", static_cast<unsigned long long>(B),
                 successRateAt(Logs, B));
  std::fclose(F);
  return true;
}

bool oppsla::exportRunLogsJsonl(const std::vector<AttackRunLog> &Logs,
                                const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I != Logs.size(); ++I) {
    const AttackRunLog &Log = Logs[I];
    std::fprintf(F,
                 "{\"image\":%zu,\"label\":%zu,\"outcome\":\"%s\","
                 "\"queries\":%llu}\n",
                 I, Log.Label, outcomeName(Log),
                 static_cast<unsigned long long>(Log.Queries));
  }
  std::fclose(F);
  return true;
}

bool oppsla::exportSynthesisTraceJsonl(
    const std::vector<SynthesisStep> &Steps, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const SynthesisStep &Step : Steps) {
    std::string Line = "{\"iter\":";
    Line += std::to_string(Step.Iteration);
    Line += ",\"accepted\":";
    Line += Step.Accepted ? "true" : "false";
    Line += ",\"avg_queries\":";
    json::appendNumber(Line, Step.AvgQueries);
    Line += ",\"cum_queries\":";
    Line += std::to_string(Step.CumulativeQueries);
    Line += ",\"program\":\"";
    json::escape(Line, Step.Current.str());
    Line += "\"}\n";
    std::fwrite(Line.data(), 1, Line.size(), F);
  }
  std::fclose(F);
  return true;
}
