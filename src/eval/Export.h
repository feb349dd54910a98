//===- eval/Export.h - CSV export of evaluation results ---------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CSV and JSONL writers for the evaluation artifacts, so the bench
/// output can be re-plotted outside this repository (the paper's figures
/// are line/bar plots over exactly these series). The JSONL writers use
/// the same record shapes as the telemetry trace events, so offline
/// tooling handles live traces and exported artifacts identically.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_EVAL_EXPORT_H
#define OPPSLA_EVAL_EXPORT_H

#include "core/Synthesizer.h"
#include "eval/Evaluation.h"

#include <string>

namespace oppsla {

/// Writes one row per attacked image: label, outcome
/// (success|failure|discarded), queries. \returns true on success.
bool exportRunLogsCsv(const std::vector<AttackRunLog> &Logs,
                      const std::string &Path);

/// Writes the success-rate curve success(q) for q in 1..\p MaxBudget at
/// logarithmically spaced sample points (plus every exact success time),
/// one row per budget. \returns true on success.
bool exportSuccessCurveCsv(const std::vector<AttackRunLog> &Logs,
                           uint64_t MaxBudget, const std::string &Path);

/// Writes one JSON object per attacked image:
/// {"image":i,"label":l,"outcome":"...","queries":q}. \returns true on
/// success.
bool exportRunLogsJsonl(const std::vector<AttackRunLog> &Logs,
                        const std::string &Path);

/// Writes one JSON object per synthesis trace step, i.e. per round of the
/// elite trajectory (the raw series behind Figure 4):
/// {"iter":i,"accepted":b,"avg_queries":a,"cum_queries":q,
/// "program":"..."}. \returns true on success.
bool exportSynthesisTraceJsonl(const std::vector<SynthesisStep> &Steps,
                               const std::string &Path);

} // namespace oppsla

#endif // OPPSLA_EVAL_EXPORT_H
