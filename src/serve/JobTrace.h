//===- serve/JobTrace.h - Per-job phase timelines ---------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-job causal timeline behind `GET /v1/jobs/<id>/trace`. Every
/// admitted job (when job tracing is enabled) owns a JobTrace: the trace
/// id of the W3C context the client minted (or the server minted on its
/// behalf) plus a list of timestamped phase spans recorded as the job crosses
/// subsystem boundaries — queued, setup, shard[i], checkpoint, finalize —
/// and terminal instants (done / cancelled / suspended / failed).
///
/// The timeline exports as Chrome Trace Event JSON (chrome://tracing,
/// Perfetto): one "thread" per job (tid = job id), spans as complete "X"
/// events in microseconds relative to job admission. Open phases render
/// with duration up to now, so a running or cancelled job's partial trace
/// is fetchable at any time.
///
/// Tracing is observability only: phase recording takes a per-job mutex on
/// cold paths (phase boundaries are per-shard, not per-query) and never
/// touches attack RNG streams or result bytes.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_SERVE_JOBTRACE_H
#define OPPSLA_SERVE_JOBTRACE_H

#include "support/Trace.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace oppsla {
namespace serve {

/// Process-wide job-tracing gate. Serve mode enables it by default
/// (`--no-job-trace` opts out); benches toggle it to measure overhead.
void setJobTracingEnabled(bool Enabled);
bool jobTracingEnabled();

/// One job's phase timeline. Thread-safe: the runner worker records
/// phases while the HTTP thread renders snapshots.
class JobTrace {
public:
  /// Keeps the trace id of \p Ctx, the part of the context the timeline
  /// renders and the job status reports.
  JobTrace(uint64_t JobId, telemetry::TraceContext Ctx);

  uint64_t jobId() const { return JobId; }
  const std::string &traceId() const { return TraceId; }

  /// Opens a phase span named \p Name (a literal or interned string).
  /// \p Shard >= 0 tags shard-scoped phases with their shard index.
  /// \returns a token for endPhase(); 0 is never a valid token.
  uint64_t beginPhase(const char *Name, int64_t Shard = -1);

  /// Closes the span behind \p Token (token 0 or an already-closed token
  /// is a no-op). \returns the span's duration in nanoseconds (0 for
  /// no-ops) so callers can feed duration histograms from the same clock
  /// reads.
  uint64_t endPhase(uint64_t Token);

  /// Records a zero-duration instant event (terminal markers: done,
  /// cancelled at shard \p Shard, suspended, failed).
  void instant(const char *Name, int64_t Shard = -1);

  /// Renders the timeline as a Chrome Trace Event JSON document
  /// (`{"traceEvents":[...]}`). Open phases get a duration up to now.
  /// Events are ordered by timestamp, metadata first.
  std::string chromeTraceJson() const;

  JobTrace(const JobTrace &) = delete;
  JobTrace &operator=(const JobTrace &) = delete;

private:
  struct Phase {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs; ///< 0 while open
    int32_t Shard;  ///< -1 = not shard-scoped
    bool Instant;
  };

  const uint64_t JobId;
  const std::string TraceId;
  const uint64_t CreatedNs; ///< admission time; the timeline's origin

  mutable std::mutex Mu;
  std::vector<Phase> Phases;
};

} // namespace serve
} // namespace oppsla

#endif // OPPSLA_SERVE_JOBTRACE_H
