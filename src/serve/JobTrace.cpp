//===- serve/JobTrace.cpp - Per-job phase timelines --------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/JobTrace.h"

#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>

using namespace oppsla;
using namespace oppsla::serve;

namespace {

std::atomic<bool> JobTracingFlag{true};

/// Phases a one-shard sweep job records: queued, setup, shard,
/// checkpoint, finalize and its terminal instant.
constexpr size_t OneShardJobPhases = 6;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

void serve::setJobTracingEnabled(bool Enabled) {
  JobTracingFlag.store(Enabled, std::memory_order_relaxed);
}

bool serve::jobTracingEnabled() {
  return JobTracingFlag.load(std::memory_order_relaxed);
}

JobTrace::JobTrace(uint64_t JobId, telemetry::TraceContext Ctx)
    : JobId(JobId), TraceId(std::move(Ctx.TraceId)), CreatedNs(nowNs()) {
  Phases.reserve(OneShardJobPhases);
}

uint64_t JobTrace::beginPhase(const char *Name, int64_t Shard) {
  const uint64_t StartNs = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  Phases.push_back({Name, StartNs, 0, static_cast<int32_t>(Shard), false});
  return Phases.size(); // index + 1, so 0 stays invalid
}

uint64_t JobTrace::endPhase(uint64_t Token) {
  const uint64_t EndNs = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  if (Token == 0 || Token > Phases.size())
    return 0;
  Phase &P = Phases[Token - 1];
  if (P.EndNs != 0 || P.Instant)
    return 0;
  P.EndNs = std::max(EndNs, P.StartNs);
  return P.EndNs - P.StartNs;
}

void JobTrace::instant(const char *Name, int64_t Shard) {
  const uint64_t TsNs = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  Phases.push_back({Name, TsNs, TsNs, static_cast<int32_t>(Shard), true});
  // Instants mark the end of a job's timeline: keep exactly what it
  // recorded for as long as the finished job stays fetchable.
  Phases.shrink_to_fit();
}

std::string JobTrace::chromeTraceJson() const {
  const uint64_t Now = nowNs();
  std::vector<Phase> Snapshot;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Snapshot = Phases;
  }
  // Chrome's JSON importer tolerates out-of-order events, but a timeline
  // sorted by start keeps the document diffable and lets the schema
  // checker assert per-thread ts monotonicity.
  std::stable_sort(Snapshot.begin(), Snapshot.end(),
                   [](const Phase &A, const Phase &B) {
                     return A.StartNs < B.StartNs;
                   });

  std::string Out = "{\"traceEvents\":[";
  // Metadata first: name the process and this job's "thread".
  Out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
         std::to_string(JobId) +
         ",\"args\":{\"name\":\"oppsla-serve\"}},";
  Out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
         std::to_string(JobId) + ",\"args\":{\"name\":\"job " +
         std::to_string(JobId) + "\"}}";

  char Buf[64];
  for (const Phase &P : Snapshot) {
    // Clamp to the timeline origin: a phase can begin on another thread
    // nanoseconds before CreatedNs is visible, never meaningfully so.
    const uint64_t StartNs = std::max(P.StartNs, CreatedNs);
    const uint64_t TsUs = (StartNs - CreatedNs) / 1000;
    Out += ",{\"name\":\"";
    json::escape(Out, P.Name);
    Out += "\",\"cat\":\"job\",\"ph\":\"";
    Out += P.Instant ? "i" : "X";
    Out += "\"";
    std::snprintf(Buf, sizeof(Buf), ",\"ts\":%" PRIu64, TsUs);
    Out += Buf;
    if (!P.Instant) {
      const uint64_t EndNs =
          std::max(P.EndNs == 0 ? Now : P.EndNs, StartNs);
      std::snprintf(Buf, sizeof(Buf), ",\"dur\":%" PRIu64,
                    (EndNs - StartNs) / 1000);
      Out += Buf;
    } else {
      Out += ",\"s\":\"t\"";
    }
    Out += ",\"pid\":1,\"tid\":" + std::to_string(JobId) +
           ",\"args\":{\"trace_id\":\"" + TraceId + "\"";
    if (P.Shard >= 0)
      Out += ",\"shard\":" + std::to_string(P.Shard);
    if (P.EndNs == 0 && !P.Instant)
      Out += ",\"open\":true";
    Out += "}}";
  }
  Out += "],\"displayTimeUnit\":\"ms\"}";
  return Out;
}
