//===- perfbench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span model. Spans are recorded only from the
/// benchmark's own files, around the calls it makes into each layer; they
/// live in per-thread buffers in memory and are written out once, as
/// Chrome Trace JSON, when the run ends. Every span carries the id of the
/// image or job it belongs to and the (attack, victim) context it ran in.
///
/// Self time is a span's duration minus the time its child spans cover;
/// children open and close inside their parent on the same thread, so
/// their durations never overlap.
///
/// Recording is off unless setRecording(true): an untraced run pays one
/// relaxed load per ScopedSpan.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span, as collect() returns it.
struct Span {
  const char *Name = "";  ///< a string literal
  uint64_t Id = 0;        ///< image or job id
  uint64_t StartNs = 0;   ///< steady clock
  uint64_t EndNs = 0;
  uint64_t SelfNs = 0;    ///< duration minus child coverage
  uint32_t Count = 0;     ///< work items (images forwarded, ...)
  uint32_t Tid = 0;       ///< recording thread (1-based)
  int32_t Depth = 0;      ///< nesting depth on its thread (0 = root)
  int16_t Attack = -1;    ///< workload-defined context tags
  int16_t Victim = -1;

  double seconds() const { return static_cast<double>(EndNs - StartNs) * 1e-9; }
  double selfSeconds() const { return static_cast<double>(SelfNs) * 1e-9; }
};

uint64_t nowNs();

void setRecording(bool On);
bool recording();

/// Sets this thread's context, stamped on every span it opens next.
void setSpanContext(uint64_t Id, int Attack, int Victim);

/// Opens a span on construction and closes it on destruction; a no-op when
/// recording is off.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, uint32_t Count = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  int64_t Slot = -1;
};

/// Adds a span measured elsewhere (a server-side job phase) on lane \p Tid.
void addExternalSpan(const char *Name, uint64_t Id, uint64_t StartNs,
                     uint64_t EndNs, uint32_t Tid);

/// Every closed span recorded since the last reset, with SelfNs filled.
std::vector<Span> collect();

/// Drops every recorded span.
void resetSpans();

/// Percent of [\p BeginNs, \p EndNs) that no span covers.
double uncoveredPct(const std::vector<Span> &Spans, uint64_t BeginNs,
                    uint64_t EndNs);

/// Writes \p Spans as Chrome Trace JSON, timestamps relative to
/// \p OriginNs. \p Host is stored under "otherData". \returns false on an
/// I/O error.
bool writeChromeTrace(const std::string &Path, const std::vector<Span> &Spans,
                      uint64_t OriginNs, const std::string &Host);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
