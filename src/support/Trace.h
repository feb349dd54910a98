//===- support/Trace.h - Structured JSONL event traces ---------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead structured event trace: one JSON object per line
/// (JSONL), written through a process-wide TraceWriter. Events carry a
/// monotonic timestamp (microseconds since the trace was opened), a type
/// tag, and arbitrary typed fields.
///
/// Query-level attack telemetry is the paper's raw data (queries to the
/// classifier are the central metric), so the hot-path cost when tracing
/// is *disabled* must be a single relaxed atomic load. Callers on hot
/// paths therefore guard field construction:
///
///   if (telemetry::traceEnabled())
///     telemetry::traceEvent("query", {{"idx", Count}, {"margin", M}});
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_SUPPORT_TRACE_H
#define OPPSLA_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>

namespace oppsla {
namespace telemetry {

/// One typed key/value field of a trace event.
class TraceField {
public:
  TraceField(const char *Key, const char *V)
      : Key(Key), K(Kind::Str), Str(V) {}
  TraceField(const char *Key, const std::string &V)
      : Key(Key), K(Kind::Str), Str(V) {}
  TraceField(const char *Key, bool V) : Key(Key), K(Kind::Bool), B(V) {}
  TraceField(const char *Key, double V) : Key(Key), K(Kind::Double), D(V) {}
  TraceField(const char *Key, uint64_t V) : Key(Key), K(Kind::UInt), U(V) {}
  TraceField(const char *Key, int64_t V) : Key(Key), K(Kind::Int), I(V) {}
  TraceField(const char *Key, int V)
      : Key(Key), K(Kind::Int), I(static_cast<int64_t>(V)) {}

  /// Appends `"key":value` to \p Out.
  void appendTo(std::string &Out) const;

private:
  enum class Kind { Str, Bool, Double, UInt, Int };
  const char *Key;
  Kind K;
  std::string Str;
  bool B = false;
  double D = 0.0;
  uint64_t U = 0;
  int64_t I = 0;
};

/// Process-wide JSONL event sink. Disabled (no-op) until open() succeeds.
class TraceWriter {
public:
  static TraceWriter &instance();

  /// Opens (truncates) \p Path and enables tracing. \returns false and
  /// leaves tracing disabled if the file cannot be created.
  bool open(const std::string &Path);

  /// Flushes and closes the sink; tracing becomes disabled again.
  void close();

  /// The no-op fast path: one relaxed atomic load.
  static bool enabled() {
    return EnabledFlag.load(std::memory_order_relaxed);
  }

  /// Emits one event line `{"ts_us":...,"type":...,<fields>}`. No-op when
  /// disabled. Safe for concurrent callers (one line per call, never
  /// interleaved).
  void event(const char *Type, std::initializer_list<TraceField> Fields);

  /// Number of events written since the last open().
  uint64_t eventsWritten() const {
    return Events.load(std::memory_order_relaxed);
  }

  TraceWriter(const TraceWriter &) = delete;
  TraceWriter &operator=(const TraceWriter &) = delete;

private:
  TraceWriter() = default;
  ~TraceWriter();

  static std::atomic<bool> EnabledFlag;
  std::mutex Mu;
  std::FILE *File = nullptr;
  std::atomic<uint64_t> Events{0};
  uint64_t StartNs = 0;
};

/// True when the process-wide trace sink is open.
inline bool traceEnabled() { return TraceWriter::enabled(); }

/// Convenience forwarder to TraceWriter::instance().event().
void traceEvent(const char *Type, std::initializer_list<TraceField> Fields);

//===----------------------------------------------------------------------===//
// Trace context: W3C-style traceparent propagation
//===----------------------------------------------------------------------===//

/// A W3C-style trace context: a 32-hex-digit trace id naming the causal
/// chain end to end, and a 16-hex-digit span id naming the hop that minted
/// or forwarded it. `oppsla client` mints one per submission and sends it
/// as a `traceparent` HTTP header; the serve subsystem adopts it and stamps
/// it on every phase span, log record, and JSONL trace event the job emits.
struct TraceContext {
  std::string TraceId; ///< 32 lower-case hex digits, not all zero
  std::string SpanId;  ///< 16 lower-case hex digits, not all zero

  bool valid() const { return TraceId.size() == 32 && SpanId.size() == 16; }

  /// Renders `00-<trace-id>-<span-id>-01` (version 00, sampled flag set).
  std::string traceparent() const;
};

/// Mints a fresh random context. Randomness comes from std::random_device,
/// never from an attack RNG stream — minting a trace id cannot perturb any
/// result byte.
TraceContext mintTraceContext();

/// Parses a `traceparent` header value (`00-<32 hex>-<16 hex>-<2 hex>`,
/// case-insensitive input, normalized to lower case). \returns false on
/// malformed input or the all-zero trace/span ids the spec forbids.
bool parseTraceparent(const std::string &Header, TraceContext &Out);

/// Ambient trace id for the calling thread: stamped as a `"trace"` field
/// onto every JSONL trace event and log-ring record the thread emits while
/// set. Empty string = unset.
void setTraceContextId(const std::string &TraceId);
const std::string &traceContextId();

/// RAII ambient trace id (same save/restore discipline as
/// TraceImageScope): workers adopt the submitting job's id for the span of
/// a sweep and restore on exit, exceptions included.
class TraceContextScope {
public:
  TraceContextScope() : Saved(traceContextId()) {}
  explicit TraceContextScope(const std::string &TraceId)
      : TraceContextScope() {
    setTraceContextId(TraceId);
  }
  ~TraceContextScope() { setTraceContextId(Saved); }

  TraceContextScope(const TraceContextScope &) = delete;
  TraceContextScope &operator=(const TraceContextScope &) = delete;

private:
  std::string Saved;
};

/// Ambient trace context: the index of the image currently under attack,
/// stamped onto query and attack-span events by the emitters so individual
/// attacks/queries can be grouped offline. -1 when unset.
///
/// The value is thread-local: parallel sweep workers each publish their own
/// image id, so events emitted concurrently are tagged with the image their
/// thread is actually attacking (a process-global id would interleave).
void setTraceImage(int64_t ImageId);
int64_t traceImage();

/// RAII ambient image id: saves the calling thread's current id on
/// construction and restores it on destruction, so nested sweeps (e.g.
/// synthesis inside eval) and early exits — including exceptions — never
/// leak an id into the enclosing scope.
class TraceImageScope {
public:
  TraceImageScope() : Saved(traceImage()) {}
  explicit TraceImageScope(int64_t ImageId) : TraceImageScope() {
    setTraceImage(ImageId);
  }
  ~TraceImageScope() { setTraceImage(Saved); }

  TraceImageScope(const TraceImageScope &) = delete;
  TraceImageScope &operator=(const TraceImageScope &) = delete;

  /// Publishes \p I as the current thread's image id.
  void set(size_t I) { setTraceImage(static_cast<int64_t>(I)); }

private:
  int64_t Saved;
};

} // namespace telemetry
} // namespace oppsla

#endif // OPPSLA_SUPPORT_TRACE_H
