//===- support/Trace.cpp - Structured JSONL event traces ---------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <random>

using namespace oppsla;
using namespace oppsla::telemetry;

namespace {

uint64_t monotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Thread-local so parallel sweep workers tag their events with their own
/// image id (see Trace.h).
thread_local int64_t CurrentImage = -1;

/// Thread-local ambient trace id (see TraceContextScope). A plain string:
/// set/read only by the owning thread.
thread_local std::string CurrentTraceId;

bool isHex(char C) {
  return (C >= '0' && C <= '9') || (C >= 'a' && C <= 'f') ||
         (C >= 'A' && C <= 'F');
}

char toLowerHex(char C) {
  return C >= 'A' && C <= 'F' ? static_cast<char>(C - 'A' + 'a') : C;
}

/// Copies \p N hex digits from \p S into \p Out (lower-cased). \returns
/// false on a non-hex digit or an all-zero field.
bool copyHexField(const std::string &S, size_t Pos, size_t N,
                  std::string &Out) {
  Out.clear();
  bool AllZero = true;
  for (size_t I = 0; I != N; ++I) {
    const char C = S[Pos + I];
    if (!isHex(C))
      return false;
    AllZero = AllZero && C == '0';
    Out += toLowerHex(C);
  }
  return !AllZero;
}

} // namespace

void TraceField::appendTo(std::string &Out) const {
  Out += '"';
  json::escape(Out, Key);
  Out += "\":";
  char Buf[32];
  switch (K) {
  case Kind::Str:
    Out += '"';
    json::escape(Out, Str);
    Out += '"';
    break;
  case Kind::Bool:
    Out += B ? "true" : "false";
    break;
  case Kind::Double:
    json::appendNumber(Out, D);
    break;
  case Kind::UInt:
    std::snprintf(Buf, sizeof(Buf), "%" PRIu64, U);
    Out += Buf;
    break;
  case Kind::Int:
    std::snprintf(Buf, sizeof(Buf), "%" PRId64, I);
    Out += Buf;
    break;
  }
}

std::atomic<bool> TraceWriter::EnabledFlag{false};

TraceWriter &TraceWriter::instance() {
  static TraceWriter W;
  return W;
}

TraceWriter::~TraceWriter() { close(); }

bool TraceWriter::open(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (File) {
    std::fclose(File);
    File = nullptr;
    EnabledFlag.store(false, std::memory_order_relaxed);
  }
  File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  StartNs = monotonicNowNs();
  Events.store(0, std::memory_order_relaxed);
  EnabledFlag.store(true, std::memory_order_relaxed);
  return true;
}

void TraceWriter::close() {
  std::lock_guard<std::mutex> Lock(Mu);
  EnabledFlag.store(false, std::memory_order_relaxed);
  if (File) {
    std::fflush(File);
    std::fclose(File);
    File = nullptr;
  }
}

void TraceWriter::event(const char *Type,
                        std::initializer_list<TraceField> Fields) {
  if (!enabled())
    return;
  // Compose the whole line outside the lock; one fwrite under it so
  // concurrent events never interleave.
  const uint64_t TsUs = (monotonicNowNs() - StartNs) / 1000;
  std::string Line;
  Line.reserve(96);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, TsUs);
  Line += "{\"ts_us\":";
  Line += Buf;
  Line += ",\"type\":\"";
  json::escape(Line, Type);
  Line += '"';
  // Stamp the ambient trace id (when a TraceContextScope is open on this
  // thread) so offline tooling can group a job's events across workers.
  if (!CurrentTraceId.empty()) {
    Line += ",\"trace\":\"";
    json::escape(Line, CurrentTraceId);
    Line += '"';
  }
  for (const TraceField &F : Fields) {
    Line += ',';
    F.appendTo(Line);
  }
  Line += "}\n";

  std::lock_guard<std::mutex> Lock(Mu);
  if (!File)
    return; // closed between the check and the lock
  std::fwrite(Line.data(), 1, Line.size(), File);
  Events.fetch_add(1, std::memory_order_relaxed);
}

void oppsla::telemetry::traceEvent(const char *Type,
                                   std::initializer_list<TraceField> Fields) {
  TraceWriter::instance().event(Type, Fields);
}

void oppsla::telemetry::setTraceImage(int64_t ImageId) {
  CurrentImage = ImageId;
}

int64_t oppsla::telemetry::traceImage() { return CurrentImage; }

std::string TraceContext::traceparent() const {
  return "00-" + TraceId + "-" + SpanId + "-01";
}

TraceContext oppsla::telemetry::mintTraceContext() {
  // std::random_device per call: minting happens once per submission, so
  // the construction cost is irrelevant, and no attack RNG stream is
  // touched (results stay pure functions of (seed, image)).
  std::random_device Rd;
  auto HexField = [&Rd](size_t Digits) {
    static const char Hex[] = "0123456789abcdef";
    std::string Out;
    Out.reserve(Digits);
    uint32_t Bits = 0;
    size_t Have = 0;
    bool AllZero = true;
    for (size_t I = 0; I != Digits; ++I) {
      if (Have == 0) {
        Bits = Rd();
        Have = 8;
      }
      const unsigned Nibble = Bits & 0xF;
      Bits >>= 4;
      --Have;
      AllZero = AllZero && Nibble == 0;
      Out += Hex[Nibble];
    }
    // The all-zero id is reserved as "absent" by the W3C format.
    if (AllZero)
      Out.back() = '1';
    return Out;
  };
  TraceContext Ctx;
  Ctx.TraceId = HexField(32);
  Ctx.SpanId = HexField(16);
  return Ctx;
}

bool oppsla::telemetry::parseTraceparent(const std::string &Header,
                                         TraceContext &Out) {
  // 00-<32 hex>-<16 hex>-<2 hex> = 55 characters.
  if (Header.size() != 55 || Header[2] != '-' || Header[35] != '-' ||
      Header[52] != '-')
    return false;
  if (!isHex(Header[0]) || !isHex(Header[1]) || !isHex(Header[53]) ||
      !isHex(Header[54]))
    return false;
  // Version ff is forbidden by the spec.
  if (toLowerHex(Header[0]) == 'f' && toLowerHex(Header[1]) == 'f')
    return false;
  TraceContext Ctx;
  if (!copyHexField(Header, 3, 32, Ctx.TraceId) ||
      !copyHexField(Header, 36, 16, Ctx.SpanId))
    return false;
  Out = std::move(Ctx);
  return true;
}

void oppsla::telemetry::setTraceContextId(const std::string &TraceId) {
  CurrentTraceId = TraceId;
}

const std::string &oppsla::telemetry::traceContextId() {
  return CurrentTraceId;
}
