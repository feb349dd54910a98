//===- support/Logging.cpp - Lightweight leveled logging -----------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Logging.h"

#include "support/Json.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

using namespace oppsla;

namespace {

LogLevel parseEnvLevel() {
  const char *Env = std::getenv("OPPSLA_LOG");
  if (!Env)
    return LogLevel::Info;
  if (!std::strcmp(Env, "error"))
    return LogLevel::Error;
  if (!std::strcmp(Env, "warn"))
    return LogLevel::Warn;
  if (!std::strcmp(Env, "info"))
    return LogLevel::Info;
  if (!std::strcmp(Env, "debug"))
    return LogLevel::Debug;
  // Unrecognized values used to be silently treated as Info; warn once so
  // typos like OPPSLA_LOG=Debug don't go unnoticed.
  std::fprintf(stderr,
               "[oppsla:warn] unrecognized OPPSLA_LOG value '%s' "
               "(expected error|warn|info|debug); using info\n",
               Env);
  return LogLevel::Info;
}

LogLevel &currentLevel() {
  static LogLevel Level = parseEnvLevel();
  return Level;
}

const char *levelTag(LogLevel Level) {
  switch (Level) {
  case LogLevel::Error:
    return "error";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Info:
    return "info";
  case LogLevel::Debug:
    return "debug";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// The log ring: a fixed array of mutex-guarded slots
//===----------------------------------------------------------------------===//
//
// Writers claim a global ticket with one fetch_add, then write the payload
// of slot ticket % RingSlots under that slot's mutex, stamping Seq =
// ticket + 1. Readers copy a slot under the same mutex and keep it only if
// its Seq is the ticket they want. A writer lapped by a newer ticket for
// the same slot (it stalled between its fetch_add and the lock) finds a
// larger Seq and drops its record, so it never overwrites a newer one.
// Writers only contend when a reader or a lapping writer holds the same
// slot; there is no allocation on the write path.

constexpr size_t RingSlots = 1024; // power of two
constexpr size_t RingMsgBytes = 240;

struct RingSlot {
  std::mutex Mu;    // guards every field below
  uint64_t Seq = 0; // ticket + 1 of the record held; 0 = never written
  uint64_t TsUs = 0;
  uint8_t Level = 0;
  uint8_t TraceLen = 0;
  uint16_t MsgLen = 0;
  char Trace[32];
  char Msg[RingMsgBytes];
};

RingSlot Ring[RingSlots];
std::atomic<uint64_t> RingCursor{0};

/// Microseconds since the first log line of the process (steady clock, so
/// ring timestamps are comparable to trace-span timestamps).
uint64_t ringNowUs() {
  static const std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

void ringRecord(LogLevel Level, const std::string &Message) {
  const uint64_t TsUs = ringNowUs();
  const std::string &Trace = telemetry::traceContextId();
  const uint64_t Ticket =
      RingCursor.fetch_add(1, std::memory_order_relaxed);
  RingSlot &S = Ring[Ticket & (RingSlots - 1)];
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (S.Seq > Ticket + 1)
    return; // lapped: the slot already holds a newer record
  S.Seq = Ticket + 1;
  S.TsUs = TsUs;
  S.Level = static_cast<uint8_t>(Level);
  S.TraceLen =
      static_cast<uint8_t>(std::min(Trace.size(), sizeof(S.Trace)));
  std::memcpy(S.Trace, Trace.data(), S.TraceLen);
  S.MsgLen = static_cast<uint16_t>(std::min(Message.size(), RingMsgBytes));
  std::memcpy(S.Msg, Message.data(), S.MsgLen);
}

} // namespace

LogLevel oppsla::logLevel() { return currentLevel(); }

void oppsla::setLogLevel(LogLevel Level) { currentLevel() = Level; }

const char *oppsla::logLevelName(LogLevel Level) { return levelTag(Level); }

bool oppsla::parseLogLevel(const std::string &Name, LogLevel &Out) {
  for (LogLevel L : {LogLevel::Error, LogLevel::Warn, LogLevel::Info,
                     LogLevel::Debug}) {
    if (Name == levelTag(L)) {
      Out = L;
      return true;
    }
  }
  return false;
}

std::vector<LogRecord> oppsla::logRingSnapshot(size_t MaxEntries,
                                               LogLevel MaxLevel) {
  std::vector<LogRecord> Out;
  if (MaxEntries == 0)
    return Out;
  const uint64_t Cursor = RingCursor.load(std::memory_order_acquire);
  const uint64_t Floor = Cursor > RingSlots ? Cursor - RingSlots : 0;
  // Newest first, so the MaxEntries cap keeps the most recent lines;
  // reversed before returning.
  for (uint64_t T = Cursor; T-- > Floor;) {
    RingSlot &S = Ring[T & (RingSlots - 1)];
    LogRecord R;
    {
      std::lock_guard<std::mutex> Lock(S.Mu);
      if (S.Seq != T + 1)
        continue; // never written, not yet written, or already lapped
      R.Seq = T;
      R.TsUs = S.TsUs;
      R.Level = static_cast<LogLevel>(S.Level);
      R.Trace.assign(S.Trace, S.TraceLen);
      R.Message.assign(S.Msg, S.MsgLen);
    }
    if (static_cast<int>(R.Level) > static_cast<int>(MaxLevel))
      continue;
    Out.push_back(std::move(R));
    if (Out.size() == MaxEntries)
      break;
  }
  std::reverse(Out.begin(), Out.end());
  return Out;
}

std::string oppsla::logRingJsonl(size_t MaxEntries, LogLevel MaxLevel) {
  std::string Out;
  for (const LogRecord &R : logRingSnapshot(MaxEntries, MaxLevel)) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "{\"seq\":%" PRIu64 ",\"ts_us\":%" PRIu64,
                  R.Seq, R.TsUs);
    Out += Buf;
    Out += ",\"level\":\"";
    Out += levelTag(R.Level);
    Out += '"';
    if (!R.Trace.empty()) {
      Out += ",\"trace\":\"";
      json::escape(Out, R.Trace);
      Out += '"';
    }
    Out += ",\"msg\":\"";
    json::escape(Out, R.Message);
    Out += "\"}\n";
  }
  return Out;
}

void oppsla::logLine(LogLevel Level, const std::string &Message) {
  // The ring sees every line (it is the live-debugging view); the stderr
  // threshold only gates the terminal.
  ringRecord(Level, Message);
  if (static_cast<int>(Level) > static_cast<int>(currentLevel()))
    return;
  // Compose the full line, then emit it with a single fwrite under a
  // mutex so concurrent callers never interleave fragments.
  std::string Line;
  Line.reserve(Message.size() + 16);
  Line += "[oppsla:";
  Line += levelTag(Level);
  Line += "] ";
  Line += Message;
  Line += '\n';
  static std::mutex Mu;
  std::lock_guard<std::mutex> Lock(Mu);
  std::fwrite(Line.data(), 1, Line.size(), stderr);
}
