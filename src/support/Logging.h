//===- support/Logging.h - Lightweight leveled logging ---------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny leveled logger. Long-running benches use it to narrate progress
/// (synthesis iterations, per-classifier sweeps) on stderr without polluting
/// the table output on stdout. The level is settable programmatically or via
/// the OPPSLA_LOG environment variable (error|warn|info|debug).
///
/// Every line — at every level, regardless of the stderr threshold — is also
/// recorded into a fixed-size ring (LogRecord) together with its level and
/// the calling thread's ambient trace id, so a running server can expose
/// its recent history live at `GET /logz?n=..&level=..`. Each slot has its
/// own mutex, and the write path does not allocate.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_SUPPORT_LOGGING_H
#define OPPSLA_SUPPORT_LOGGING_H

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace oppsla {

enum class LogLevel { Error = 0, Warn = 1, Info = 2, Debug = 3 };

/// Returns the process-wide log level (initialized from OPPSLA_LOG on first
/// use; defaults to Info).
LogLevel logLevel();

/// Overrides the process-wide log level.
void setLogLevel(LogLevel Level);

/// Human-readable level name: "error"|"warn"|"info"|"debug".
const char *logLevelName(LogLevel Level);

/// Parses a level name (same vocabulary as OPPSLA_LOG). \returns false on
/// unknown input, leaving \p Out untouched.
bool parseLogLevel(const std::string &Name, LogLevel &Out);

/// Emits one log line at \p Level: to stderr if at or above the process
/// threshold, and into the in-memory log ring unconditionally (the ring is
/// the live-debugging view, so it keeps debug lines even when stderr is
/// quiet).
void logLine(LogLevel Level, const std::string &Message);

/// One record captured from the log ring.
struct LogRecord {
  uint64_t Seq = 0;  ///< global sequence number (monotone across the run)
  uint64_t TsUs = 0; ///< microseconds since the first log line (steady clock)
  LogLevel Level = LogLevel::Info;
  std::string Trace;   ///< ambient trace id at emit time; "" when unset
  std::string Message; ///< possibly truncated to the ring's slot size
};

/// Copies the newest ring records, oldest first: at most \p MaxEntries
/// records whose level is at or above \p MaxLevel in severity (i.e.
/// numerically <= MaxLevel — MaxLevel=Debug returns everything). Lock-free
/// on both sides; records overwritten mid-copy are skipped, never torn.
std::vector<LogRecord> logRingSnapshot(size_t MaxEntries, LogLevel MaxLevel);

/// Renders logRingSnapshot() as JSONL, one
/// `{"seq":..,"ts_us":..,"level":"..","trace":"..","msg":".."}` per line
/// (the "trace" key is omitted for records without one).
std::string logRingJsonl(size_t MaxEntries, LogLevel MaxLevel);

namespace detail {
/// Stream-style log statement builder; flushes one line on destruction.
class LogStream {
public:
  explicit LogStream(LogLevel Level) : Level(Level) {}
  ~LogStream() { logLine(Level, Buffer.str()); }
  LogStream(const LogStream &) = delete;
  LogStream &operator=(const LogStream &) = delete;

  template <typename T> LogStream &operator<<(const T &Value) {
    Buffer << Value;
    return *this;
  }

private:
  LogLevel Level;
  std::ostringstream Buffer;
};
} // namespace detail

/// Usage: `logInfo() << "trained " << Name << " acc=" << Acc;`
inline detail::LogStream logError() {
  return detail::LogStream(LogLevel::Error);
}
inline detail::LogStream logWarn() { return detail::LogStream(LogLevel::Warn); }
inline detail::LogStream logInfo() { return detail::LogStream(LogLevel::Info); }
inline detail::LogStream logDebug() {
  return detail::LogStream(LogLevel::Debug);
}

} // namespace oppsla

#endif // OPPSLA_SUPPORT_LOGGING_H
