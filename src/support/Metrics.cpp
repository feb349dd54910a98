//===- support/Metrics.cpp - Process-wide metrics registry -------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/ArgParse.h"
#include "support/HwCounters.h"
#include "support/Json.h"
#include "support/Ledger.h"
#include "support/Logging.h"
#include "support/Profiler.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace oppsla;
using namespace oppsla::telemetry;

namespace {

/// fetch_add for atomic<double> via CAS (atomic<double>::fetch_add is
/// C++20 but not universally lock-free-optimized; this is portable).
void atomicAdd(std::atomic<double> &A, double Delta) {
  double Cur = A.load(std::memory_order_relaxed);
  while (!A.compare_exchange_weak(Cur, Cur + Delta,
                                  std::memory_order_relaxed))
    ;
}

void appendUInt(std::string &Out, uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, V);
  Out += Buf;
}

/// Path for the deferred --metrics-out snapshot (finalizeTelemetry()).
std::string &pendingMetricsPath() {
  static std::string Path;
  return Path;
}

/// Path for the deferred --profile-out folded stacks.
std::string &pendingProfilePath() {
  static std::string Path;
  return Path;
}

/// Labels for the oppsla_run_info exposition metric.
struct RunInfoMap {
  std::mutex Mu;
  std::map<std::string, std::string> KV;
};

RunInfoMap &runInfo() {
  static RunInfoMap M;
  return M;
}

/// Maps a dotted instrument name onto the Prometheus charset
/// ([a-zA-Z0-9_]) under the oppsla_ namespace prefix.
std::string sanitizeMetricName(const std::string &Name) {
  std::string Out = "oppsla_";
  for (char C : Name) {
    const bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                    (C >= '0' && C <= '9') || C == '_';
    Out += Ok ? C : '_';
  }
  return Out;
}

std::string sanitizeLabelName(const std::string &Name) {
  std::string Out;
  for (char C : Name) {
    const bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                    (C >= '0' && C <= '9') || C == '_';
    Out += Ok ? C : '_';
  }
  if (Out.empty() || (Out[0] >= '0' && Out[0] <= '9'))
    Out.insert(Out.begin(), '_');
  return Out;
}

/// Prometheus label values escape backslash, double quote and newline.
void appendPromLabelEscaped(std::string &Out, const std::string &V) {
  for (char C : V) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
}

/// Sample values in the exposition format: non-finite spells NaN/+Inf/-Inf
/// (JSON's null is not valid there).
void appendPromDouble(std::string &Out, double V) {
  if (std::isnan(V)) {
    Out += "NaN";
    return;
  }
  if (std::isinf(V)) {
    Out += V > 0 ? "+Inf" : "-Inf";
    return;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  Out += Buf;
}

} // namespace

Histogram::Histogram(std::vector<double> UpperBounds)
    : Bounds(std::move(UpperBounds)),
      Buckets(new std::atomic<uint64_t>[Bounds.size() + 1]) {
  assert(!Bounds.empty() && "histogram needs at least one bound");
  assert(std::is_sorted(Bounds.begin(), Bounds.end()) &&
         std::adjacent_find(Bounds.begin(), Bounds.end()) == Bounds.end() &&
         "bounds must be strictly increasing");
  for (size_t I = 0; I != Bounds.size() + 1; ++I)
    Buckets[I].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double X) {
  const auto It = std::lower_bound(Bounds.begin(), Bounds.end(), X);
  const size_t Idx = static_cast<size_t>(It - Bounds.begin());
  Buckets[Idx].fetch_add(1, std::memory_order_relaxed);
  N.fetch_add(1, std::memory_order_relaxed);
  atomicAdd(Sum, X);
}

double Histogram::mean() const {
  const uint64_t C = count();
  return C == 0 ? 0.0 : sum() / static_cast<double>(C);
}

uint64_t Histogram::bucketCount(size_t I) const {
  assert(I < numBuckets() && "bucket index out of range");
  return Buckets[I].load(std::memory_order_relaxed);
}

double Histogram::quantile(double Q) const {
  const uint64_t C = count();
  if (C == 0)
    return 0.0;
  Q = std::min(1.0, std::max(0.0, Q));
  const double Rank = Q * static_cast<double>(C);
  double Cum = 0.0;
  for (size_t I = 0; I != Bounds.size(); ++I) {
    const double InBucket =
        static_cast<double>(Buckets[I].load(std::memory_order_relaxed));
    if (InBucket > 0.0 && Cum + InBucket >= Rank) {
      // Linear interpolation between the bucket's edges; the first
      // bucket's lower edge is 0 (all recorded quantities are
      // non-negative: queries, seconds, batch sizes).
      const double Lower = I == 0 ? 0.0 : Bounds[I - 1];
      return Lower + (Bounds[I] - Lower) * (Rank - Cum) / InBucket;
    }
    Cum += InBucket;
  }
  // The rank falls in the overflow bucket, whose extent is unknown.
  return Bounds.back();
}

std::vector<double> oppsla::telemetry::exponentialBuckets(double Start,
                                                          double Factor,
                                                          size_t Count) {
  assert(Start > 0.0 && Factor > 1.0 && Count > 0 && "degenerate buckets");
  std::vector<double> Bounds;
  Bounds.reserve(Count);
  double B = Start;
  for (size_t I = 0; I != Count; ++I, B *= Factor)
    Bounds.push_back(B);
  return Bounds;
}

MetricsRegistry &MetricsRegistry::instance() {
  static MetricsRegistry R;
  return R;
}

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &MetricsRegistry::histogram(const std::string &Name,
                                      std::vector<double> UpperBounds) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>(std::move(UpperBounds));
  return *Slot;
}

std::vector<std::pair<std::string, uint64_t>>
MetricsRegistry::counterValues() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::pair<std::string, uint64_t>> Out;
  Out.reserve(Counters.size());
  for (const auto &[Name, C] : Counters)
    Out.emplace_back(Name, C->value());
  return Out;
}

std::string MetricsRegistry::snapshotJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out;
  Out += "{\"counters\":{";
  bool First = true;
  for (const auto &[Name, C] : Counters) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    json::escape(Out, Name);
    Out += "\":";
    appendUInt(Out, C->value());
  }
  Out += "},\"gauges\":{";
  First = true;
  for (const auto &[Name, G] : Gauges) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    json::escape(Out, Name);
    Out += "\":";
    json::appendNumber(Out, G->value());
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    json::escape(Out, Name);
    Out += "\":{\"count\":";
    appendUInt(Out, H->count());
    Out += ",\"sum\":";
    json::appendNumber(Out, H->sum());
    Out += ",\"mean\":";
    json::appendNumber(Out, H->mean());
    Out += ",\"p50\":";
    json::appendNumber(Out, H->quantile(0.5));
    Out += ",\"p90\":";
    json::appendNumber(Out, H->quantile(0.9));
    Out += ",\"p99\":";
    json::appendNumber(Out, H->quantile(0.99));
    Out += ",\"buckets\":[";
    for (size_t I = 0; I != H->numBuckets(); ++I) {
      if (I)
        Out += ',';
      Out += "{\"le\":";
      if (I < H->upperBounds().size())
        json::appendNumber(Out, H->upperBounds()[I]);
      else
        Out += "\"inf\"";
      Out += ",\"count\":";
      appendUInt(Out, H->bucketCount(I));
      Out += '}';
    }
    Out += "]}";
  }
  Out += '}';
  if (profileThreadCount() != 0) {
    Out += ",\"profile\":";
    Out += profileJson();
  }
  Out += '}';
  return Out;
}

std::string MetricsRegistry::textReport() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ostringstream Out;
  for (const auto &[Name, C] : Counters)
    Out << Name << " = " << C->value() << "\n";
  for (const auto &[Name, G] : Gauges)
    Out << Name << " = " << G->value() << "\n";
  for (const auto &[Name, H] : Histograms) {
    Out << Name << ": count=" << H->count() << " mean=" << H->mean()
        << " p50=" << H->quantile(0.5) << " p90=" << H->quantile(0.9)
        << " p99=" << H->quantile(0.99) << " buckets[";
    for (size_t I = 0; I != H->numBuckets(); ++I) {
      if (I)
        Out << ' ';
      if (I < H->upperBounds().size())
        Out << "le" << H->upperBounds()[I];
      else
        Out << "inf";
      Out << ':' << H->bucketCount(I);
    }
    Out << "]\n";
  }
  return Out.str();
}

std::string MetricsRegistry::prometheusText() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out;
  char Buf[32];

  for (const auto &[Name, C] : Counters) {
    const std::string M = sanitizeMetricName(Name) + "_total";
    Out += "# HELP " + M + " OPPSLA counter " + Name + "\n";
    Out += "# TYPE " + M + " counter\n";
    Out += M + ' ';
    appendUInt(Out, C->value());
    Out += '\n';
  }
  for (const auto &[Name, G] : Gauges) {
    const std::string M = sanitizeMetricName(Name);
    Out += "# HELP " + M + " OPPSLA gauge " + Name + "\n";
    Out += "# TYPE " + M + " gauge\n";
    Out += M + ' ';
    appendPromDouble(Out, G->value());
    Out += '\n';
  }
  for (const auto &[Name, H] : Histograms) {
    const std::string M = sanitizeMetricName(Name);
    Out += "# HELP " + M + " OPPSLA histogram " + Name + "\n";
    Out += "# TYPE " + M + " histogram\n";
    uint64_t Cum = 0;
    for (size_t I = 0; I != H->upperBounds().size(); ++I) {
      Cum += H->bucketCount(I);
      Out += M + "_bucket{le=\"";
      std::snprintf(Buf, sizeof(Buf), "%.9g", H->upperBounds()[I]);
      Out += Buf;
      Out += "\"} ";
      appendUInt(Out, Cum);
      Out += '\n';
    }
    // The +Inf bucket is the running total: finite cumulative count plus
    // the overflow bucket, which by construction equals count().
    Out += M + "_bucket{le=\"+Inf\"} ";
    appendUInt(Out, Cum + H->bucketCount(H->numBuckets() - 1));
    Out += '\n';
    Out += M + "_sum ";
    appendPromDouble(Out, H->sum());
    Out += '\n';
    Out += M + "_count ";
    appendUInt(Out, Cum + H->bucketCount(H->numBuckets() - 1));
    Out += '\n';
  }
  {
    std::lock_guard<std::mutex> InfoLock(runInfo().Mu);
    if (!runInfo().KV.empty()) {
      Out += "# HELP oppsla_run_info Run metadata carried as labels.\n";
      Out += "# TYPE oppsla_run_info gauge\n";
      Out += "oppsla_run_info{";
      bool First = true;
      for (const auto &[K, V] : runInfo().KV) {
        if (!First)
          Out += ',';
        First = false;
        Out += sanitizeLabelName(K) + "=\"";
        appendPromLabelEscaped(Out, V);
        Out += '"';
      }
      Out += "} 1\n";
    }
  }
  return Out;
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters.empty() && Gauges.empty() && Histograms.empty();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  Counters.clear();
  Gauges.clear();
  Histograms.clear();
}

Counter &oppsla::telemetry::counter(const std::string &Name) {
  return MetricsRegistry::instance().counter(Name);
}

Gauge &oppsla::telemetry::gauge(const std::string &Name) {
  return MetricsRegistry::instance().gauge(Name);
}

Histogram &oppsla::telemetry::histogram(const std::string &Name,
                                        std::vector<double> UpperBounds) {
  return MetricsRegistry::instance().histogram(Name, std::move(UpperBounds));
}

std::string oppsla::telemetry::snapshotMetricsJson() {
  return MetricsRegistry::instance().snapshotJson();
}

std::string oppsla::telemetry::metricsTextReport() {
  return MetricsRegistry::instance().textReport();
}

std::string oppsla::telemetry::prometheusTextExposition() {
  return MetricsRegistry::instance().prometheusText();
}

void oppsla::telemetry::setRunInfo(const std::string &Key,
                                   const std::string &Value) {
  std::lock_guard<std::mutex> Lock(runInfo().Mu);
  runInfo().KV[Key] = Value;
}

bool oppsla::telemetry::writeMetricsJson(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const std::string Json = snapshotMetricsJson();
  const size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  std::fputc('\n', F);
  const bool Ok = Written == Json.size() && std::fclose(F) == 0;
  return Ok;
}

namespace {

std::atomic<bool> ExitHandlersInstalled{false};
std::atomic<bool> FlushInProgress{false};

struct FlushHookRegistry {
  std::mutex Mu;
  uint64_t NextToken = 1;
  std::map<uint64_t, std::function<void()>> Hooks;
};

FlushHookRegistry &flushHooks() {
  static FlushHookRegistry R;
  return R;
}

/// Best-effort flush of every configured file sink. Runs from atexit and
/// from the SIGINT/SIGTERM handler; the exchange guard makes a signal
/// that lands during a flush a no-op instead of a reentrant corruption.
/// (File I/O is not async-signal-safe in general — for an interrupted
/// run, partially flushed telemetry beats none.)
void flushTelemetrySinks() {
  if (FlushInProgress.exchange(true))
    return;
  // Registered hooks first: they may still be emitting into the sinks
  // (e.g. serve mode draining per-job trace timelines to files). Copy
  // under the lock, run outside it — a hook may call back into telemetry.
  std::vector<std::function<void()>> Hooks;
  {
    FlushHookRegistry &R = flushHooks();
    std::lock_guard<std::mutex> Lock(R.Mu);
    Hooks.reserve(R.Hooks.size());
    for (const auto &[Token, Hook] : R.Hooks)
      Hooks.push_back(Hook);
  }
  for (const auto &Hook : Hooks)
    Hook();
  TraceWriter::instance().close();
  const std::string MetricsPath = pendingMetricsPath();
  if (!MetricsPath.empty())
    writeMetricsJson(MetricsPath);
  const std::string ProfilePath = pendingProfilePath();
  if (!ProfilePath.empty())
    writeProfileFolded(ProfilePath);
  FlushInProgress.store(false);
}

void telemetrySignalHandler(int Sig) {
  flushTelemetrySinks();
  std::signal(Sig, SIG_DFL);
  std::raise(Sig);
}

} // namespace

void oppsla::telemetry::installTelemetryExitHandlers() {
  if (ExitHandlersInstalled.exchange(true))
    return;
  std::atexit([] { flushTelemetrySinks(); });
  std::signal(SIGINT, telemetrySignalHandler);
  std::signal(SIGTERM, telemetrySignalHandler);
}

uint64_t
oppsla::telemetry::addTelemetryFlushHook(std::function<void()> Hook) {
  FlushHookRegistry &R = flushHooks();
  std::lock_guard<std::mutex> Lock(R.Mu);
  const uint64_t Token = R.NextToken++;
  R.Hooks.emplace(Token, std::move(Hook));
  return Token;
}

void oppsla::telemetry::removeTelemetryFlushHook(uint64_t Token) {
  FlushHookRegistry &R = flushHooks();
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Hooks.erase(Token);
}

void oppsla::telemetry::flushTelemetryNow() { flushTelemetrySinks(); }

bool oppsla::telemetry::configureFromArgs(const ArgParse &Args) {
  const std::string TraceOut = Args.get("trace-out", "");
  if (!TraceOut.empty() && !TraceWriter::instance().open(TraceOut)) {
    logError() << "cannot open --trace-out " << TraceOut;
    return false;
  }
  const std::string MetricsOut = Args.get("metrics-out", "");
  pendingMetricsPath() = MetricsOut;
  const std::string ProfileOut = Args.get("profile-out", "");
  pendingProfilePath() = ProfileOut;
  if (!ProfileOut.empty() || Args.getFlag("profile"))
    setProfilingEnabled(true);
  if (Args.getFlag("hw-counters")) {
    // Hardware counters only surface through profiler spans, so the flag
    // implies profiling. Unavailability (container seccomp, paranoid
    // sysctl) degrades to a no-op after one logged notice.
    setProfilingEnabled(true);
    setHwCountersEnabled(true);
    (void)hwCountersAvailable();
  }
  ledger::setServedPath(Args.get("ledger", ""));
  if (!TraceOut.empty() || !MetricsOut.empty() || !ProfileOut.empty())
    installTelemetryExitHandlers();
  return true;
}

bool oppsla::telemetry::finalizeTelemetry() {
  TraceWriter::instance().close();
  bool Ok = true;
  const std::string MetricsPath = pendingMetricsPath();
  pendingMetricsPath().clear();
  if (!MetricsPath.empty() && !writeMetricsJson(MetricsPath)) {
    logError() << "cannot write --metrics-out " << MetricsPath;
    Ok = false;
  }
  const std::string ProfilePath = pendingProfilePath();
  pendingProfilePath().clear();
  if (!ProfilePath.empty() && !writeProfileFolded(ProfilePath)) {
    logError() << "cannot write --profile-out " << ProfilePath;
    Ok = false;
  }
  return Ok;
}
