//===- support/Metrics.h - Process-wide metrics registry -------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide metrics registry with three instrument kinds:
///
///   - Counter:   monotonically increasing uint64 (relaxed atomic);
///   - Gauge:     last-written double;
///   - Histogram: fixed upper-bound buckets plus an overflow bucket, with
///                running count/sum — enough to report queries-per-attack
///                distributions and span durations without per-sample
///                allocation.
///
/// Instruments are created on first use and live for the process lifetime,
/// so hot paths cache the returned reference (`static Counter &C = ...`)
/// and pay only a relaxed atomic op per update. snapshotMetricsJson()
/// serializes everything for `--metrics-out`; metricsTextReport() renders
/// the same data for humans (the CLI's `metrics:` section).
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_SUPPORT_METRICS_H
#define OPPSLA_SUPPORT_METRICS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace oppsla {

class ArgParse;

namespace telemetry {

/// Monotonic event counter.
class Counter {
public:
  void inc(uint64_t Delta = 1) {
    V.fetch_add(Delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-value instrument.
class Gauge {
public:
  void set(double X) { V.store(X, std::memory_order_relaxed); }
  void add(double Delta) {
    double Cur = V.load(std::memory_order_relaxed);
    while (!V.compare_exchange_weak(Cur, Cur + Delta,
                                    std::memory_order_relaxed))
      ;
  }
  double value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<double> V{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations X <= UpperBounds[i]
/// (first matching bucket); observations above the last bound land in the
/// overflow bucket. Thread-safe; concurrent observes never lose samples.
class Histogram {
public:
  /// \p UpperBounds must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> UpperBounds);

  void observe(double X);

  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }
  double mean() const;
  /// Estimates the \p Q quantile (0 < Q < 1) by linear interpolation
  /// within the bucket the target rank falls into. Observations in the
  /// overflow bucket clamp to the last finite bound (the histogram does
  /// not know how far above it they landed). Returns 0 when empty.
  double quantile(double Q) const;

  const std::vector<double> &upperBounds() const { return Bounds; }
  /// Number of buckets including overflow: upperBounds().size() + 1.
  size_t numBuckets() const { return Bounds.size() + 1; }
  uint64_t bucketCount(size_t I) const;

private:
  std::vector<double> Bounds;
  std::unique_ptr<std::atomic<uint64_t>[]> Buckets;
  std::atomic<uint64_t> N{0};
  std::atomic<double> Sum{0.0};
};

/// `Count` upper bounds starting at \p Start, each \p Factor times the
/// previous: the standard shape for query/duration distributions.
std::vector<double> exponentialBuckets(double Start, double Factor,
                                      size_t Count);

/// Name-keyed singleton owning every instrument. References returned are
/// stable for the process lifetime (instruments are never destroyed until
/// exit, and reset() only zeroes the map for tests).
class MetricsRegistry {
public:
  static MetricsRegistry &instance();

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  /// Returns the existing histogram for \p Name if already registered
  /// (its bounds win); otherwise creates one with \p UpperBounds.
  Histogram &histogram(const std::string &Name,
                       std::vector<double> UpperBounds);

  /// Name-sorted snapshot of all counters.
  std::vector<std::pair<std::string, uint64_t>> counterValues() const;

  /// Full JSON snapshot: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"count","sum","mean","p50","p90","p99",
  /// "buckets":[{"le","count"}]}},"profile":{...}} — the profile block is
  /// present only when the span profiler recorded something.
  std::string snapshotJson() const;
  /// Human-readable dump of the same data, one instrument per line.
  std::string textReport() const;
  /// Prometheus text exposition (version 0.0.4) of every instrument:
  /// `# HELP`/`# TYPE` headers, `oppsla_`-prefixed sanitized names,
  /// `_total`-suffixed counters, cumulative `_bucket{le="..."}` series
  /// plus `_sum`/`_count` per histogram, and an `oppsla_run_info{...} 1`
  /// info metric carrying the labels set via setRunInfo().
  std::string prometheusText() const;

  bool empty() const;
  /// Drops every instrument. Only for tests — invalidates cached refs.
  void reset();

  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

private:
  MetricsRegistry() = default;

  mutable std::mutex Mu;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

/// Registry conveniences.
Counter &counter(const std::string &Name);
Gauge &gauge(const std::string &Name);
Histogram &histogram(const std::string &Name,
                     std::vector<double> UpperBounds);
std::string snapshotMetricsJson();
std::string metricsTextReport();
/// MetricsRegistry::prometheusText() of the singleton (the `/metrics`
/// endpoint payload).
std::string prometheusTextExposition();
/// Writes snapshotMetricsJson() to \p Path. \returns true on success.
bool writeMetricsJson(const std::string &Path);

/// Attaches a key/value label to the `oppsla_run_info` metric of the
/// Prometheus exposition (command name, attack kind, model arch, ...).
/// Setting an existing key overwrites it.
void setRunInfo(const std::string &Key, const std::string &Value);

/// RAII wall-clock span. Records elapsed seconds into \p H (when non-null)
/// on destruction; seconds() reads the running value early.
class ScopedTimer {
public:
  explicit ScopedTimer(Histogram *H = nullptr)
      : H(H), Start(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    if (H)
      H->observe(seconds());
  }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  }
  /// Detaches the timer from its histogram (nothing recorded).
  void cancel() { H = nullptr; }

private:
  Histogram *H;
  std::chrono::steady_clock::time_point Start;
};

/// Applies the standard telemetry flags of \p Args:
///   --trace-out <path>    open the JSONL trace sink
///   --metrics-out <path>  write a metrics JSON snapshot at finalize
///   --profile             enable the hierarchical span profiler
///   --profile-out <path>  write folded stacks at finalize (implies
///                         --profile)
///   --hw-counters         attach perf_event hardware counters to every
///                         profiler span (implies --profile; no-op with a
///                         logged notice when perf_event_open is denied)
///   --ledger <path>       register the bench ledger served by the HTTP
///                         server's GET /ledger endpoint
/// When any file sink is configured, installs best-effort flush handlers
/// (atexit + SIGINT/SIGTERM) so the sinks survive an interrupted run.
/// \returns false (after logging) if the trace sink cannot be opened.
bool configureFromArgs(const ArgParse &Args);

/// Closes the trace sink and writes the pending --metrics-out snapshot
/// and --profile-out folded stacks. \returns false if a sink could not be
/// written.
bool finalizeTelemetry();

/// Installs the atexit + SIGINT/SIGTERM flush handlers directly (done
/// automatically by configureFromArgs when a file sink is requested).
/// Idempotent.
void installTelemetryExitHandlers();

/// Registers \p Hook to run at telemetry flush time — atexit, fatal
/// signal, or an explicit flushTelemetryNow() — *before* the file sinks
/// close, so subsystems with their own buffered state (e.g. per-job trace
/// timelines in serve mode) can drain into files. \returns a token for
/// removeTelemetryFlushHook(). Hooks must be idempotent: a signal can
/// arrive after an explicit drain already ran them.
uint64_t addTelemetryFlushHook(std::function<void()> Hook);
void removeTelemetryFlushHook(uint64_t Token);

/// Runs the flush hooks and file-sink flush immediately (same body the
/// exit handlers run). Used by orderly shutdown paths (/quitquitquit)
/// that exit via _exit() and would otherwise skip atexit.
void flushTelemetryNow();

} // namespace telemetry
} // namespace oppsla

#endif // OPPSLA_SUPPORT_METRICS_H
