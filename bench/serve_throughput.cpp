//===- bench/serve_throughput.cpp - Job server throughput --------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures the serve subsystem end to end over real loopback HTTP: job
// submission/completion throughput (jobs/sec) and per-job latency
// (p50/p99) through the full queue -> runner -> checkpoint -> artifact
// path, plus a deterministic admission-control phase that saturates a
// workerless queue and counts the 429 rejects — an exact-gated metric,
// since sequential submissions against a disabled runner must reject
// precisely (submitted - capacity) jobs.
//
// The throughput phase runs twice per repeat — job tracing on, then off —
// and reports trace_overhead_pct, the percent of jobs/sec the per-job
// timeline recording costs (gated at <= 5% by an absolute-cap rule). The
// estimate is the MINIMUM overhead across the adjacent on/off pairs: a
// real tracing cost slows every pair, while a scheduler stall only
// poisons one, so the min resists run-to-run noise. Primary throughput/
// latency metrics come from each mode's best repeat, and from the traced
// runs, which is how `oppsla serve` ships. Emits BENCH_serve.json.
//
//===----------------------------------------------------------------------===//

#include "serve/JobQueue.h"
#include "serve/JobRunner.h"
#include "serve/ServeServer.h"
#include "support/ArgParse.h"
#include "support/BenchJson.h"
#include "support/BenchScale.h"
#include "support/Http.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace oppsla;
using Clock = std::chrono::steady_clock;

namespace {

/// Queue depth of the throughput runs. A pass submits all its jobs before
/// it waits for any, so this bounds the jobs per pass.
constexpr size_t QueueCapacity = 256;

/// One tiny attack job: 2 images of the shared seed-1 victim, so every
/// job after the first reuses the pooled classifier and score cache and
/// the bench measures serving overhead, not victim training.
std::string jobBody(size_t I) {
  return "{\"kind\":\"attack\",\"attack\":\"random\","
         "\"victim\":{\"task\":\"cifar\",\"arch\":\"resnet\","
         "\"scale\":\"smoke\"},\"seed\":1,\"budget\":16,"
         "\"slice\":{\"begin\":" +
         std::to_string((I * 2) % 10) + ",\"count\":2}}";
}

/// POST /v1/jobs; returns the HTTP status and the admitted id (0 on
/// rejection).
int submitJob(uint16_t Port, const std::string &Body, uint64_t &Id) {
  http::Response Resp;
  std::string Error;
  if (!http::request(Port, "POST", "/v1/jobs", Body, Resp, Error)) {
    std::cerr << "error: submit failed: " << Error << "\n";
    std::exit(1);
  }
  Id = 0;
  json::Value Doc;
  if (Resp.Status == 202 && json::parse(Resp.Body, Doc, Error))
    Id = static_cast<uint64_t>(Doc.getNumber("id", 0.0));
  return Resp.Status;
}

/// Polls GET /v1/jobs/<id> until the job is done (aborts on failed /
/// cancelled — the bench's jobs must all succeed).
void waitDone(uint16_t Port, uint64_t Id) {
  for (;;) {
    http::Response Resp;
    std::string Error;
    if (!http::request(Port, "GET", "/v1/jobs/" + std::to_string(Id), "",
                       Resp, Error)) {
      std::cerr << "error: status poll failed: " << Error << "\n";
      std::exit(1);
    }
    json::Value Doc;
    if (Resp.Status == 200 && json::parse(Resp.Body, Doc, Error)) {
      const std::string State = Doc.getString("state", "");
      if (State == "done")
        return;
      if (State == "failed" || State == "cancelled") {
        std::cerr << "error: job " << Id << " " << State << ": "
                  << Doc.getString("error", "") << "\n";
        std::exit(1);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

double quantileMs(std::vector<double> Sorted, double Q) {
  if (Sorted.empty())
    return 0.0;
  const size_t Idx = std::min(
      Sorted.size() - 1,
      static_cast<size_t>(Q * static_cast<double>(Sorted.size())));
  return Sorted[Idx] * 1e3;
}

struct ThroughputResult {
  double JobsPerSec = 0.0;
  double P50Ms = 0.0;
  double P99Ms = 0.0;
  double WallSeconds = 0.0;
};

/// One full throughput run through the serving path with job tracing
/// switched to \p Tracing. Exits the process on any serving error (the
/// bench's jobs must all succeed).
ThroughputResult runThroughput(bool Tracing, size_t NumJobs,
                               const std::string &CheckpointDir) {
  serve::setJobTracingEnabled(Tracing);
  serve::JobQueue Queue(QueueCapacity);
  serve::JobRunnerConfig RC;
  RC.Workers = 2;
  RC.Threads = 1;
  RC.CheckpointEvery = 4;
  RC.CheckpointDir = CheckpointDir;
  serve::JobRunner Runner(Queue, RC);
  serve::ServeServer Server(Queue, Runner);
  if (!Server.start())
    std::exit(1);
  Runner.start();

  // Warmup: the first job trains (or loads) the pooled victim; keep that
  // cost out of the serving numbers. Cheap after the first run — the
  // victim pool is process-wide.
  {
    uint64_t WarmId = 0;
    if (submitJob(Server.port(), jobBody(0), WarmId) != 202 || !WarmId)
      std::exit(1);
    waitDone(Server.port(), WarmId);
  }

  const auto T0 = Clock::now();
  std::vector<std::pair<uint64_t, Clock::time_point>> Pending;
  Pending.reserve(NumJobs);
  for (size_t I = 0; I != NumJobs; ++I) {
    uint64_t Id = 0;
    if (submitJob(Server.port(), jobBody(I), Id) != 202 || !Id) {
      std::cerr << "error: throughput submission rejected\n";
      std::exit(1);
    }
    Pending.emplace_back(Id, Clock::now());
  }

  std::vector<double> LatencySeconds;
  LatencySeconds.reserve(NumJobs);
  for (const auto &[Id, Submitted] : Pending) {
    waitDone(Server.port(), Id);
    LatencySeconds.push_back(
        std::chrono::duration<double>(Clock::now() - Submitted).count());
  }
  ThroughputResult R;
  R.WallSeconds =
      std::chrono::duration<double>(Clock::now() - T0).count();
  Server.stop();
  Runner.stop();

  std::sort(LatencySeconds.begin(), LatencySeconds.end());
  R.JobsPerSec = R.WallSeconds > 0
                     ? static_cast<double>(NumJobs) / R.WallSeconds
                     : 0.0;
  R.P50Ms = quantileMs(LatencySeconds, 0.50);
  R.P99Ms = quantileMs(LatencySeconds, 0.99);
  return R;
}

} // namespace

int main(int argc, char **argv) {
  const ArgParse Args(argc, argv);
  if (!telemetry::configureFromArgs(Args))
    return 1;
  const BenchScale Scale = BenchScale::fromEnv();
  // Enough jobs that one run's wall clock dwarfs scheduler jitter — the
  // traced/untraced comparison divides two of these. Two workers finish
  // a smoke job about every 0.15 ms, so smoke fills the whole queue: a
  // pass then lasts 30-50 ms against the 2 ms status poll. (Each job
  // leaves two loopback connections in TIME_WAIT; at 1024 jobs per pass,
  // back-to-back runs read as slow as 1000 jobs/s.)
  const size_t NumJobs = Scale.Name == "smoke"   ? QueueCapacity
                         : Scale.Name == "paper" ? 128
                                                 : 96;

  std::cout << "== Serve throughput (scale: " << Scale.Name << ", "
            << NumJobs << " jobs) ==\n\n";

  // --- Phase 1: admission control at saturation. -----------------------
  // A workerless runner never drains the queue, so submissions beyond the
  // capacity MUST come back 429 — deterministically.
  constexpr size_t Capacity = 4;
  constexpr size_t Overflow = 3;
  size_t Rejects = 0;
  {
    serve::JobQueue Queue(Capacity);
    serve::JobRunnerConfig RC;
    RC.Workers = 0;
    RC.CheckpointDir = "serve-bench-admission";
    serve::JobRunner Runner(Queue, RC);
    serve::ServeServer Server(Queue, Runner);
    if (!Server.start())
      return 1;
    for (size_t I = 0; I != Capacity + Overflow; ++I) {
      uint64_t Id = 0;
      const int Status = submitJob(Server.port(), jobBody(I), Id);
      if (Status == 429)
        ++Rejects;
      else if (Status != 202) {
        std::cerr << "error: unexpected submit status " << Status << "\n";
        return 1;
      }
    }
    Server.stop();
    Runner.stop();
  }
  std::cout << "admission: capacity " << Capacity << ", submitted "
            << (Capacity + Overflow) << ", rejected " << Rejects
            << " (want " << Overflow << ")\n";
  if (Rejects != Overflow) {
    std::cerr << "error: admission control is not deterministic\n";
    return 1;
  }

  // --- Phase 2: throughput through the full serving path, traced and
  // untraced. Modes interleave across repeats so slow thermal/scheduler
  // drift hits both equally; each mode keeps its best repeat.
  const size_t Repeats = 4;
  ThroughputResult Traced, Untraced;
  double OverheadPct = 100.0;
  for (size_t R = 0; R != Repeats; ++R) {
    const ThroughputResult On =
        runThroughput(true, NumJobs, "serve-bench-ckpt");
    if (On.JobsPerSec > Traced.JobsPerSec)
      Traced = On;
    const ThroughputResult Off =
        runThroughput(false, NumJobs, "serve-bench-ckpt-notrace");
    if (Off.JobsPerSec > Untraced.JobsPerSec)
      Untraced = Off;
    // Overhead comes from the adjacent pair, not the cross-repeat bests:
    // a real tracing cost slows EVERY pair, so the min across pairs is
    // it, while a one-off scheduler stall only poisons one pair. Tracing
    // can only add work, so a negative delta is noise — clamp to zero
    // instead of reporting a nonsense "speedup".
    const double PairPct =
        Off.JobsPerSec > 0.0
            ? std::max(0.0, 100.0 * (Off.JobsPerSec - On.JobsPerSec) /
                                Off.JobsPerSec)
            : 0.0;
    OverheadPct = std::min(OverheadPct, PairPct);
  }
  serve::setJobTracingEnabled(true); // restore the shipping default

  std::cout << "throughput (traced): " << NumJobs << " jobs in "
            << Traced.WallSeconds << " s = " << Traced.JobsPerSec
            << " jobs/sec\n"
            << "throughput (untraced): " << Untraced.JobsPerSec
            << " jobs/sec -> trace overhead " << OverheadPct << "%\n"
            << "latency (traced): p50 " << Traced.P50Ms << " ms, p99 "
            << Traced.P99Ms << " ms\n";

  BenchJson BJ("serve", Scale.Name, Args);
  BJ.set("jobs", static_cast<double>(NumJobs));
  BJ.set("jobs_per_sec", Traced.JobsPerSec);
  BJ.set("jobs_per_sec_untraced", Untraced.JobsPerSec);
  BJ.set("trace_overhead_pct", OverheadPct);
  BJ.set("job_latency_p50_ms", Traced.P50Ms);
  BJ.set("job_latency_p99_ms", Traced.P99Ms);
  BJ.set("queue_full_rejects", static_cast<double>(Rejects));
  BJ.set("wall_seconds", Traced.WallSeconds);
  BJ.addTelemetryCounters();
  if (!BJ.writeFromArgs(Args))
    return 1;
  return 0;
}
