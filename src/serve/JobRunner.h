//===- serve/JobRunner.h - Job execution engine -----------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes admitted jobs: worker threads pop from the JobQueue, split
/// each job's dataset slice into shards, and drive the existing sweep
/// harness (runAttackOverSet / runProgramsOverSet) through QueryEngine
/// clones leased per job. Engines cloned for the same victim share one
/// ScoreCache (QueryEngineConfig::ShareCacheOnClone), so concurrent jobs
/// against the same classifier pool their forwards — the cache verifies
/// image bytes on every hit, so results never change. A clone outlives
/// its job: the next job on the victim leases it instead of cloning, and
/// every job slices the victim's one test set, so a job's setup costs
/// the same however many jobs ran before it.
///
/// After every shard the job's spec + completed runs are checkpointed to
/// disk (atomic write). A killed server restarted with resume() re-admits
/// pending checkpoints and re-runs only the missing image indices; because
/// each run is a pure function of (seed, image), the resumed result
/// artifact is byte-identical to an uninterrupted run's.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_SERVE_JOBRUNNER_H
#define OPPSLA_SERVE_JOBRUNNER_H

#include "engine/QueryEngine.h"
#include "eval/Experiments.h"
#include "serve/JobQueue.h"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace oppsla {
namespace serve {

struct JobRunnerConfig {
  /// Directory for job-<id>.ckpt / job-<id>.result files.
  std::string CheckpointDir = ".oppsla-serve";
  /// Concurrent jobs (runner worker threads). 0 = runner disabled: jobs
  /// queue up but never execute (admission-control tests use this).
  size_t Workers = 1;
  /// Sweep threads per job (the shard's image-level parallelism).
  size_t Threads = 1;
  /// Images per shard — also the checkpoint cadence.
  size_t CheckpointEvery = 4;
  /// Per-job query engine settings; ShareCacheOnClone is forced on.
  QueryEngineConfig Engine;
  /// Synthesis-phase shape for Synth/Eval jobs: island fan-out, exchange
  /// cadence, and program-store policy. Threads is overridden per job
  /// with the runner's sweep thread budget.
  SynthesisRunOptions Synth;
  /// Crash-injection test hook: after this many images have been attacked
  /// (and their shard checkpointed) in this process, _exit(3) — the
  /// checkpoint/resume ctest uses it to kill the server at a
  /// deterministic point. 0 = off.
  size_t CrashAfterImages = 0;
  /// Test hook: called after shard \p ShardIdx of job \p JobId has been
  /// swept and checkpointed, before the next shard starts. Runs on the
  /// worker thread — the cancel-at-shard-boundary test uses it to cancel
  /// a job at a deterministic point. Null = off.
  std::function<void(uint64_t JobId, size_t ShardIdx)> OnShardDone;
};

/// Pops jobs from a JobQueue and runs them to completion (or checkpointed
/// suspension).
class JobRunner {
public:
  JobRunner(JobQueue &Queue, JobRunnerConfig Config);
  ~JobRunner();

  /// Spawns the worker threads. No-op when Workers == 0.
  void start();

  /// Graceful drain: workers finish their current shard, checkpoint, and
  /// requeue their job (state back to Queued), then exit. Closes the
  /// queue. Idempotent.
  void stop();

  /// Scans the checkpoint directory: finished `.result` artifacts are
  /// re-registered as Done jobs (still downloadable), pending `.ckpt`
  /// files are re-admitted with their completed runs preloaded. Call
  /// before start(). \returns the number of re-admitted pending jobs.
  size_t resume();

  /// Shards currently sweeping across all workers.
  size_t inflightShards() const {
    return Inflight.load(std::memory_order_relaxed);
  }

  /// Records one observed job service time (pop to completion). Called by
  /// runJob for every job that runs to Done; tests inject samples to pin
  /// Retry-After arithmetic.
  void recordServiceSample(double Seconds);

  /// Median of the most recent ServiceWindow service samples, or 0.0
  /// when none exist yet. The HTTP layer derives 429 Retry-After from
  /// this.
  double medianServiceSeconds() const;

  /// Service samples the Retry-After median covers: the most recent ones
  /// only, so an overloaded server's 429s copy a bounded window.
  static constexpr size_t ServiceWindow = 1024;

  const JobRunnerConfig &config() const { return Config; }

  JobRunner(const JobRunner &) = delete;
  JobRunner &operator=(const JobRunner &) = delete;

private:
  /// Per-victim shared state: the trained master classifier, the master
  /// engine whose clones share one ScoreCache, the test set sweep jobs
  /// slice, the clones no running job holds, and the synthesized class
  /// programs (Eval/Synth jobs). Keyed by victim stem.
  struct VictimEntry {
    std::mutex Mu; ///< guards construction, synthesis, and master access
    std::unique_ptr<NNClassifier> Victim;
    std::unique_ptr<QueryEngine> Engine;
    /// Built once with the victim; immutable afterwards.
    Dataset Test;
    /// In-memory program cache, filled class by class (the durable copy
    /// lives in the program store).
    std::map<size_t, Program> ProgramByClass;
    /// Engine clones between jobs: at most one per runner worker. A lease
    /// takes one without waiting on a synthesis that holds Mu.
    std::mutex IdleMu;
    std::vector<std::unique_ptr<Classifier>> Idle;
  };
  class EngineLease;

  void workerLoop();
  void runJob(const std::shared_ptr<Job> &J);
  VictimEntry &victimEntry(const JobSpec &Spec);
  /// The synthesized program for one class of \p Spec's victim: the
  /// in-memory cache, then the program store, then an island synthesis
  /// run — whichever answers first. Serialized per victim via E.Mu.
  Program classProgram(VictimEntry &E, const JobSpec &Spec, size_t Label);
  bool checkpointJob(Job &J, int64_t Shard = -1);

  JobQueue &Queue;
  JobRunnerConfig Config;
  std::vector<std::thread> Workers;
  std::atomic<bool> Stopping{false};
  std::atomic<size_t> Inflight{0};
  std::atomic<size_t> ImagesCompleted{0}; ///< feeds CrashAfterImages

  std::mutex PoolMu; ///< guards the Victims map (not the entries)
  std::map<std::string, std::unique_ptr<VictimEntry>> Victims;

  mutable std::mutex ServiceMu; ///< guards ServiceSamples, ServiceCount
  /// Ring of the most recent ServiceWindow samples; sample N lives in
  /// slot N % ServiceWindow.
  std::vector<double> ServiceSamples;
  uint64_t ServiceCount = 0; ///< samples ever recorded
};

} // namespace serve
} // namespace oppsla

#endif // OPPSLA_SERVE_JOBRUNNER_H
