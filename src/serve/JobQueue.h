//===- serve/JobQueue.h - Bounded priority job queue ------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The job model and admission-controlled queue behind `oppsla serve`.
/// Submitted jobs enter a bounded queue (a full queue rejects — the HTTP
/// layer answers 429 with Retry-After); runner workers pop the
/// highest-priority job (FIFO within a priority level). The queue doubles
/// as the job registry: every job ever admitted stays findable by id for
/// status and result queries.
///
/// A job's sweep results are a pure function of (seed, image) — see
/// Image::contentHash — so a job's outcome is independent of queue order,
/// worker count, and interleaving with other jobs.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_SERVE_JOBQUEUE_H
#define OPPSLA_SERVE_JOBQUEUE_H

#include "serve/JobTrace.h"
#include "wire/Wire.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace oppsla {
namespace serve {

using wire::WireRun;

/// What a job computes.
enum class JobKind {
  Attack, ///< baseline attack sweep (sparse-rs | suopa | random)
  Eval,   ///< full OPPSLA evaluation: synthesize class programs, sweep
  Synth,  ///< synthesize the per-class programs only
};

/// Lifecycle states. Queued -> Running -> {Done, Failed, Cancelled};
/// Running -> Queued on a graceful drain (the job is requeued so a
/// restart resumes it from its checkpoint).
enum class JobState { Queued, Running, Done, Failed, Cancelled };

const char *jobKindName(JobKind K);
const char *jobStateName(JobState S);

/// A parsed job submission. The victim triple (task, arch, scale) plus
/// seed fully determine the classifier and test set; Begin/Count select
/// the dataset slice ([Begin, Begin+Count), Count 0 = to the end).
struct JobSpec {
  JobKind Kind = JobKind::Eval;
  int Priority = 0;                     ///< higher pops first
  std::string AttackName = "sparse-rs"; ///< Attack jobs only
  std::string TaskName = "cifar";
  std::string ArchName = "resnet";
  std::string ScaleName = "smoke";
  uint64_t Seed = 1;
  uint64_t Budget = 0; ///< queries per image; 0 = the scale's EvalQueryCap
  uint64_t Begin = 0;  ///< dataset slice start
  uint64_t Count = 0;  ///< slice length; 0 = everything from Begin

  /// W3C traceparent from the submitting client ("" = server mints one).
  /// Pure observability: never rendered into jobSpecJson(), so result
  /// artifacts embedding the spec stay byte-identical across trace ids.
  /// The runner clears it when the job finishes; the job's JobTrace keeps
  /// the trace id.
  std::string TraceParent;
};

/// Parses the POST /v1/jobs body. Unknown kinds/attacks/archs and
/// malformed JSON fail with a message suitable for a 400 response.
bool parseJobSpec(const std::string &JsonText, JobSpec &Out,
                  std::string &Error);

/// Canonical JSON rendering of \p Spec — stable across submit, checkpoint,
/// and resume, so artifacts embedding it stay byte-identical. Never
/// includes the trace context.
std::string jobSpecJson(const JobSpec &Spec);

/// jobSpecJson() plus a trailing `"trace":"<traceparent>"` key when the
/// spec carries one. Used for checkpoint records only, so a resumed job
/// keeps the trace id its client minted; result artifacts always embed
/// the canonical trace-free form.
std::string jobSpecJsonWithTrace(const JobSpec &Spec);

/// One admitted job. Progress fields are atomics (the HTTP thread reads
/// them while a runner worker writes); Runs/Error take the mutex. A Done
/// job's result artifact is jobResultPath(<checkpoint dir>, Id).
struct Job {
  uint64_t Id = 0;
  JobSpec Spec;
  std::atomic<JobState> State{JobState::Queued};
  std::atomic<bool> CancelRequested{false};
  std::atomic<uint64_t> Done{0};
  std::atomic<uint64_t> Total{0};

  std::mutex Mu;             ///< guards Error and Runs
  std::string Error;         ///< set when State == Failed
  std::vector<WireRun> Runs; ///< completed runs (preloaded on resume);
                             ///< released when the job finishes

  /// Phase timeline + trace id; null when job tracing is disabled.
  /// Created at admission (create/adopt) and immutable afterwards, so
  /// readers need no lock for the pointer itself.
  std::unique_ptr<JobTrace> Trace;
  /// Open "queued" phase token (0 = none); set by enqueue, closed by
  /// pop()/cancel().
  std::atomic<uint64_t> QueuedToken{0};

  std::string errorMessage() {
    std::lock_guard<std::mutex> Lock(Mu);
    return Error;
  }
};

/// Bounded priority queue + registry. All methods are thread-safe.
class JobQueue {
public:
  /// \p Capacity bounds the number of *queued* jobs (running and finished
  /// jobs do not count against it).
  explicit JobQueue(size_t Capacity);

  /// Registers a new job for \p Spec (fresh id, state Queued, not yet in
  /// the queue). Pair with enqueue().
  std::shared_ptr<Job> create(const JobSpec &Spec);

  /// Admits \p J into the queue. \returns false (leaving the job
  /// registered but unqueued) when the queue is full, unless \p Force —
  /// resume and graceful-drain requeues bypass admission control so a
  /// restart never drops accepted work.
  bool enqueue(const std::shared_ptr<Job> &J, bool Force = false);

  /// Registers a recovered job under its original id (resume path); bumps
  /// the id counter past it.
  void adopt(const std::shared_ptr<Job> &J);

  /// Blocks until a queued job is available or the queue is closed.
  /// Returns the highest-priority job (FIFO within a priority, by id) with
  /// its state already flipped to Running, or nullptr when closed and
  /// drained. Jobs cancelled while queued are dropped here.
  std::shared_ptr<Job> pop();

  /// Wakes every blocked pop() and makes every future pop() return
  /// nullptr immediately. Nothing is dropped: still-queued jobs keep
  /// state Queued so a later resume picks them back up.
  void close();

  /// Cancels job \p Id: a queued job goes straight to Cancelled; a running
  /// job gets its CancelRequested flag set (the runner honours it at the
  /// next shard boundary). \returns false for unknown or already-finished
  /// jobs.
  bool cancel(uint64_t Id);

  std::shared_ptr<Job> find(uint64_t Id) const;
  std::vector<std::shared_ptr<Job>> all() const;

  size_t depth() const;
  size_t capacity() const { return Capacity; }
  bool closed() const;

private:
  void updateDepthGauge(size_t Depth) const;
  /// Closes a job's open "queued" phase span (idempotent). \p ObserveWait
  /// feeds the serve.queue.wait_ms histogram — true on the pop() path,
  /// false for cancellations (a cancelled wait is not a service sample).
  static void closeQueuedPhase(Job &J, bool ObserveWait);

  const size_t Capacity;
  mutable std::mutex Mu;
  std::condition_variable Ready;
  bool Closed = false;
  uint64_t NextId = 1;
  std::deque<std::shared_ptr<Job>> Queued;
  std::map<uint64_t, std::shared_ptr<Job>> Registry;
};

} // namespace serve
} // namespace oppsla

#endif // OPPSLA_SERVE_JOBQUEUE_H
