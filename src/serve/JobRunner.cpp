//===- serve/JobRunner.cpp - Job execution engine -----------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/JobRunner.h"

#include "attacks/RandomPairSearch.h"
#include "attacks/SparseRS.h"
#include "attacks/SuOPA.h"
#include "eval/Evaluation.h"
#include "serve/Checkpoint.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Profiler.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <set>
#include <stdexcept>

#include <unistd.h>

using namespace oppsla;
using namespace oppsla::serve;

namespace {

telemetry::Gauge &runningGauge() {
  static telemetry::Gauge &G = telemetry::gauge("serve.jobs.running");
  return G;
}
telemetry::Gauge &inflightGauge() {
  static telemetry::Gauge &G = telemetry::gauge("serve.shards.inflight");
  return G;
}
telemetry::Counter &completedCounter() {
  static telemetry::Counter &C = telemetry::counter("serve.jobs.completed");
  return C;
}
telemetry::Counter &failedCounter() {
  static telemetry::Counter &C = telemetry::counter("serve.jobs.failed");
  return C;
}
telemetry::Counter &cancelledCounter() {
  static telemetry::Counter &C = telemetry::counter("serve.jobs.cancelled");
  return C;
}
telemetry::Counter &checkpointCounter() {
  static telemetry::Counter &C =
      telemetry::counter("serve.checkpoints.written");
  return C;
}
/// Per-shard sweep duration distribution (milliseconds), on /metrics as
/// serve.shard.exec_ms.
telemetry::Histogram &shardExecHistogram() {
  static telemetry::Histogram &H = telemetry::histogram(
      "serve.shard.exec_ms", {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                              200.0, 500.0, 1000.0, 2000.0, 5000.0,
                              10000.0, 30000.0, 60000.0});
  return H;
}

TaskKind taskOfSpec(const JobSpec &S) {
  return S.TaskName == "imagenet" ? TaskKind::ImageNetLike
                                  : TaskKind::CifarLike;
}

std::unique_ptr<Attack> makeBaselineAttack(const std::string &Name) {
  if (Name == "sparse-rs")
    return std::make_unique<SparseRS>();
  if (Name == "suopa")
    return std::make_unique<SuOPA>();
  if (Name == "random")
    return std::make_unique<RandomPairSearch>();
  return nullptr;
}

WireRun toWireRun(size_t Index, const AttackRunLog &Log) {
  WireRun R;
  R.Index = static_cast<uint32_t>(Index);
  R.Label = static_cast<uint32_t>(Log.Label);
  R.Outcome = Log.Discarded ? 2 : Log.Success ? 1 : 0;
  R.Queries = Log.Queries;
  return R;
}

} // namespace

JobRunner::JobRunner(JobQueue &Queue, JobRunnerConfig Config)
    : Queue(Queue), Config(std::move(Config)) {
  // Shared-cache clones are the point of pooling jobs per victim; the
  // cache byte-verifies hits, so this is a pure perf setting.
  this->Config.Engine.ShareCacheOnClone = true;
  if (this->Config.CheckpointEvery == 0)
    this->Config.CheckpointEvery = 1;
  // Register the exec histogram up front so /metrics exposes the series
  // before the first shard completes.
  shardExecHistogram();
  std::string Error;
  if (!ensureDir(this->Config.CheckpointDir, Error))
    logError() << "serve: " << Error;
}

JobRunner::~JobRunner() { stop(); }

void JobRunner::start() {
  for (size_t T = 0; T != Config.Workers; ++T)
    Workers.emplace_back([this] { workerLoop(); });
}

void JobRunner::stop() {
  Stopping.store(true, std::memory_order_relaxed);
  Queue.close();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  Workers.clear();
}

void JobRunner::workerLoop() {
  while (std::shared_ptr<Job> J = Queue.pop())
    runJob(J);
}

JobRunner::VictimEntry &JobRunner::victimEntry(const JobSpec &S) {
  const BenchScale Scale = BenchScale::preset(S.ScaleName);
  const TaskKind Task = taskOfSpec(S);
  const Arch A = archFromName(S.ArchName);
  const std::string Stem = victimStem(Task, A, Scale, S.Seed);

  VictimEntry *E;
  {
    std::lock_guard<std::mutex> Lock(PoolMu);
    std::unique_ptr<VictimEntry> &Slot = Victims[Stem];
    if (!Slot)
      Slot = std::make_unique<VictimEntry>();
    E = Slot.get();
  }
  std::lock_guard<std::mutex> Lock(E->Mu);
  if (!E->Victim) {
    E->Victim = makeScaledVictim(Task, A, Scale, S.Seed);
    QueryEngineConfig EC = Config.Engine;
    EC.ShareCacheOnClone = true;
    E->Engine = std::make_unique<QueryEngine>(*E->Victim, EC);
    E->Test = makeTestSet(Task, Scale, S.Seed);
  }
  return *E;
}

/// One sweep job's hold on a clone of its victim's master engine: an idle
/// clone when there is one, a fresh clone otherwise (cloning reads the
/// master's parameters, which moves the process-wide parameter generation
/// and makes every other model repack). The clone goes back to the idle
/// pool when the lease ends, unless an exception ends it: a forward that
/// threw can leave a half-captured delta reference, so that engine is
/// dropped.
class JobRunner::EngineLease {
public:
  explicit EngineLease(VictimEntry &E) : E(E) {
    {
      std::lock_guard<std::mutex> Lock(E.IdleMu);
      if (!E.Idle.empty()) {
        Engine = std::move(E.Idle.back());
        E.Idle.pop_back();
        return;
      }
    }
    std::lock_guard<std::mutex> Lock(E.Mu);
    Engine = E.Engine->clone();
  }
  ~EngineLease() {
    if (!Engine || std::uncaught_exceptions() != Unwinding)
      return;
    std::lock_guard<std::mutex> Lock(E.IdleMu);
    E.Idle.push_back(std::move(Engine));
  }
  Classifier *get() const { return Engine.get(); }

  EngineLease(const EngineLease &) = delete;
  EngineLease &operator=(const EngineLease &) = delete;

private:
  VictimEntry &E;
  std::unique_ptr<Classifier> Engine;
  const int Unwinding = std::uncaught_exceptions();
};

Program JobRunner::classProgram(VictimEntry &E, const JobSpec &S,
                                size_t Label) {
  const BenchScale Scale = BenchScale::preset(S.ScaleName);
  const TaskKind Task = taskOfSpec(S);
  const std::string Stem =
      victimStem(Task, archFromName(S.ArchName), Scale, S.Seed);
  std::lock_guard<std::mutex> Lock(E.Mu);
  auto It = E.ProgramByClass.find(Label);
  if (It != E.ProgramByClass.end())
    return It->second;
  SynthesisRunOptions Opts = Config.Synth;
  Opts.Threads = std::max<size_t>(1, Config.Threads);
  Program P =
      synthesizeClassProgram(*E.Victim, Stem, Task, Scale, Label, S.Seed,
                             Opts);
  E.ProgramByClass.emplace(Label, P);
  return P;
}

bool JobRunner::checkpointJob(Job &J, int64_t Shard) {
  const uint64_t Tok =
      J.Trace ? J.Trace->beginPhase("checkpoint", Shard) : 0;
  std::vector<WireRun> Runs;
  {
    std::lock_guard<std::mutex> Lock(J.Mu);
    Runs = J.Runs;
  }
  std::string Error;
  const std::string Path = jobCheckpointPath(Config.CheckpointDir, J.Id);
  // Checkpoints carry the trace context (so a resumed job keeps its
  // client's trace id); result artifacts embed the canonical trace-free
  // spec and stay byte-identical across trace ids.
  const bool Ok =
      writeCheckpoint(Path, jobSpecJsonWithTrace(J.Spec), Runs, Error);
  if (J.Trace)
    J.Trace->endPhase(Tok);
  if (!Ok) {
    logError() << "serve: " << Error;
    return false;
  }
  checkpointCounter().inc();
  if (telemetry::traceEnabled())
    telemetry::traceEvent("job_checkpoint",
                          {{"job", J.Id},
                           {"done", J.Done.load(std::memory_order_relaxed)},
                           {"total",
                            J.Total.load(std::memory_order_relaxed)}});
  return true;
}

void JobRunner::runJob(const std::shared_ptr<Job> &J) {
  const auto ServiceStart = std::chrono::steady_clock::now();
  JobTrace *T = J->Trace.get();

  // Ambient per-job context for everything this job does on this thread —
  // and, via the sweep harness's context capture, on its pool workers:
  // JSONL trace events and log-ring records carry the trace id, profiler
  // spans re-root under "job.<id>" instead of process-global.
  telemetry::TraceContextScope TraceScope(
      T ? T->traceId() : std::string());
  telemetry::ProfileTaskScope TaskScope(
      telemetry::profilingEnabled()
          ? telemetry::internProfileName("job." + std::to_string(J->Id))
          : nullptr);

  // Phase tiling: "setup" runs from pop until the first sweep (victim
  // construction, synthesis, resume bookkeeping); TailTok holds whichever
  // span is open at Finish time (synth or finalize). Finish closes both —
  // endPhase is a no-op on already-closed tokens — so failure paths never
  // leave a span dangling.
  uint64_t SetupTok = T ? T->beginPhase("setup") : 0;
  uint64_t TailTok = 0;

  runningGauge().add(1.0);
  if (telemetry::traceEnabled())
    telemetry::traceEvent("job_begin",
                          {{"job", J->Id},
                           {"kind", jobKindName(J->Spec.Kind)}});

  auto Finish = [&](JobState Final, const std::string &Error,
                    int64_t Shard = -1) {
    {
      // A finished job keeps only what its status, result and trace
      // endpoints read; the result artifact holds the runs.
      std::lock_guard<std::mutex> Lock(J->Mu);
      if (Final == JobState::Failed)
        J->Error = Error;
      std::vector<WireRun>().swap(J->Runs);
    }
    // Only checkpoints read the traceparent; the JobTrace keeps the id.
    std::string().swap(J->Spec.TraceParent);
    J->State.store(Final, std::memory_order_relaxed);
    switch (Final) {
    case JobState::Done:
      completedCounter().inc();
      recordServiceSample(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        ServiceStart)
              .count());
      break;
    case JobState::Failed:
      failedCounter().inc();
      break;
    case JobState::Cancelled:
      cancelledCounter().inc();
      break;
    default:
      break;
    }
    if (T) {
      T->endPhase(SetupTok);
      T->endPhase(TailTok);
      T->instant(jobStateName(Final), Shard);
    }
    runningGauge().add(-1.0);
    if (telemetry::traceEnabled())
      telemetry::traceEvent("job_end", {{"job", J->Id},
                                        {"state", jobStateName(Final)}});
  };

  try {
    const JobSpec &S = J->Spec;
    const BenchScale Scale = BenchScale::preset(S.ScaleName);
    const uint64_t Budget = S.Budget ? S.Budget : Scale.EvalQueryCap;
    const std::string ResultPath =
        jobResultPath(Config.CheckpointDir, J->Id);
    const std::string CkptPath =
        jobCheckpointPath(Config.CheckpointDir, J->Id);

    VictimEntry &E = victimEntry(S);

    if (S.Kind == JobKind::Synth) {
      // One class at a time: each class either rehydrates from the
      // program store or fans its islands out, and Done ticks per class
      // so the job status shows live synthesis progress. No mid-job
      // checkpointing — the store itself is the durable state.
      J->Total.store(Scale.NumClasses, std::memory_order_relaxed);
      if (T) {
        T->endPhase(SetupTok);
        TailTok = T->beginPhase("synth");
      }
      std::vector<Program> Programs;
      for (size_t Label = 0; Label != Scale.NumClasses; ++Label) {
        if (J->CancelRequested.load(std::memory_order_relaxed))
          return Finish(JobState::Cancelled, "",
                        static_cast<int64_t>(Label));
        Programs.push_back(classProgram(E, S, Label));
        J->Done.fetch_add(1, std::memory_order_relaxed);
      }
      WireBuilder B;
      B.addJobSpecJson(jobSpecJson(S));
      for (const Program &P : Programs)
        B.addProgram(P.str());
      std::string Error;
      if (!writeFileAtomic(ResultPath, B.finish(), Error))
        return Finish(JobState::Failed, Error);
      J->Done.store(Scale.NumClasses, std::memory_order_relaxed);
      return Finish(JobState::Done, "");
    }

    // Sweep jobs: slice the victim's test set.
    const Dataset &Test = E.Test;
    const size_t Begin = std::min<size_t>(S.Begin, Test.size());
    const size_t End =
        S.Count ? std::min<size_t>(Begin + S.Count, Test.size())
                : Test.size();
    J->Total.store(End - Begin, std::memory_order_relaxed);

    std::vector<Program> EvalPrograms;
    const std::vector<Program> *Programs = nullptr;
    std::unique_ptr<Attack> BaselineAttack;
    if (S.Kind == JobKind::Eval) {
      for (size_t Label = 0; Label != Scale.NumClasses; ++Label) {
        if (J->CancelRequested.load(std::memory_order_relaxed))
          return Finish(JobState::Cancelled, "",
                        static_cast<int64_t>(Label));
        EvalPrograms.push_back(classProgram(E, S, Label));
      }
      Programs = &EvalPrograms;
    } else {
      BaselineAttack = makeBaselineAttack(S.AttackName);
      if (!BaselineAttack)
        return Finish(JobState::Failed,
                      "unknown attack '" + S.AttackName + "'");
    }

    // The job's engine: a leased clone of the victim's master engine,
    // sharing its ScoreCache with every other job on this victim. The
    // sweep harness clones it again per worker; those clones share too.
    const EngineLease Lease(E);
    Classifier *Cls = Lease.get();
    if (!Cls)
      return Finish(JobState::Failed, "victim classifier not cloneable");

    // Indices still missing (a resumed job arrives with runs preloaded).
    std::set<uint32_t> Have;
    {
      std::lock_guard<std::mutex> Lock(J->Mu);
      for (const WireRun &R : J->Runs)
        Have.insert(R.Index);
    }
    J->Done.store(Have.size(), std::memory_order_relaxed);
    std::vector<size_t> Pending;
    for (size_t I = Begin; I != End; ++I)
      if (!Have.count(static_cast<uint32_t>(I)))
        Pending.push_back(I);

    if (T)
      T->endPhase(SetupTok);

    bool Suspended = false;
    size_t ShardIdx = 0; ///< next shard to sweep (also the cancel marker)
    for (size_t Off = 0; Off < Pending.size();
         Off += Config.CheckpointEvery, ++ShardIdx) {
      if (J->CancelRequested.load(std::memory_order_relaxed))
        break;
      if (Stopping.load(std::memory_order_relaxed)) {
        Suspended = true;
        break;
      }
      const size_t ShardEnd =
          std::min(Off + Config.CheckpointEvery, Pending.size());

      Dataset Shard;
      Shard.NumClasses = Test.NumClasses;
      for (size_t K = Off; K != ShardEnd; ++K) {
        Shard.Images.push_back(Test.Images[Pending[K]]);
        Shard.Labels.push_back(Test.Labels[Pending[K]]);
      }

      const uint64_t ShardTok =
          T ? T->beginPhase("shard", static_cast<int64_t>(ShardIdx)) : 0;
      telemetry::ScopedTimer ShardTimer; // histogram fed in ms below
      Inflight.fetch_add(1, std::memory_order_relaxed);
      inflightGauge().set(
          static_cast<double>(Inflight.load(std::memory_order_relaxed)));
      std::vector<AttackRunLog> Logs =
          S.Kind == JobKind::Eval
              ? runProgramsOverSet(*Programs, *Cls, Shard, Budget,
                                   Config.Threads)
              : runAttackOverSet(*BaselineAttack, *Cls, Shard, Budget,
                                 Config.Threads);
      Inflight.fetch_sub(1, std::memory_order_relaxed);
      inflightGauge().set(
          static_cast<double>(Inflight.load(std::memory_order_relaxed)));
      shardExecHistogram().observe(ShardTimer.seconds() * 1e3);
      if (T)
        T->endPhase(ShardTok);

      {
        std::lock_guard<std::mutex> Lock(J->Mu);
        for (size_t K = Off; K != ShardEnd; ++K)
          J->Runs.push_back(toWireRun(Pending[K], Logs[K - Off]));
      }
      J->Done.fetch_add(ShardEnd - Off, std::memory_order_relaxed);
      checkpointJob(*J, static_cast<int64_t>(ShardIdx));

      if (Config.OnShardDone)
        Config.OnShardDone(J->Id, ShardIdx);

      const size_t CompletedNow = ImagesCompleted.fetch_add(
                                      ShardEnd - Off,
                                      std::memory_order_relaxed) +
                                  (ShardEnd - Off);
      if (Config.CrashAfterImages &&
          CompletedNow >= Config.CrashAfterImages) {
        // Crash-injection hook: die without unwinding, exactly as a
        // kill -9 would — the checkpoint just written is all that
        // survives. Only reachable under --crash-after-images.
        ::_exit(3);
      }
    }

    if (J->CancelRequested.load(std::memory_order_relaxed)) {
      std::remove(CkptPath.c_str()); // a cancelled job never resumes
      // ShardIdx is the first shard that did NOT run — the cancellation
      // boundary the trace instant reports.
      return Finish(JobState::Cancelled, "",
                    static_cast<int64_t>(ShardIdx));
    }
    if (Suspended) {
      // Checkpoint reflects every finished shard; hand the job back so a
      // restart (or this process, were the queue reopened) resumes it.
      checkpointJob(*J);
      if (T) {
        T->instant("suspended", static_cast<int64_t>(ShardIdx));
      }
      Queue.enqueue(J, /*Force=*/true);
      runningGauge().add(-1.0);
      if (telemetry::traceEnabled())
        telemetry::traceEvent("job_end",
                              {{"job", J->Id}, {"state", "suspended"}});
      return;
    }

    if (T)
      TailTok = T->beginPhase("finalize");

    // Complete: render the result artifact (runs in index order — see
    // writeCheckpoint — so resumed and uninterrupted runs match bytes).
    std::vector<WireRun> Runs;
    {
      std::lock_guard<std::mutex> Lock(J->Mu);
      Runs.swap(J->Runs);
    }
    std::sort(Runs.begin(), Runs.end(),
              [](const WireRun &A, const WireRun &B) {
                return A.Index < B.Index;
              });
    WireBuilder B;
    B.addJobSpecJson(jobSpecJson(S));
    for (const WireRun &R : Runs)
      B.addRun(R);
    std::string Error;
    if (!writeFileAtomic(ResultPath, B.finish(), Error))
      return Finish(JobState::Failed, Error);
    std::remove(CkptPath.c_str());
    return Finish(JobState::Done, "");
  } catch (const std::exception &Ex) {
    return Finish(JobState::Failed, Ex.what());
  }
}

void JobRunner::recordServiceSample(double Seconds) {
  std::lock_guard<std::mutex> Lock(ServiceMu);
  if (ServiceSamples.size() < ServiceWindow)
    ServiceSamples.push_back(Seconds);
  else
    ServiceSamples[ServiceCount % ServiceWindow] = Seconds;
  ++ServiceCount;
}

double JobRunner::medianServiceSeconds() const {
  std::vector<double> S;
  {
    std::lock_guard<std::mutex> Lock(ServiceMu);
    S = ServiceSamples;
  }
  if (S.empty())
    return 0.0;
  const size_t Mid = S.size() / 2;
  std::nth_element(S.begin(), S.begin() + Mid, S.end());
  if (S.size() % 2 != 0)
    return S[Mid];
  return (S[Mid] + *std::max_element(S.begin(), S.begin() + Mid)) / 2.0;
}

size_t JobRunner::resume() {
  size_t Readmitted = 0;
  for (const RecoveredJob &R : scanCheckpointDir(Config.CheckpointDir)) {
    std::string Error;
    if (R.Finished) {
      WireContents C;
      if (!readWireFile(R.Path, C, Error)) {
        logError() << "serve: skipping " << R.Path << ": " << Error;
        continue;
      }
      JobSpec S;
      if (!parseJobSpec(C.JobSpecJson, S, Error)) {
        logError() << "serve: skipping " << R.Path << ": " << Error;
        continue;
      }
      auto J = std::make_shared<Job>();
      J->Id = R.Id;
      J->Spec = S;
      const size_t N =
          S.Kind == JobKind::Synth ? C.Programs.size() : C.Runs.size();
      J->Done.store(N, std::memory_order_relaxed);
      J->Total.store(N, std::memory_order_relaxed);
      J->State.store(JobState::Done, std::memory_order_relaxed);
      Queue.adopt(J);
      continue;
    }

    std::string SpecJson;
    std::vector<WireRun> Runs;
    if (!loadCheckpoint(R.Path, SpecJson, Runs, Error)) {
      logError() << "serve: skipping " << R.Path << ": " << Error;
      continue;
    }
    JobSpec S;
    if (!parseJobSpec(SpecJson, S, Error)) {
      logError() << "serve: skipping " << R.Path << ": " << Error;
      continue;
    }
    auto J = std::make_shared<Job>();
    J->Id = R.Id;
    J->Spec = S;
    {
      std::lock_guard<std::mutex> Lock(J->Mu);
      J->Runs = std::move(Runs);
      J->Done.store(J->Runs.size(), std::memory_order_relaxed);
    }
    Queue.adopt(J);
    Queue.enqueue(J, /*Force=*/true);
    ++Readmitted;
  }
  return Readmitted;
}
