//===- serve/JobQueue.cpp - Bounded priority job queue -----------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/JobQueue.h"

#include "support/Json.h"
#include "support/Metrics.h"

#include <algorithm>

using namespace oppsla;
using namespace oppsla::serve;

const char *serve::jobKindName(JobKind K) {
  switch (K) {
  case JobKind::Attack:
    return "attack";
  case JobKind::Eval:
    return "eval";
  case JobKind::Synth:
    return "synth";
  }
  return "unknown";
}

const char *serve::jobStateName(JobState S) {
  switch (S) {
  case JobState::Queued:
    return "queued";
  case JobState::Running:
    return "running";
  case JobState::Done:
    return "done";
  case JobState::Failed:
    return "failed";
  case JobState::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

bool serve::parseJobSpec(const std::string &JsonText, JobSpec &Out,
                         std::string &Error) {
  json::Value Doc;
  if (!json::parse(JsonText, Doc, Error))
    return false;
  if (!Doc.isObject()) {
    Error = "job spec must be a JSON object";
    return false;
  }

  JobSpec S;
  const std::string Kind = Doc.getString("kind", "eval");
  if (Kind == "attack")
    S.Kind = JobKind::Attack;
  else if (Kind == "eval")
    S.Kind = JobKind::Eval;
  else if (Kind == "synth")
    S.Kind = JobKind::Synth;
  else {
    Error = "unknown kind '" + Kind + "' (want attack|eval|synth)";
    return false;
  }

  S.AttackName = Doc.getString("attack", S.AttackName);
  if (S.Kind == JobKind::Attack && S.AttackName != "sparse-rs" &&
      S.AttackName != "suopa" && S.AttackName != "random") {
    Error = "unknown attack '" + S.AttackName +
            "' (want sparse-rs|suopa|random)";
    return false;
  }

  // The victim triple: either a nested {"victim":{...}} object or flat
  // task/arch/scale keys.
  const json::Value *Victim = Doc.find("victim");
  const json::Value &V = Victim && Victim->isObject() ? *Victim : Doc;
  S.TaskName = V.getString("task", S.TaskName);
  if (S.TaskName != "cifar" && S.TaskName != "imagenet") {
    Error = "unknown task '" + S.TaskName + "' (want cifar|imagenet)";
    return false;
  }
  S.ArchName = V.getString("arch", S.ArchName);
  S.ScaleName = V.getString("scale", S.ScaleName);
  if (S.ScaleName != "smoke" && S.ScaleName != "small" &&
      S.ScaleName != "paper") {
    Error = "unknown scale '" + S.ScaleName + "' (want smoke|small|paper)";
    return false;
  }

  S.Seed = static_cast<uint64_t>(
      Doc.getNumber("seed", static_cast<double>(S.Seed)));
  S.Budget = static_cast<uint64_t>(Doc.getNumber("budget", 0.0));
  S.Priority = static_cast<int>(Doc.getNumber("priority", 0.0));

  const json::Value *Slice = Doc.find("slice");
  if (Slice && Slice->isObject()) {
    S.Begin = static_cast<uint64_t>(Slice->getNumber("begin", 0.0));
    S.Count = static_cast<uint64_t>(Slice->getNumber("count", 0.0));
  } else {
    S.Begin = static_cast<uint64_t>(Doc.getNumber("begin", 0.0));
    S.Count = static_cast<uint64_t>(Doc.getNumber("count", 0.0));
  }

  // Optional trace context (checkpoint records round-trip it so a resumed
  // job keeps its client's trace id). Malformed values are dropped, not
  // errors — observability never rejects work.
  const std::string Trace = Doc.getString("trace", "");
  telemetry::TraceContext Ctx;
  if (telemetry::parseTraceparent(Trace, Ctx))
    S.TraceParent = Ctx.traceparent();

  Out = std::move(S);
  return true;
}

std::string serve::jobSpecJson(const JobSpec &Spec) {
  std::string Out = "{\"kind\":\"";
  Out += jobKindName(Spec.Kind);
  Out += "\"";
  if (Spec.Kind == JobKind::Attack) {
    Out += ",\"attack\":\"";
    json::escape(Out, Spec.AttackName);
    Out += "\"";
  }
  Out += ",\"victim\":{\"task\":\"";
  json::escape(Out, Spec.TaskName);
  Out += "\",\"arch\":\"";
  json::escape(Out, Spec.ArchName);
  Out += "\",\"scale\":\"";
  json::escape(Out, Spec.ScaleName);
  Out += "\"},\"seed\":" + std::to_string(Spec.Seed) +
         ",\"budget\":" + std::to_string(Spec.Budget) +
         ",\"priority\":" + std::to_string(Spec.Priority) +
         ",\"slice\":{\"begin\":" + std::to_string(Spec.Begin) +
         ",\"count\":" + std::to_string(Spec.Count) + "}}";
  return Out;
}

std::string serve::jobSpecJsonWithTrace(const JobSpec &Spec) {
  std::string Out = jobSpecJson(Spec);
  if (Spec.TraceParent.empty())
    return Out;
  Out.pop_back(); // reopen the object
  Out += ",\"trace\":\"";
  json::escape(Out, Spec.TraceParent);
  Out += "\"}";
  return Out;
}

namespace {

/// Queue-wait distribution in milliseconds, fed by pop() from the same
/// clock reads that close the "queued" phase span.
telemetry::Histogram &queueWaitHistogram() {
  static telemetry::Histogram &H = telemetry::histogram(
      "serve.queue.wait_ms", {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                              500.0, 1000.0, 2000.0, 5000.0, 10000.0,
                              30000.0, 60000.0});
  return H;
}

/// Builds the job's timeline when tracing is on: adopt the traceparent the
/// spec carries (client-minted or checkpoint-round-tripped), else mint.
std::unique_ptr<JobTrace> makeJobTrace(uint64_t Id, JobSpec &Spec) {
  if (!jobTracingEnabled())
    return nullptr;
  telemetry::TraceContext Ctx;
  if (!telemetry::parseTraceparent(Spec.TraceParent, Ctx))
    Ctx = telemetry::mintTraceContext();
  Spec.TraceParent = Ctx.traceparent();
  return std::make_unique<JobTrace>(Id, std::move(Ctx));
}

} // namespace

JobQueue::JobQueue(size_t Capacity) : Capacity(std::max<size_t>(1, Capacity)) {
  updateDepthGauge(0);
  // Register the wait histogram up front so /metrics exposes the series
  // (with zero observations) before the first pop, not after.
  queueWaitHistogram();
}

void JobQueue::updateDepthGauge(size_t Depth) const {
  static telemetry::Gauge &G = telemetry::gauge("serve.queue.depth");
  G.set(static_cast<double>(Depth));
}

std::shared_ptr<Job> JobQueue::create(const JobSpec &Spec) {
  auto J = std::make_shared<Job>();
  J->Spec = Spec;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    J->Id = NextId++;
  }
  // Build the timeline before the job becomes findable, so Job::Trace is
  // immutable once any other thread can see the job.
  J->Trace = makeJobTrace(J->Id, J->Spec);
  std::lock_guard<std::mutex> Lock(Mu);
  Registry[J->Id] = J;
  return J;
}

void JobQueue::adopt(const std::shared_ptr<Job> &J) {
  if (!J->Trace)
    J->Trace = makeJobTrace(J->Id, J->Spec);
  std::lock_guard<std::mutex> Lock(Mu);
  Registry[J->Id] = J;
  NextId = std::max(NextId, J->Id + 1);
}

bool JobQueue::enqueue(const std::shared_ptr<Job> &J, bool Force) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Force && Queued.size() >= Capacity)
      return false;
    J->State.store(JobState::Queued, std::memory_order_relaxed);
    Queued.push_back(J);
    updateDepthGauge(Queued.size());
  }
  if (J->Trace)
    J->QueuedToken.store(J->Trace->beginPhase("queued"),
                         std::memory_order_release);
  Ready.notify_one();
  return true;
}

void JobQueue::closeQueuedPhase(Job &J, bool ObserveWait) {
  if (!J.Trace)
    return;
  const uint64_t Token =
      J.QueuedToken.exchange(0, std::memory_order_acq_rel);
  if (Token == 0)
    return;
  const uint64_t WaitNs = J.Trace->endPhase(Token);
  if (ObserveWait)
    queueWaitHistogram().observe(static_cast<double>(WaitNs) / 1e6);
}

std::shared_ptr<Job> JobQueue::pop() {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    Ready.wait(Lock, [this] { return Closed || !Queued.empty(); });
    if (Closed)
      return nullptr;

    // Drop jobs cancelled while queued, then take the highest-priority
    // survivor (FIFO within a level: the deque keeps submission order, so
    // the first max-priority hit is the oldest).
    Queued.erase(std::remove_if(Queued.begin(), Queued.end(),
                                [](const std::shared_ptr<Job> &J) {
                                  return J->State.load(
                                             std::memory_order_relaxed) ==
                                         JobState::Cancelled;
                                }),
                 Queued.end());
    if (Queued.empty()) {
      updateDepthGauge(0);
      continue;
    }
    auto Best = Queued.begin();
    for (auto It = std::next(Best); It != Queued.end(); ++It)
      if ((*It)->Spec.Priority > (*Best)->Spec.Priority)
        Best = It;
    std::shared_ptr<Job> J = *Best;
    Queued.erase(Best);
    updateDepthGauge(Queued.size());
    J->State.store(JobState::Running, std::memory_order_relaxed);
    Lock.unlock();
    closeQueuedPhase(*J, /*ObserveWait=*/true);
    return J;
  }
}

void JobQueue::close() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Closed = true;
  }
  Ready.notify_all();
}

bool JobQueue::closed() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Closed;
}

bool JobQueue::cancel(uint64_t Id) {
  std::shared_ptr<Job> J;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    const auto It = Registry.find(Id);
    if (It == Registry.end())
      return false;
    J = It->second;
  }
  JobState Expected = JobState::Queued;
  if (J->State.compare_exchange_strong(Expected, JobState::Cancelled,
                                       std::memory_order_relaxed)) {
    // pop() lazily removes it from the deque.
    J->CancelRequested.store(true, std::memory_order_relaxed);
    closeQueuedPhase(*J, /*ObserveWait=*/false);
    if (J->Trace)
      J->Trace->instant("cancelled");
    return true;
  }
  if (Expected == JobState::Running) {
    J->CancelRequested.store(true, std::memory_order_relaxed);
    return true;
  }
  return false; // already finished
}

std::shared_ptr<Job> JobQueue::find(uint64_t Id) const {
  std::lock_guard<std::mutex> Lock(Mu);
  const auto It = Registry.find(Id);
  return It == Registry.end() ? nullptr : It->second;
}

std::vector<std::shared_ptr<Job>> JobQueue::all() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::shared_ptr<Job>> Out;
  Out.reserve(Registry.size());
  for (const auto &[Id, J] : Registry)
    Out.push_back(J);
  return Out;
}

size_t JobQueue::depth() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  for (const auto &J : Queued)
    N += J->State.load(std::memory_order_relaxed) == JobState::Queued;
  return N;
}
