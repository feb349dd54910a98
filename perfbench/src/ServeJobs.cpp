//===- perfbench/src/ServeJobs.cpp - The serve_jobs workload --------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Jobs against an in-process `oppsla serve`: ServeServer, JobQueue and
// JobRunner over loopback HTTP. Every job attacks or evaluates a slice of
// JobImages test images of one pooled smoke victim. Nearly every query
// hits the pool's shared cache, so the per-job costs (HTTP, queueing,
// checkpoint writes, the OPWF artifact and job tracing) dominate. Kinds
// (random / sparse-rs / suopa attack jobs and eval jobs) follow the mix of
// workloads.json; kinds, victims and slices are drawn from --seed.
//
// A run makes two passes over one server, with the filesystem flushed
// between them:
//   - an open loop over a third of --seconds: one generator thread sends
//     jobs at Poisson arrival times of the configured rate. Each job is
//     timed from its scheduled send until its artifact is parsed, so a
//     stall also delays the jobs scheduled behind it; the generator's
//     lateness is reported too. This gives the job latencies.
//   - a closed loop over the rest: the generator keeps InFlightPerWorker
//     jobs per runner worker outstanding, so the workers never wait for
//     work. Its completion rate is the server's capacity, ops_per_s.
// A collector thread notices a finished job through the public
// JobQueue::find (a status poll over HTTP would load the server at the
// poll cadence), downloads the result artifact and parses it. The op is
// one job.
//
// The traced run replays the closed loop, where the server is busy all
// the time: an untraced pass, then a traced pass over the same jobs on a
// fresh server.
//
// Every artifact must pass wire::parseWire's CRC checks and carry exactly
// the runs an offline sweep of the same slice gives.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "attacks/RandomPairSearch.h"
#include "attacks/SparseRS.h"
#include "attacks/SuOPA.h"
#include "engine/QueryEngine.h"
#include "eval/Evaluation.h"
#include "serve/JobQueue.h"
#include "serve/JobRunner.h"
#include "serve/ServeServer.h"
#include "support/Http.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace oppsla;

namespace perfbench {

namespace {

constexpr size_t NumKinds = 4;
/// Job kinds of the mix; the first three are attack jobs.
const std::array<const char *, NumKinds> KindNames = {"random", "sparse-rs",
                                                      "suopa", "eval"};

/// Deep enough that a burst never finds the queue full: a refused (429)
/// job counts as a failed operation.
constexpr size_t QueueCapacity = 256;
/// Jobs the closed loop keeps outstanding per runner worker: enough that a
/// worker finds a queued job whenever it finishes one, while the client
/// fetches results.
constexpr size_t InFlightPerWorker = 4;
/// Test images per job: one shard at the server's default checkpoint
/// cadence, so every job makes one checkpoint and one result artifact.
constexpr size_t JobImages = 4;
/// Closed-loop plans drawn per second of the pass, several times the
/// capacity of the development host; a pass that uses them all ends early.
constexpr double ClosedLoopPlansPerS = 4000.0;
/// How long a pass waits for its outstanding jobs after the last send.
constexpr double DrainTimeoutS = 20.0;

struct JobPlan {
  double DueS = 0.0; ///< open loop: send time after the pass starts
  size_t Kind = 0;
  size_t Victim = 0;
  size_t Image = 0; ///< index of the job's first test image
};

/// The server stack of one pass, torn down in reverse order.
struct Server {
  std::unique_ptr<serve::JobQueue> Queue;
  std::unique_ptr<serve::JobRunner> Runner;
  std::unique_ptr<serve::ServeServer> Http;

  ~Server() {
    if (Http)
      Http->stop();
    if (Runner)
      Runner->stop();
  }
};

struct Setting {
  BenchScale Scale;
  std::vector<Victim> Victims; ///< reference-side copies
  size_t TestSize = 0;
  /// Offline runs per (victim, kind), indexed by test image.
  std::vector<std::array<std::vector<wire::WireRun>, NumKinds>> Expected;
};

std::string jobBody(const Setting &S, const JobPlan &P) {
  const Victim &V = S.Victims[P.Victim];
  const bool Eval = P.Kind == 3;
  std::string B = "{\"kind\":\"";
  B += Eval ? "eval\"" : std::string("attack\",\"attack\":\"") +
                             KindNames[P.Kind] + "\"";
  B += ",\"victim\":{\"task\":\"" + V.taskName() + "\",\"arch\":\"" +
       V.archName() + "\",\"scale\":\"" + S.Scale.Name + "\"},\"seed\":" +
       std::to_string(VictimSeed) + ",\"budget\":" + std::to_string(Budget) +
       ",\"slice\":{\"begin\":" + std::to_string(P.Image) +
       ",\"count\":" + std::to_string(JobImages) + "}}";
  return B;
}

/// Draws jobs from --seed: a kind from the mix, a victim and a slice.
class JobDraw {
public:
  JobDraw(const Options &O, const Setting &S, uint64_t Stream)
      : S(S), R(deriveSeed(O.Seed, Stream)) {
    const json::Value *Mix = O.Knobs.find("mix");
    for (size_t K = 0; K != NumKinds; ++K)
      Total += Weight[K] = Mix ? Mix->getNumber(KindNames[K], 0.0) : 0.0;
  }

  Rng &rng() { return R; }

  JobPlan next(double DueS) {
    JobPlan P;
    P.DueS = DueS;
    double Pick = R.uniform() * Total;
    while (P.Kind + 1 < NumKinds && Pick >= Weight[P.Kind])
      Pick -= Weight[P.Kind++];
    P.Victim = R.bounded(S.Victims.size());
    P.Image = R.bounded(S.TestSize - JobImages + 1);
    return P;
  }

private:
  const Setting &S;
  Rng R;
  std::array<double, NumKinds> Weight{};
  double Total = 0.0;
};

/// Open-loop jobs: Poisson arrivals at the configured rate over
/// [0, Seconds).
std::vector<JobPlan> openLoopPlans(const Options &O, const Setting &S,
                                   double Seconds) {
  JobDraw D(O, S, 0x5e7e);
  const double Rate = O.knob("rate_per_s");
  std::vector<JobPlan> Plans;
  for (double T = 0.0;;) {
    T += -std::log(1.0 - D.rng().uniform()) / Rate;
    if (T >= Seconds)
      return Plans;
    Plans.push_back(D.next(T));
  }
}

/// Closed-loop jobs: enough for a pass of \p Seconds.
std::vector<JobPlan> closedLoopPlans(const Options &O, const Setting &S,
                                     double Seconds) {
  JobDraw D(O, S, 0xc105ed);
  std::vector<JobPlan> Plans(
      static_cast<size_t>(std::ceil(Seconds * ClosedLoopPlansPerS)));
  for (JobPlan &P : Plans)
    P = D.next(0.0);
  return Plans;
}

serve::JobRunnerConfig runnerConfig(const Options &O) {
  serve::JobRunnerConfig RC;
  RC.CheckpointDir = O.StateDir + "/serve-ckpt";
  RC.Workers = static_cast<size_t>(O.knob("workers"));
  RC.Threads = static_cast<size_t>(O.knob("sweep_threads"));
  RC.Synth = storedProgramOptions(O);
  return RC;
}

/// One request to 127.0.0.1:\p Port, sent as http::request sends it, but
/// the connection is reset once the response is read. http::request closes
/// normally, which leaves the server's socket in TIME_WAIT for a minute: at
/// thousands of jobs per run those piled up across runs and multiplied the
/// kernel time per job by six on the development host, so a run depended
/// on the runs before it.
bool httpCall(uint16_t Port, const std::string &Method,
              const std::string &Target, const std::string &Body,
              http::Response &Resp, const char *SpanName) {
  ScopedSpan S(SpanName);
  const int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return false;
  const timeval Timeout = {10, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof(Timeout));
  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  std::string Raw = Method + " " + Target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!Body.empty())
    Raw += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(Body.size()) + "\r\n";
  Raw += "Connection: close\r\n\r\n" + Body;
  bool Ok = ::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                      sizeof(Addr)) == 0;
  for (size_t Sent = 0; Ok && Sent != Raw.size();) {
    const ssize_t N = ::send(Fd, Raw.data() + Sent, Raw.size() - Sent,
                             MSG_NOSIGNAL);
    Ok = N > 0 || (N < 0 && errno == EINTR);
    Sent += N > 0 ? static_cast<size_t>(N) : 0;
  }
  Raw.clear();
  char Chunk[4096];
  while (Ok) {
    const ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N == 0)
      break;
    Ok = N > 0 || errno == EINTR;
    if (N > 0)
      Raw.append(Chunk, static_cast<size_t>(N));
  }
  const linger Reset = {1, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_LINGER, &Reset, sizeof(Reset));
  ::close(Fd);
  // "HTTP/1.1 <code> <reason>\r\n...\r\n\r\n<body>"
  const size_t HeadEnd = Raw.find("\r\n\r\n");
  if (!Ok || Raw.compare(0, 5, "HTTP/") != 0 || HeadEnd == std::string::npos)
    return false;
  Resp.Status = std::atoi(Raw.c_str() + Raw.find(' ') + 1);
  Resp.Body = Raw.substr(HeadEnd + 4);
  return true;
}

uint64_t submittedId(const http::Response &Resp) {
  json::Value Doc;
  std::string Error;
  if (Resp.Status != 202 || !json::parse(Resp.Body, Doc, Error))
    return 0;
  return static_cast<uint64_t>(Doc.getNumber("id", 0.0));
}

/// Blocks until job \p Id leaves the queued/running states.
serve::JobState waitFinished(serve::JobQueue &Q, uint64_t Id) {
  for (;;) {
    std::shared_ptr<serve::Job> J = Q.find(Id);
    const serve::JobState St = J ? J->State.load() : serve::JobState::Failed;
    if (St != serve::JobState::Queued && St != serve::JobState::Running)
      return St;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Builds a fresh server stack on an empty checkpoint directory and warms
/// its victim pool with one small eval job per victim.
std::unique_ptr<Server> setUpServer(const Options &O, const Setting &S,
                                    Sheet &Out) {
  const serve::JobRunnerConfig RC = runnerConfig(O);
  std::error_code EC;
  std::filesystem::remove_all(RC.CheckpointDir, EC);
  auto Srv = std::make_unique<Server>();
  Srv->Queue = std::make_unique<serve::JobQueue>(QueueCapacity);
  Srv->Runner = std::make_unique<serve::JobRunner>(*Srv->Queue, RC);
  Srv->Http = std::make_unique<serve::ServeServer>(*Srv->Queue, *Srv->Runner);
  if (!Srv->Http->start()) {
    Out.fail("serve: cannot bind the HTTP listener");
    return nullptr;
  }
  Srv->Runner->start();
  for (size_t V = 0; V != S.Victims.size(); ++V) {
    JobPlan Warm;
    Warm.Kind = 3;
    Warm.Victim = V;
    http::Response Resp;
    const uint64_t Id =
        httpCall(Srv->Http->port(), "POST", "/v1/jobs", jobBody(S, Warm),
                 Resp, "http.submit")
            ? submittedId(Resp)
            : 0;
    if (!Id || waitFinished(*Srv->Queue, Id) != serve::JobState::Done) {
      Out.fail("serve: warm-up job for " + S.Victims[V].Name + " failed");
      return nullptr;
    }
  }
  return Srv;
}

/// One job's client-side record.
struct JobRecord {
  uint64_t Id = 0;
  int Status = 0;          ///< submit HTTP status
  bool Ok = false;         ///< artifact fetched, parsed and checked
  uint64_t SubmitNs = 0;   ///< submit span start
  double LateMs = 0.0;     ///< send time minus due time
  double LatencyMs = 0.0;  ///< due time to parsed artifact
  std::string Artifact;
  std::string Problem;
};

struct Pass {
  std::vector<JobRecord> Jobs; ///< one per plan; the first Sent were sent
  size_t Sent = 0;
  double Seconds = 0.0; ///< pass start to last completion
  CpuTimes Cpu; ///< process CPU time over the pass
  uint64_t BeginNs = 0, EndNs = 0;
  uint64_t Requests = 0; ///< HTTP requests on the job path
  std::vector<double> ParseUs;
};

void checkArtifact(const Setting &S, const JobPlan &P, JobRecord &R,
                   std::vector<double> &ParseUs) {
  wire::WireContents C;
  std::string Error;
  const uint64_t T0 = nowNs();
  bool Parsed;
  {
    ScopedSpan Sp("wire.parse");
    Parsed = wire::parseWire(R.Artifact, C, Error);
  }
  ParseUs.push_back(static_cast<double>(nowNs() - T0) * 1e-3);
  if (!Parsed) {
    R.Problem = "artifact does not parse: " + Error;
    return;
  }
  if (C.Runs.size() != JobImages) {
    R.Problem = "artifact holds " + std::to_string(C.Runs.size()) + " runs";
    return;
  }
  for (size_t K = 0; K != JobImages; ++K)
    if (!(C.Runs[K] == S.Expected[P.Victim][P.Kind][P.Image + K])) {
      R.Problem = "run " + std::to_string(P.Image + K) +
                  " differs from the offline sweep";
      return;
    }
  R.Ok = true;
}

/// Sends \p Plans to \p Srv. With \p InFlight 0 this is the open loop:
/// each job is sent at its due time. Otherwise it is a closed loop that
/// keeps \p InFlight jobs outstanding and, when \p SendForS is positive,
/// stops sending after that many seconds.
Pass runPass(const Setting &S, Server &Srv, const std::vector<JobPlan> &Plans,
             size_t InFlight, double SendForS, bool Traced) {
  Pass P;
  P.Jobs.resize(Plans.size());
  const uint16_t Port = Srv.Http->port();
  std::mutex Mu; ///< guards Pending, Outstanding, GenDone and the hand-off
  std::condition_variable Ready, Room;
  std::deque<size_t> Pending;
  size_t Outstanding = 0; ///< sent jobs not yet collected
  bool GenDone = false;
  Clock::time_point GenDoneAt;
  std::atomic<uint64_t> Requests{0}; ///< HTTP requests on the job path

  setRecording(Traced);
  P.BeginNs = nowNs();
  const auto T0 = Clock::now();
  const CpuTimes Cpu0 = processCpu();
  auto dueAt = [&](size_t I) {
    return T0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Plans[I].DueS));
  };

  std::thread Generator([&] {
    size_t I = 0;
    for (; I != Plans.size(); ++I) {
      if (InFlight == 0) {
        std::this_thread::sleep_until(dueAt(I));
      } else {
        if (SendForS > 0 && secondsSince(T0) >= SendForS)
          break;
        std::unique_lock<std::mutex> Lock(Mu);
        Room.wait(Lock, [&] { return Outstanding < InFlight; });
      }
      JobRecord &R = P.Jobs[I];
      setSpanContext(I + 1, -1, static_cast<int>(Plans[I].Victim));
      R.SubmitNs = nowNs();
      R.LateMs =
          std::chrono::duration<double, std::milli>(Clock::now() - dueAt(I))
              .count();
      http::Response Resp;
      Requests.fetch_add(1, std::memory_order_relaxed);
      if (httpCall(Port, "POST", "/v1/jobs", jobBody(S, Plans[I]), Resp,
                   "http.submit")) {
        R.Status = Resp.Status;
        R.Id = submittedId(Resp);
      }
      std::lock_guard<std::mutex> Lock(Mu);
      if (R.Id) {
        Pending.push_back(I);
        ++Outstanding;
      } else {
        R.Problem = "submit answered HTTP " + std::to_string(R.Status);
      }
      Ready.notify_one();
    }
    std::lock_guard<std::mutex> Lock(Mu);
    P.Sent = I;
    GenDone = true;
    GenDoneAt = Clock::now();
    Ready.notify_one();
  });

  Clock::time_point LastDone = T0;
  std::vector<size_t> Open;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(Mu);
      while (!Pending.empty()) {
        Open.push_back(Pending.front());
        Pending.pop_front();
      }
      if (Open.empty()) {
        if (GenDone)
          break;
        Ready.wait(Lock, [&] { return GenDone || !Pending.empty(); });
        continue;
      }
    }
    size_t Collected = 0;
    for (size_t K = 0; K != Open.size();) {
      const size_t I = Open[K];
      JobRecord &R = P.Jobs[I];
      std::shared_ptr<serve::Job> J = Srv.Queue->find(R.Id);
      const serve::JobState St = J ? J->State.load() : serve::JobState::Failed;
      if (St == serve::JobState::Queued || St == serve::JobState::Running) {
        ++K;
        continue;
      }
      setSpanContext(I + 1, -1, static_cast<int>(Plans[I].Victim));
      if (St == serve::JobState::Done) {
        http::Response Resp;
        Requests.fetch_add(1, std::memory_order_relaxed);
        if (httpCall(Port, "GET",
                     "/v1/jobs/" + std::to_string(R.Id) + "/result", "", Resp,
                     "http.result") &&
            Resp.Status == 200) {
          R.Artifact = std::move(Resp.Body);
          checkArtifact(S, Plans[I], R, P.ParseUs);
        } else {
          R.Problem = "result download answered HTTP " +
                      std::to_string(Resp.Status);
        }
      } else {
        R.Problem = std::string("job ") + serve::jobStateName(St);
      }
      LastDone = Clock::now();
      R.LatencyMs =
          std::chrono::duration<double, std::milli>(LastDone - dueAt(I))
              .count();
      Open[K] = Open.back();
      Open.pop_back();
      ++Collected;
    }
    if (Collected) {
      std::lock_guard<std::mutex> Lock(Mu);
      Outstanding -= Collected;
      Room.notify_one();
      continue;
    }
    bool TimedOut;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      TimedOut = GenDone && std::chrono::duration<double>(
                                Clock::now() - GenDoneAt)
                                    .count() > DrainTimeoutS;
    }
    if (TimedOut) {
      for (size_t I : Open)
        P.Jobs[I].Problem = "job did not finish in time";
      Open.clear();
    }
    // Coarse enough that polling adds little to user_cpu_ms_per_op.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  Generator.join();
  P.Cpu = processCpu() - Cpu0;
  P.EndNs = nowNs();
  setRecording(false);
  P.Seconds = std::chrono::duration<double>(LastDone - T0).count();
  P.Requests = Requests.load();
  return P;
}

Setting buildSetting(const Options &O) {
  Setting S;
  S.Scale = BenchScale::preset(O.knobString("scale"));
  const SynthesisRunOptions StoreOpts = storedProgramOptions(O);
  for (const std::string &Name : victimNames(O, "victims")) {
    Victim V = victimByName(Name, S.Scale);
    V.Net = makeScaledVictim(V.Task, V.Architecture, S.Scale, VictimSeed);
    const Dataset Test = makeTestSet(V.Task, S.Scale, VictimSeed);
    S.TestSize = Test.size();
    std::array<std::vector<wire::WireRun>, NumKinds> Runs;
    for (size_t K = 0; K != NumKinds; ++K) {
      QueryEngine Engine(*V.Net);
      std::vector<AttackRunLog> Logs;
      if (K == 0) {
        RandomPairSearch A;
        Logs = runAttackOverSet(A, Engine, Test, Budget);
      } else if (K == 1) {
        SparseRS A;
        Logs = runAttackOverSet(A, Engine, Test, Budget);
      } else if (K == 2) {
        SuOPA A;
        Logs = runAttackOverSet(A, Engine, Test, Budget);
      } else {
        const std::vector<Program> Programs = synthesizeClassPrograms(
            *V.Net, V.Stem, V.Task, S.Scale, VictimSeed, StoreOpts);
        Logs = runProgramsOverSet(Programs, Engine, Test, Budget);
      }
      for (size_t I = 0; I != Logs.size(); ++I) {
        wire::WireRun R;
        R.Index = static_cast<uint32_t>(I);
        R.Label = static_cast<uint32_t>(Logs[I].Label);
        R.Outcome = Logs[I].Discarded ? 2 : Logs[I].Success ? 1 : 0;
        R.Queries = Logs[I].Queries;
        Runs[K].push_back(R);
      }
    }
    S.Expected.push_back(std::move(Runs));
    S.Victims.push_back(std::move(V));
  }
  return S;
}

void countOutcomes(const Pass &P, Sheet &Out) {
  Out.attempted(P.Sent);
  for (size_t I = 0; I != P.Sent; ++I)
    if (!P.Jobs[I].Ok)
      Out.fail("job " + std::to_string(I) + ": " + P.Jobs[I].Problem);
}

/// Fetches every job's server-side timeline and folds it into the span
/// set (the working phases on a lane per job) and the per-phase metrics.
/// The queued phase is only measured: it is waiting, not work.
void reportJobPhases(Server &Srv, const std::vector<JobPlan> &Plans,
                     const Pass &P, Sheet &Out) {
  std::map<std::string, double> PhaseMs;
  std::vector<double> QueueWaitMs;
  std::array<double, NumKinds> KindMs{}, KindJobs{};
  size_t Jobs = 0;
  for (size_t I = 0; I != P.Sent; ++I) {
    const JobRecord &R = P.Jobs[I];
    if (!R.Ok)
      continue;
    http::Response Resp;
    json::Value Doc;
    std::string Error;
    if (!httpCall(Srv.Http->port(), "GET",
                  "/v1/jobs/" + std::to_string(R.Id) + "/trace", "", Resp,
                  "http.trace") ||
        Resp.Status != 200 || !json::parse(Resp.Body, Doc, Error)) {
      Out.fail("job " + std::to_string(I) + ": no server timeline");
      continue;
    }
    ++Jobs;
    ++KindJobs[Plans[I].Kind];
    const json::Value *Events = Doc.find("traceEvents");
    for (const json::Value &E : Events ? Events->array()
                                       : std::vector<json::Value>()) {
      if (E.getString("ph") != "X")
        continue;
      const std::string Name = E.getString("name");
      const double DurMs = E.getNumber("dur") * 1e-3;
      PhaseMs[Name] += DurMs;
      if (Name == "queued")
        QueueWaitMs.push_back(DurMs);
      static const std::map<std::string, const char *> Interned = {
          {"setup", "serve.setup"},
          {"shard", "serve.shard"},
          {"checkpoint", "serve.checkpoint"},
          {"finalize", "serve.finalize"},
          {"synth", "serve.synth"}};
      auto It = Interned.find(Name);
      if (It == Interned.end())
        continue;
      KindMs[Plans[I].Kind] += DurMs;
      const uint64_t Start =
          R.SubmitNs + static_cast<uint64_t>(E.getNumber("ts") * 1e3);
      addExternalSpan(It->second, I + 1, Start,
                      Start + static_cast<uint64_t>(E.getNumber("dur") * 1e3),
                      static_cast<uint32_t>(1000 + I));
    }
  }
  const double N = Jobs ? static_cast<double>(Jobs) : 1.0;
  Out.metric("serve.queue_wait_ms.p50", quantile(QueueWaitMs, 0.5), "ms");
  Out.metric("serve.queue_wait_ms.p99", quantile(QueueWaitMs, 0.99), "ms");
  for (const char *Phase : {"setup", "shard", "checkpoint", "finalize"})
    Out.metric(std::string("serve.") + Phase + "_ms", PhaseMs[Phase] / N, "ms");
  // Server working time per job of each kind: what the mix is set from.
  for (size_t K = 0; K != NumKinds; ++K)
    Out.metric(std::string("serve.work_ms.") + KindNames[K],
               KindJobs[K] ? KindMs[K] / KindJobs[K] : 0.0, "ms");

  // The server's own histogram of the same queue wait, from /metrics.
  http::Response Resp;
  if (httpCall(Srv.Http->port(), "GET", "/metrics", "", Resp, "http.metrics")) {
    double Sum = 0.0, Count = 0.0;
    size_t Pos = 0;
    while ((Pos = Resp.Body.find("serve_queue_wait_ms_", Pos)) !=
           std::string::npos) {
      const size_t Eol = Resp.Body.find('\n', Pos);
      const std::string Line = Resp.Body.substr(Pos, Eol - Pos);
      Pos = Eol;
      const size_t Sp = Line.rfind(' ');
      if (Line.rfind("serve_queue_wait_ms_sum ", 0) == 0)
        Sum = std::atof(Line.c_str() + Sp + 1);
      else if (Line.rfind("serve_queue_wait_ms_count ", 0) == 0)
        Count = std::atof(Line.c_str() + Sp + 1);
    }
    Out.metric("serve.metrics_queue_wait_ms_mean", Count > 0 ? Sum / Count : 0,
               "ms");
  }
}

void reportClientLayers(const Pass &P, const std::vector<Span> &Spans,
                        Sheet &Out) {
  std::vector<double> SubmitMs, ResultMs;
  for (const Span &Sp : Spans) {
    if (std::strcmp(Sp.Name, "http.submit") == 0)
      SubmitMs.push_back(Sp.seconds() * 1e3);
    else if (std::strcmp(Sp.Name, "http.result") == 0)
      ResultMs.push_back(Sp.seconds() * 1e3);
  }
  double Bytes = 0.0;
  for (size_t I = 0; I != P.Sent; ++I)
    Bytes += static_cast<double>(P.Jobs[I].Artifact.size());
  const double N = P.Sent ? static_cast<double>(P.Sent) : 1.0;
  Out.metric("http.submit_ms", perfbench::mean(SubmitMs), "ms");
  Out.metric("http.result_ms", perfbench::mean(ResultMs), "ms");
  Out.metric("http.requests_per_job", static_cast<double>(P.Requests) / N,
             "count");
  Out.metric("wire.result_bytes", Bytes / N, "bytes");
  Out.metric("wire.parse_us", perfbench::mean(P.ParseUs), "us");
}

/// Waits until the filesystem holding the benchmark state has written out
/// every file operation so far. A pass creates tens of thousands of small
/// files; unflushed, their write-back and block discards ran on into the
/// next pass and tripled its kernel time per job on the development host.
void flushState(const Options &O) {
  const int Fd =
      ::open(O.StateDir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (Fd >= 0) {
    ::syncfs(Fd);
    ::close(Fd);
  }
}

/// Deletes the serve checkpoint directory and flushes the deletion.
void dropCheckpoints(const Options &O) {
  std::error_code EC;
  std::filesystem::remove_all(runnerConfig(O).CheckpointDir, EC);
  flushState(O);
}

} // namespace

int runServeJobs(const Options &O, Sheet &Out) {
  dropCheckpoints(O);
  const Setting S = buildSetting(O);
  const size_t Workers = static_cast<size_t>(O.knob("workers"));
  const size_t InFlight = InFlightPerWorker * Workers;
  const std::string Host = hostRecord(
      "workers=" + std::to_string(Workers) + " sweep=" +
      std::to_string(static_cast<size_t>(O.knob("sweep_threads"))) +
      " generator=1 collector=1");

  if (O.Trace) {
    std::vector<JobPlan> Plans = closedLoopPlans(O, S, O.Seconds / 2);
    std::unique_ptr<Server> A = setUpServer(O, S, Out);
    if (!A)
      return 1;
    const Pass Untraced =
        runPass(S, *A, Plans, InFlight, O.Seconds / 2, false);
    A.reset();
    Plans.resize(Untraced.Sent);
    std::unique_ptr<Server> B = setUpServer(O, S, Out);
    if (!B)
      return 1;
    resetSpans();
    const CounterSnapshot Before;
    const Pass Traced = runPass(S, *B, Plans, InFlight, 0, true);
    countOutcomes(Traced, Out);
    for (size_t I = 0; I != Plans.size(); ++I)
      if (Traced.Jobs[I].Artifact != Untraced.Jobs[I].Artifact)
        Out.fail("job " + std::to_string(I) +
                 ": traced artifact differs from the untraced pass");
    reportClientLayers(Traced, collect(), Out);
    reportJobPhases(*B, Plans, Traced, Out);
    Out.notExercised(attackSweepLayers(O), O.Workload);
    Out.notExercised(synthLayers(), O.Workload);
    reportTracedPass(Out, O, collect(), Traced.BeginNs, Traced.EndNs,
                     100.0 * (Traced.Seconds - Untraced.Seconds) /
                         Untraced.Seconds,
                     Before, Host);
    B.reset();
    dropCheckpoints(O);
    return 0;
  }

  std::unique_ptr<Server> Srv;
  auto SetUp = [&] {
    Srv.reset();
    Srv = setUpServer(O, S, Out);
  };
  SetupTimes Setup;
  Setup.burst(SetUp);
  if (!Srv)
    return 1;

  const double Rate = O.knob("rate_per_s");
  const Pass Latency =
      runPass(S, *Srv, openLoopPlans(O, S, O.Seconds / 3), 0, 0, false);
  flushState(O);
  const double ClosedS = O.Seconds - O.Seconds / 3;
  const Pass Capacity = runPass(S, *Srv, closedLoopPlans(O, S, ClosedS),
                                InFlight, ClosedS, false);
  const double Rss = peakRssMb();
  countOutcomes(Latency, Out);
  countOutcomes(Capacity, Out);
  Setup.burst(SetUp);

  std::vector<double> LatencyMs, LateMs;
  for (size_t I = 0; I != Latency.Sent; ++I) {
    LateMs.push_back(Latency.Jobs[I].LateMs);
    if (Latency.Jobs[I].Ok)
      LatencyMs.push_back(Latency.Jobs[I].LatencyMs);
  }
  std::printf("open loop: %zu jobs offered at %g jobs/s; %zu latencies lie "
              "beyond p99\n",
              Latency.Sent, Rate,
              static_cast<size_t>(0.01 * static_cast<double>(LatencyMs.size())));
  std::printf("closed loop: %zu jobs, %zu in flight\n", Capacity.Sent,
              InFlight);
  reportEndToEnd(Out, static_cast<double>(Capacity.Sent), Capacity.Seconds,
                 Capacity.Cpu, Setup, Rss);
  Out.metric("jobs_per_s", Capacity.Sent / Capacity.Seconds, "1/s");
  Out.metric("job_latency_p50_ms", quantile(LatencyMs, 0.5), "ms");
  Out.metric("job_latency_p99_ms", quantile(LatencyMs, 0.99), "ms");
  Out.metric("gen.late_ms.p99", quantile(LateMs, 0.99), "ms");
  Srv.reset();
  dropCheckpoints(O);
  return 0;
}

} // namespace perfbench
