//===- serve/ServeServer.cpp - HTTP job API -----------------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/ServeServer.h"

#include "serve/Checkpoint.h"
#include "serve/JobRunner.h"
#include "support/Http.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace oppsla;
using namespace oppsla::serve;

namespace {

telemetry::Counter &submittedCounter() {
  static telemetry::Counter &C = telemetry::counter("serve.jobs.submitted");
  return C;
}
telemetry::Counter &rejectedCounter() {
  static telemetry::Counter &C = telemetry::counter("serve.jobs.rejected");
  return C;
}

std::string errorJson(const std::string &Message) {
  std::string Out = "{\"error\":\"";
  json::escape(Out, Message);
  Out += "\"}";
  return Out;
}

/// Splits "/v1/jobs/17/result" into {"v1","jobs","17","result"}.
std::vector<std::string> pathSegments(const std::string &Target) {
  std::vector<std::string> Out;
  std::string Path = Target.substr(0, Target.find('?'));
  size_t Pos = 0;
  while (Pos < Path.size()) {
    if (Path[Pos] == '/') {
      ++Pos;
      continue;
    }
    size_t End = Path.find('/', Pos);
    if (End == std::string::npos)
      End = Path.size();
    Out.push_back(Path.substr(Pos, End - Pos));
    Pos = End;
  }
  return Out;
}

bool parseId(const std::string &S, uint64_t &Id) {
  char *End = nullptr;
  Id = std::strtoull(S.c_str(), &End, 10);
  return End != S.c_str() && *End == '\0';
}

} // namespace

std::string serve::jobStatusJson(Job &J) {
  std::string Out = "{\"id\":" + std::to_string(J.Id) + ",\"kind\":\"";
  Out += jobKindName(J.Spec.Kind);
  Out += "\",\"state\":\"";
  Out += jobStateName(J.State.load(std::memory_order_relaxed));
  Out += "\",\"done\":" +
         std::to_string(J.Done.load(std::memory_order_relaxed)) +
         ",\"total\":" +
         std::to_string(J.Total.load(std::memory_order_relaxed)) +
         ",\"priority\":" + std::to_string(J.Spec.Priority);
  const std::string Error = J.errorMessage();
  if (!Error.empty()) {
    Out += ",\"error\":\"";
    json::escape(Out, Error);
    Out += "\"";
  }
  if (J.Trace)
    Out += ",\"trace_id\":\"" + J.Trace->traceId() + "\"";
  Out += ",\"spec\":" + jobSpecJson(J.Spec) + "}";
  return Out;
}

ServeServer::ServeServer(JobQueue &Queue, JobRunner &Runner,
                         ServeServerConfig Config)
    : Queue(Queue), Runner(Runner), Config(Config),
      Http([this](int Client, const http::Request &Req) {
        return handle(Client, Req);
      }) {}

int ServeServer::retryAfterSeconds() const {
  const double Median = Runner.medianServiceSeconds();
  if (Median <= 0.0)
    return Config.RetryAfterSeconds;
  const double Workers =
      static_cast<double>(std::max<size_t>(1, Runner.config().Workers));
  const double Est =
      Median * static_cast<double>(Queue.depth() + 1) / Workers;
  return static_cast<int>(
      std::min(3600.0, std::max(1.0, std::ceil(Est))));
}

bool ServeServer::handle(int Client, const http::Request &Req) {
  const std::vector<std::string> Seg = pathSegments(Req.Target);

  if (Req.Method == "GET" && Seg.size() == 1 && Seg[0] == "healthz") {
    std::string Out = "{\"queue\":{\"depth\":" +
                      std::to_string(Queue.depth()) + ",\"capacity\":" +
                      std::to_string(Queue.capacity()) +
                      "},\"inflight_shards\":" +
                      std::to_string(Runner.inflightShards()) +
                      ",\"jobs\":[";
    bool First = true;
    for (const auto &J : Queue.all()) {
      if (!First)
        Out += ",";
      First = false;
      Out += jobStatusJson(*J);
    }
    Out += "]}";
    http::sendResponse(Client, 200, "application/json", Out);
    return true;
  }

  // The job API proper: /v1/jobs[...]
  if (Seg.size() < 2 || Seg[0] != "v1" || Seg[1] != "jobs")
    return false;

  if (Seg.size() == 2 && Req.Method == "POST") {
    JobSpec Spec;
    std::string Error;
    if (!parseJobSpec(Req.Body, Spec, Error)) {
      http::sendResponse(Client, 400, "application/json",
                         errorJson(Error));
      return true;
    }
    // Adopt the client's trace context when the header parses; the spec
    // body's "trace" key (checkpoint round-trips) loses to the header.
    telemetry::TraceContext Ctx;
    if (telemetry::parseTraceparent(Req.header("traceparent"), Ctx))
      Spec.TraceParent = Ctx.traceparent();
    std::shared_ptr<Job> J = Queue.create(Spec);
    if (!Queue.enqueue(J)) {
      rejectedCounter().inc();
      http::sendResponse(
          Client, 429, "application/json",
          errorJson("queue full (capacity " +
                    std::to_string(Queue.capacity()) + ")"),
          {{"Retry-After", std::to_string(retryAfterSeconds())}});
      return true;
    }
    submittedCounter().inc();
    if (telemetry::traceEnabled())
      telemetry::traceEvent("job_submit",
                            {{"job", J->Id},
                             {"kind", jobKindName(Spec.Kind)}});
    std::string Out =
        "{\"id\":" + std::to_string(J->Id) + ",\"state\":\"queued\"";
    if (J->Trace)
      Out += ",\"trace_id\":\"" + J->Trace->traceId() + "\"";
    Out += "}";
    http::sendResponse(Client, 202, "application/json", Out);
    return true;
  }
  if (Seg.size() == 2 && Req.Method == "GET") {
    std::string Out = "{\"queue\":{\"depth\":" +
                      std::to_string(Queue.depth()) + ",\"capacity\":" +
                      std::to_string(Queue.capacity()) + "},\"jobs\":[";
    bool First = true;
    for (const auto &J : Queue.all()) {
      if (!First)
        Out += ",";
      First = false;
      Out += jobStatusJson(*J);
    }
    Out += "]}";
    http::sendResponse(Client, 200, "application/json", Out);
    return true;
  }

  uint64_t Id = 0;
  if (Seg.size() < 3 || !parseId(Seg[2], Id)) {
    http::sendResponse(Client, 404, "application/json",
                       errorJson("not found"));
    return true;
  }
  std::shared_ptr<Job> J = Queue.find(Id);
  if (!J) {
    http::sendResponse(Client, 404, "application/json",
                       errorJson("no job " + std::to_string(Id)));
    return true;
  }

  if (Seg.size() == 3 && Req.Method == "GET") {
    http::sendResponse(Client, 200, "application/json",
                       jobStatusJson(*J));
    return true;
  }
  if (Seg.size() == 3 && Req.Method == "DELETE") {
    if (!Queue.cancel(Id)) {
      http::sendResponse(
          Client, 409, "application/json",
          errorJson("job " + std::to_string(Id) + " already " +
                    jobStateName(
                        J->State.load(std::memory_order_relaxed))));
      return true;
    }
    http::sendResponse(Client, 200, "application/json",
                       jobStatusJson(*J));
    return true;
  }
  if (Seg.size() == 4 && Seg[3] == "trace" && Req.Method == "GET") {
    if (!J->Trace) {
      http::sendResponse(Client, 404, "application/json",
                         errorJson("job tracing is disabled"));
      return true;
    }
    http::sendResponse(Client, 200, "application/json",
                       J->Trace->chromeTraceJson());
    return true;
  }
  if (Seg.size() == 4 && Seg[3] == "result" && Req.Method == "GET") {
    if (J->State.load(std::memory_order_relaxed) != JobState::Done) {
      http::sendResponse(
          Client, 409, "application/json",
          errorJson("job " + std::to_string(Id) + " is " +
                    jobStateName(
                        J->State.load(std::memory_order_relaxed)) +
                    ", result not available"));
      return true;
    }
    const std::string Path =
        jobResultPath(Runner.config().CheckpointDir, Id);
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    if (!In) {
      http::sendResponse(Client, 500, "application/json",
                         errorJson("cannot read " + Path));
      return true;
    }
    http::sendResponse(Client, 200, "application/octet-stream",
                       Buf.str());
    return true;
  }

  http::sendResponse(Client, 405, "application/json",
                     errorJson("method not allowed"));
  return true;
}
