//===- serve/ServeServer.h - HTTP job API -----------------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The attack-as-a-service HTTP front end (`oppsla serve`): the job
/// routes below in front of the shared http::Server (support/Http.h),
/// which also answers /metrics (including the serve.* queue/job
/// instruments), /profile, /ledger, /logz and /quitquitquit.
///
///   POST   /v1/jobs             submit a job (JSON spec; see
///                               parseJobSpec). 202 + {"id":N} on
///                               admission, 429 + Retry-After when the
///                               queue is full, 400 on a bad spec;
///   GET    /v1/jobs             every known job plus queue state;
///   GET    /v1/jobs/<id>        one job's status;
///   GET    /v1/jobs/<id>/result the finished wire artifact
///                               (application/octet-stream; 409 until
///                               the job is done);
///   GET    /v1/jobs/<id>/trace  the job's phase timeline as Chrome
///                               Trace Event JSON (404 when job tracing
///                               is off; partial for running jobs);
///   DELETE /v1/jobs/<id>        cancel (queued: immediate; running:
///                               honoured at the next shard boundary);
///   GET    /healthz             queue depth, in-flight shards, and
///                               per-job progress as JSON (in place of
///                               the shared run-progress document).
///
/// Submissions honour a W3C `traceparent` request header: the job adopts
/// the client's trace context (echoed as "trace_id" in the 202 body and
/// stamped on every phase span); without one the server mints a context.
/// A full queue's 429 carries Retry-After derived from the observed
/// median job service time scaled by queue depth over worker count
/// (falling back to Config.RetryAfterSeconds before any job completed).
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_SERVE_SERVESERVER_H
#define OPPSLA_SERVE_SERVESERVER_H

#include "serve/JobQueue.h"
#include "support/Http.h"

#include <cstdint>
#include <string>

namespace oppsla {
namespace serve {

class JobRunner;

struct ServeServerConfig {
  uint16_t Port = 0;        ///< 0 = ephemeral
  int RetryAfterSeconds = 2; ///< 429 Retry-After fallback (no samples yet)
};

class ServeServer {
public:
  ServeServer(JobQueue &Queue, JobRunner &Runner,
              ServeServerConfig Config = ServeServerConfig());

  /// Binds and starts the accept thread. \returns false after logging on
  /// socket failure.
  bool start() { return Http.start(Config.Port); }

  uint16_t port() const { return Http.port(); }

  /// True once a client requested /quitquitquit.
  bool quitRequested() const { return Http.quitRequested(); }
  /// Blocks until quitRequested() or \p TimeoutSeconds elapsed (0 = no
  /// cap). \returns quitRequested().
  bool waitQuit(double TimeoutSeconds) {
    return Http.waitQuit(TimeoutSeconds);
  }

  /// Stops accepting and joins the thread. Idempotent. Does not touch the
  /// queue or runner.
  void stop() { Http.stop(); }

  ServeServer(const ServeServer &) = delete;
  ServeServer &operator=(const ServeServer &) = delete;

private:
  /// The job routes and the serve /healthz; false for anything else, which
  /// the shared routes answer.
  bool handle(int Client, const http::Request &Req);
  /// Seconds to advertise on a 429: median observed service time scaled
  /// by (queue depth + 1) / workers, clamped to [1, 3600]; the configured
  /// constant until the first job completes.
  int retryAfterSeconds() const;

  JobQueue &Queue;
  JobRunner &Runner;
  ServeServerConfig Config;
  http::Server Http; ///< last, so its thread stops before the rest goes
};

/// One job's status document (shared by GET /v1/jobs and /v1/jobs/<id>).
std::string jobStatusJson(Job &J);

} // namespace serve
} // namespace oppsla

#endif // OPPSLA_SERVE_SERVESERVER_H
