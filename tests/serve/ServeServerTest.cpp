//===- tests/serve/ServeServerTest.cpp - HTTP job API tests -------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Drives the serve-mode HTTP front end in process over a real loopback
// socket, with the runner's workers disabled (JobRunnerConfig::Workers=0)
// so queue contents are deterministic: submission, status, listing,
// admission control (429 + Retry-After), cancellation, the result-gating
// 409, and the observability endpoints.
//
//===----------------------------------------------------------------------===//

#include "serve/ServeServer.h"

#include "serve/JobRunner.h"

#include "support/Http.h"
#include "support/Logging.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>

using namespace oppsla;
using namespace oppsla::serve;

namespace {

constexpr size_t TestCapacity = 3;

/// Raw one-shot HTTP exchange returning the full response (status line +
/// headers + body) — used where the header block itself is under test.
std::string rawExchange(uint16_t Port, const std::string &Request) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return "";
  }
  size_t Sent = 0;
  while (Sent < Request.size()) {
    const ssize_t N =
        ::send(Fd, Request.data() + Sent, Request.size() - Sent, 0);
    if (N <= 0)
      break;
    Sent += static_cast<size_t>(N);
  }
  std::string Out;
  char Buf[4096];
  ssize_t N;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  ::close(Fd);
  return Out;
}

class ServeServerTest : public ::testing::Test {
protected:
  void SetUp() override {
    Queue = std::make_unique<JobQueue>(TestCapacity);
    JobRunnerConfig RC;
    RC.Workers = 0; // jobs queue up but never execute
    RC.CheckpointDir = ::testing::TempDir() + "/serve_server_test";
    Runner = std::make_unique<JobRunner>(*Queue, RC);
    ServeServerConfig SC;
    SC.RetryAfterSeconds = 7;
    Server = std::make_unique<ServeServer>(*Queue, *Runner, SC);
    ASSERT_TRUE(Server->start());
    ASSERT_NE(Server->port(), 0);
  }

  void TearDown() override {
    Server->stop();
    Runner->stop();
  }

  http::Response roundTrip(const std::string &Method,
                           const std::string &Target,
                           const std::string &Body = "") {
    http::Response Out;
    std::string Error;
    EXPECT_TRUE(http::request(Server->port(), Method, Target, Body, Out,
                              Error))
        << Error;
    return Out;
  }

  std::unique_ptr<JobQueue> Queue;
  std::unique_ptr<JobRunner> Runner;
  std::unique_ptr<ServeServer> Server;
};

} // namespace

TEST_F(ServeServerTest, SubmitStatusAndList) {
  const http::Response Sub =
      roundTrip("POST", "/v1/jobs",
                "{\"kind\":\"eval\",\"scale\":\"smoke\",\"seed\":3}");
  EXPECT_EQ(Sub.Status, 202);
  EXPECT_NE(Sub.Body.find("\"id\":1"), std::string::npos) << Sub.Body;
  EXPECT_NE(Sub.Body.find("\"state\":\"queued\""), std::string::npos);

  const http::Response St = roundTrip("GET", "/v1/jobs/1");
  EXPECT_EQ(St.Status, 200);
  EXPECT_NE(St.Body.find("\"kind\":\"eval\""), std::string::npos)
      << St.Body;
  EXPECT_NE(St.Body.find("\"state\":\"queued\""), std::string::npos);
  EXPECT_NE(St.Body.find("\"seed\":3"), std::string::npos)
      << "status must embed the canonical spec: " << St.Body;

  const http::Response List = roundTrip("GET", "/v1/jobs");
  EXPECT_EQ(List.Status, 200);
  EXPECT_NE(List.Body.find("\"depth\":1"), std::string::npos) << List.Body;
  EXPECT_NE(List.Body.find("\"capacity\":3"), std::string::npos);
  EXPECT_NE(List.Body.find("\"id\":1"), std::string::npos);
}

TEST_F(ServeServerTest, BadSpecIs400) {
  const http::Response R =
      roundTrip("POST", "/v1/jobs", "{\"kind\":\"frobnicate\"}");
  EXPECT_EQ(R.Status, 400);
  EXPECT_NE(R.Body.find("unknown kind"), std::string::npos) << R.Body;
  const http::Response R2 = roundTrip("POST", "/v1/jobs", "not json");
  EXPECT_EQ(R2.Status, 400);
}

TEST_F(ServeServerTest, UnknownTargetsAre404) {
  EXPECT_EQ(roundTrip("GET", "/no-such-endpoint").Status, 404);
  EXPECT_EQ(roundTrip("GET", "/v1/other").Status, 404);
  const http::Response R = roundTrip("GET", "/v1/jobs/999");
  EXPECT_EQ(R.Status, 404);
  EXPECT_NE(R.Body.find("no job 999"), std::string::npos) << R.Body;
  EXPECT_EQ(roundTrip("GET", "/v1/jobs/notanumber").Status, 404);
}

TEST_F(ServeServerTest, FullQueueIs429WithRetryAfter) {
  // With the runner disabled, every accepted job stays queued — the
  // (capacity+1)-th submission must be rejected, not silently dropped.
  for (size_t I = 0; I != TestCapacity; ++I)
    EXPECT_EQ(roundTrip("POST", "/v1/jobs", "{}").Status, 202) << I;

  const std::string Body = "{}";
  const std::string Raw = rawExchange(
      Server->port(),
      "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
          std::to_string(Body.size()) + "\r\n\r\n" + Body);
  EXPECT_NE(Raw.find("HTTP/1.1 429"), std::string::npos) << Raw;
  EXPECT_NE(Raw.find("Retry-After: 7"), std::string::npos)
      << "configured Retry-After missing: " << Raw;
  EXPECT_NE(Raw.find("queue full"), std::string::npos) << Raw;
}

TEST_F(ServeServerTest, CancelLifecycle) {
  ASSERT_EQ(roundTrip("POST", "/v1/jobs", "{}").Status, 202);
  const http::Response Del = roundTrip("DELETE", "/v1/jobs/1");
  EXPECT_EQ(Del.Status, 200);
  EXPECT_NE(Del.Body.find("\"state\":\"cancelled\""), std::string::npos)
      << Del.Body;

  // Cancelling a finished (here: already cancelled) job conflicts.
  const http::Response Again = roundTrip("DELETE", "/v1/jobs/1");
  EXPECT_EQ(Again.Status, 409);
  EXPECT_NE(Again.Body.find("already cancelled"), std::string::npos)
      << Again.Body;
}

TEST_F(ServeServerTest, ResultBeforeDoneIs409) {
  ASSERT_EQ(roundTrip("POST", "/v1/jobs", "{}").Status, 202);
  const http::Response R = roundTrip("GET", "/v1/jobs/1/result");
  EXPECT_EQ(R.Status, 409);
  EXPECT_NE(R.Body.find("result not available"), std::string::npos)
      << R.Body;
}

TEST_F(ServeServerTest, MethodNotAllowed) {
  ASSERT_EQ(roundTrip("POST", "/v1/jobs", "{}").Status, 202);
  EXPECT_EQ(roundTrip("PUT", "/v1/jobs/1", "x").Status, 405);
}

TEST_F(ServeServerTest, HealthzAndMetricsExposeQueueState) {
  ASSERT_EQ(roundTrip("POST", "/v1/jobs", "{}").Status, 202);

  const http::Response H = roundTrip("GET", "/healthz");
  EXPECT_EQ(H.Status, 200);
  EXPECT_NE(H.Body.find("\"depth\":1"), std::string::npos) << H.Body;
  EXPECT_NE(H.Body.find("\"capacity\":3"), std::string::npos);
  EXPECT_NE(H.Body.find("\"inflight_shards\":0"), std::string::npos);
  EXPECT_NE(H.Body.find("\"state\":\"queued\""), std::string::npos);

  const http::Response M = roundTrip("GET", "/metrics");
  EXPECT_EQ(M.Status, 200);
  EXPECT_NE(M.Body.find("oppsla_serve_queue_depth"), std::string::npos)
      << "serve gauges missing from the exposition";
  EXPECT_NE(M.Body.find("oppsla_serve_jobs_submitted_total"),
            std::string::npos)
      << M.Body;
}

TEST_F(ServeServerTest, SubmitAdoptsClientTraceparent) {
  const std::string TP =
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
  const std::string Body = "{}";
  const std::string Raw = rawExchange(
      Server->port(),
      "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\ntraceparent: " + TP +
          "\r\nContent-Length: " + std::to_string(Body.size()) +
          "\r\n\r\n" + Body);
  EXPECT_NE(Raw.find("HTTP/1.1 202"), std::string::npos) << Raw;
  EXPECT_NE(
      Raw.find("\"trace_id\":\"0af7651916cd43dd8448eb211c80319c\""),
      std::string::npos)
      << "the 202 must echo the client's trace id: " << Raw;

  // Status carries it too, and the job's stored context matches.
  const http::Response St = roundTrip("GET", "/v1/jobs/1");
  EXPECT_NE(
      St.Body.find("\"trace_id\":\"0af7651916cd43dd8448eb211c80319c\""),
      std::string::npos)
      << St.Body;
  const auto J = Queue->find(1);
  ASSERT_TRUE(J && J->Trace);
  EXPECT_EQ(J->Trace->traceId(),
            "0af7651916cd43dd8448eb211c80319c");
}

TEST_F(ServeServerTest, SubmitWithoutTraceparentMintsOne) {
  ASSERT_EQ(roundTrip("POST", "/v1/jobs", "{}").Status, 202);
  const auto J = Queue->find(1);
  ASSERT_TRUE(J && J->Trace);
  EXPECT_EQ(J->Trace->traceId().size(), 32u);
  EXPECT_NE(J->Trace->traceId(),
            std::string(32, '0'));
}

TEST_F(ServeServerTest, TraceEndpointServesChromeTraceJson) {
  ASSERT_EQ(roundTrip("POST", "/v1/jobs", "{}").Status, 202);
  const http::Response R = roundTrip("GET", "/v1/jobs/1/trace");
  EXPECT_EQ(R.Status, 200);
  EXPECT_NE(R.Body.find("\"traceEvents\":["), std::string::npos) << R.Body;
  EXPECT_NE(R.Body.find("\"queued\""), std::string::npos)
      << "a queued job's trace must already show the queued phase: "
      << R.Body;
  EXPECT_EQ(roundTrip("GET", "/v1/jobs/999/trace").Status, 404);
}

TEST_F(ServeServerTest, LogzServesTheRingAndValidatesLevel) {
  logInfo() << "serve-logz-marker hello";
  const http::Response R = roundTrip("GET", "/logz?n=200");
  EXPECT_EQ(R.Status, 200);
  EXPECT_NE(R.Body.find("serve-logz-marker"), std::string::npos) << R.Body;
  EXPECT_NE(R.Body.find("\"level\":\"info\""), std::string::npos);

  // Level filter drops info lines; unknown levels are a client error.
  const http::Response Errors = roundTrip("GET", "/logz?n=200&level=error");
  EXPECT_EQ(Errors.Status, 200);
  EXPECT_EQ(Errors.Body.find("serve-logz-marker"), std::string::npos);
  EXPECT_EQ(roundTrip("GET", "/logz?level=bogus").Status, 400);
}

TEST_F(ServeServerTest, RetryAfterDerivesFromObservedServiceTime) {
  // With service samples, Retry-After estimates the backlog drain time:
  // ceil(median * (depth + 1) / max(1, workers)). Here: median 2s, depth
  // 3 (the full queue), workers 0 -> treated as 1 -> ceil(2*4/1) = 8.
  Runner->recordServiceSample(2.0);
  for (size_t I = 0; I != TestCapacity; ++I)
    ASSERT_EQ(roundTrip("POST", "/v1/jobs", "{}").Status, 202) << I;
  const std::string Body = "{}";
  const std::string Raw = rawExchange(
      Server->port(),
      "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
          std::to_string(Body.size()) + "\r\n\r\n" + Body);
  EXPECT_NE(Raw.find("HTTP/1.1 429"), std::string::npos) << Raw;
  EXPECT_NE(Raw.find("Retry-After: 8"), std::string::npos)
      << "derived Retry-After missing: " << Raw;
}

TEST_F(ServeServerTest, MetricsExposeWaitAndExecHistograms) {
  ASSERT_EQ(roundTrip("POST", "/v1/jobs", "{}").Status, 202);
  const http::Response M = roundTrip("GET", "/metrics");
  EXPECT_EQ(M.Status, 200);
  EXPECT_NE(M.Body.find("oppsla_serve_queue_wait_ms"), std::string::npos)
      << "queue-wait histogram missing from the exposition";
}
