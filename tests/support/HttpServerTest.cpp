//===- tests/support/HttpServerTest.cpp - The HTTP server over loopback -------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Drives http::Server over a real loopback socket: binds an ephemeral
// port, issues raw HTTP/1.1 requests, and validates the /metrics,
// /healthz, /profile and /ledger payloads — including a scrape taken
// mid-sweep while a worker thread is publishing progress. The StatsServer
// suite drives the stats port's bare server; the SharedRoutes suite runs
// the shared routes against both front ends, that server and `oppsla
// serve`'s ServeServer.
//
//===----------------------------------------------------------------------===//

#include "serve/JobQueue.h"
#include "serve/JobRunner.h"
#include "serve/ServeServer.h"
#include "support/Http.h"
#include "support/Ledger.h"
#include "support/Metrics.h"
#include "support/Profiler.h"
#include "support/Progress.h"

#include "JsonTestUtil.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace oppsla;

namespace {

/// A loopback connection to \p Port, or -1.
int connectTo(uint16_t Port) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Minimal HTTP client: one request without a body, reads to EOF (the
/// server sends `Connection: close`), returns the raw response.
std::string httpExchange(uint16_t Port, const std::string &Method,
                         const std::string &Target) {
  const int Fd = connectTo(Port);
  if (Fd < 0)
    return "";
  const std::string Req =
      Method + " " + Target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t Sent = 0;
  while (Sent < Req.size()) {
    const ssize_t N = ::send(Fd, Req.data() + Sent, Req.size() - Sent, 0);
    if (N <= 0) {
      ::close(Fd);
      return "";
    }
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

std::string httpGet(uint16_t Port, const std::string &Target) {
  return httpExchange(Port, "GET", Target);
}

/// Same GET, but trickled one byte per send() with a pause mid-header —
/// the request line alone is NOT a complete request, so a server that
/// parses after a single recv() fails this.
std::string httpGetSplit(uint16_t Port, const std::string &Target) {
  const int Fd = connectTo(Port);
  if (Fd < 0)
    return "";
  const std::string Req =
      "GET " + Target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  for (size_t I = 0; I != Req.size(); ++I) {
    if (::send(Fd, Req.data() + I, 1, 0) != 1) {
      ::close(Fd);
      return "";
    }
    if (I == Req.find('\n'))
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::string Out;
  char Buf[4096];
  ssize_t N;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  ::close(Fd);
  return Out;
}

std::string bodyOf(const std::string &Response) {
  const size_t Pos = Response.find("\r\n\r\n");
  return Pos == std::string::npos ? "" : Response.substr(Pos + 4);
}

/// The status code of a raw "HTTP/1.1 <code> ..." response; 0 when none.
int statusOf(const std::string &Response) {
  return Response.compare(0, 9, "HTTP/1.1 ") == 0
             ? std::atoi(Response.c_str() + 9)
             : 0;
}

} // namespace

TEST(StatsServer, BindsEphemeralPortAndStops) {
  http::Server S;
  ASSERT_TRUE(S.start(0));
  EXPECT_TRUE(S.running());
  EXPECT_NE(S.port(), 0);
  EXPECT_FALSE(S.start(0)) << "second start on a running server must fail";
  S.stop();
  EXPECT_FALSE(S.running());
  S.stop(); // idempotent
}

TEST(StatsServer, ServesPrometheusMetrics) {
  telemetry::counter("statstest.pings").inc(3);
  http::Server S;
  ASSERT_TRUE(S.start(0));
  const std::string Resp = httpGet(S.port(), "/metrics");
  S.stop();

  EXPECT_NE(Resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(Resp.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(Resp.find("Content-Length:"), std::string::npos);
  const std::string Body = bodyOf(Resp);
  EXPECT_NE(Body.find("# TYPE oppsla_statstest_pings_total counter"),
            std::string::npos);
  EXPECT_NE(Body.find("oppsla_statstest_pings_total 3"), std::string::npos);
}

TEST(StatsServer, ServesHealthzJson) {
  telemetry::progressBegin("statstest", 10);
  telemetry::progressItem(true, true, 4);
  telemetry::progressItem(true, false, 8);
  http::Server S;
  ASSERT_TRUE(S.start(0));
  const std::string Resp = httpGet(S.port(), "/healthz");
  S.stop();
  telemetry::progressFinish();

  EXPECT_NE(Resp.find("application/json"), std::string::npos);
  const std::string Body = bodyOf(Resp);
  EXPECT_NE(Body.find("\"status\":\"ok\""), std::string::npos) << Body;
  EXPECT_NE(Body.find("\"mode\":\"statstest\""), std::string::npos) << Body;
  EXPECT_NE(Body.find("\"done\":2"), std::string::npos) << Body;
  EXPECT_NE(Body.find("\"total\":10"), std::string::npos) << Body;
  EXPECT_NE(Body.find("\"success_rate\":0.5"), std::string::npos) << Body;
  EXPECT_NE(Body.find("\"avg_queries\":6"), std::string::npos) << Body;
}

TEST(StatsServer, ServesProfileFoldedStacks) {
  telemetry::resetProfiler();
  telemetry::setProfilingEnabled(true);
  {
    telemetry::ProfileScope Outer("statstest.outer");
    telemetry::ProfileScope Inner("statstest.inner");
    // Zero-self-time paths are dropped from the folded rendering; give
    // the leaf a measurable duration.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  http::Server S;
  ASSERT_TRUE(S.start(0));
  const std::string Body = bodyOf(httpGet(S.port(), "/profile"));
  S.stop();
  telemetry::setProfilingEnabled(false);
  telemetry::resetProfiler();

  EXPECT_NE(Body.find("statstest.outer;statstest.inner "),
            std::string::npos)
      << Body;
}

TEST(StatsServer, RequestSplitAcrossPacketsStillParses) {
  // The shared http::readRequest() loops on recv() until the header
  // terminator; a request trickling in one byte at a time — with the
  // request line and the rest of the header in different packets — must
  // still be answered, not 400'd from a partial read.
  telemetry::counter("statstest.split").inc();
  http::Server S;
  ASSERT_TRUE(S.start(0));
  const std::string Resp = httpGetSplit(S.port(), "/metrics");
  S.stop();
  EXPECT_NE(Resp.find("HTTP/1.1 200 OK"), std::string::npos) << Resp;
  EXPECT_NE(bodyOf(Resp).find("oppsla_statstest_split_total"),
            std::string::npos);
}

TEST(StatsServer, UnknownPathIs404) {
  http::Server S;
  ASSERT_TRUE(S.start(0));
  const std::string Resp = httpGet(S.port(), "/no-such-endpoint");
  S.stop();
  EXPECT_NE(Resp.find("HTTP/1.1 404"), std::string::npos);
}

TEST(StatsServer, ServesLedgerEndpoint) {
  // With no ledger registered the endpoint still answers with a valid,
  // empty document plus the hw-counter availability block.
  ledger::setServedPath("");
  http::Server S;
  ASSERT_TRUE(S.start(0));
  std::string Body = bodyOf(httpGet(S.port(), "/ledger"));
  EXPECT_NE(Body.find("\"rows\":0"), std::string::npos) << Body;
  EXPECT_NE(Body.find("\"hw_counters\""), std::string::npos) << Body;

  // Register a real ledger file and scrape again: the tail must appear.
  const std::string Path = ::testing::TempDir() + "/statsserver_ledger.jsonl";
  std::remove(Path.c_str());
  LedgerEntry E;
  E.Bench = "statstest_bench";
  E.Scale = "smoke";
  E.Metrics["m"] = 1.5;
  std::string Error;
  ASSERT_TRUE(ledger::append(Path, E, Error)) << Error;
  ledger::setServedPath(Path);
  Body = bodyOf(httpGet(S.port(), "/ledger"));
  S.stop();
  ledger::setServedPath("");
  std::remove(Path.c_str());

  EXPECT_NE(Body.find("\"rows\":1"), std::string::npos) << Body;
  EXPECT_NE(Body.find("statstest_bench"), std::string::npos) << Body;
}

TEST(StatsServer, ConcurrentScrapersDuringSweep) {
  // The hardening contract for the single accept loop: eight scraper
  // threads hammering all three live endpoints while a worker publishes
  // progress must all get complete, well-formed responses — no torn
  // payloads, no wedged server, no crash.
  ledger::setServedPath("");
  http::Server S;
  ASSERT_TRUE(S.start(0));

  std::atomic<bool> Stop{false};
  telemetry::progressBegin("statstest-concurrent", 100000);
  std::thread Worker([&Stop] {
    while (!Stop.load())
      telemetry::progressItem(true, true, 3);
  });

  constexpr int NumScrapers = 8;
  constexpr int GetsPerScraper = 25;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Scrapers;
  for (int T = 0; T != NumScrapers; ++T)
    Scrapers.emplace_back([&, T] {
      const char *Targets[] = {"/metrics", "/healthz", "/ledger"};
      for (int I = 0; I != GetsPerScraper; ++I) {
        const std::string Target = Targets[(T + I) % 3];
        const std::string Resp = httpGet(S.port(), Target);
        if (Resp.find("HTTP/1.1 200 OK") == std::string::npos) {
          ++Failures;
          continue;
        }
        const std::string Body = bodyOf(Resp);
        bool Ok = true;
        if (Target == std::string("/metrics"))
          Ok = Body.find("# TYPE") != std::string::npos;
        else if (Target == std::string("/healthz"))
          Ok = Body.find("\"status\":\"ok\"") != std::string::npos;
        else
          Ok = Body.find("\"ledger\"") != std::string::npos;
        if (!Ok)
          ++Failures;
      }
    });
  for (std::thread &T : Scrapers)
    T.join();
  Stop.store(true);
  Worker.join();
  telemetry::progressFinish();

  // The server must still be alive and answering after the storm.
  const std::string After = httpGet(S.port(), "/healthz");
  S.stop();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_NE(After.find("HTTP/1.1 200 OK"), std::string::npos);
}

TEST(StatsServer, ScrapesMidSweep) {
  http::Server S;
  ASSERT_TRUE(S.start(0));

  // A worker publishing progress while the main thread scrapes — the
  // /healthz snapshot must always be internally consistent JSON. Scraping
  // starts once the worker has published its first item: under load the
  // 20 scrapes could otherwise all finish before the worker ran.
  std::atomic<bool> Stop{false};
  std::promise<void> FirstItem;
  telemetry::progressBegin("statstest-sweep", 1000);
  std::thread Worker([&Stop, &FirstItem] {
    telemetry::progressItem(true, true, 2);
    FirstItem.set_value();
    while (!Stop.load())
      telemetry::progressItem(true, true, 2);
  });
  FirstItem.get_future().wait();

  bool SawProgress = false;
  for (int I = 0; I != 20; ++I) {
    const std::string Body = bodyOf(httpGet(S.port(), "/healthz"));
    ASSERT_NE(Body.find("\"status\":\"ok\""), std::string::npos) << Body;
    ASSERT_NE(Body.find("\"mode\":\"statstest-sweep\""), std::string::npos);
    if (Body.find("\"done\":0,") == std::string::npos)
      SawProgress = true;
  }
  Stop.store(true);
  Worker.join();
  telemetry::progressFinish();
  S.stop();
  EXPECT_TRUE(SawProgress) << "the worker made progress during scraping";
}

namespace {

/// One HTTP front end under test, by name: "stats" is the stats port's
/// bare http::Server, "serve" is ServeServer with its runner's workers
/// off, so no job executes.
class SharedRoutes : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    if (GetParam() == "serve") {
      Queue = std::make_unique<serve::JobQueue>(4);
      serve::JobRunnerConfig RC;
      RC.Workers = 0;
      RC.CheckpointDir = ::testing::TempDir() + "/shared_routes_test";
      Runner = std::make_unique<serve::JobRunner>(*Queue, RC);
      Serve = std::make_unique<serve::ServeServer>(*Queue, *Runner);
      ASSERT_TRUE(Serve->start());
      Port = Serve->port();
    } else {
      Stats = std::make_unique<http::Server>();
      ASSERT_TRUE(Stats->start(0));
      Port = Stats->port();
    }
    ASSERT_NE(Port, 0);
  }

  void TearDown() override {
    if (Serve) {
      Serve->stop();
      Runner->stop();
    }
    if (Stats)
      Stats->stop();
  }

  bool waitQuit(double Seconds) {
    return Serve ? Serve->waitQuit(Seconds) : Stats->waitQuit(Seconds);
  }
  bool quitRequested() const {
    return Serve ? Serve->quitRequested() : Stats->quitRequested();
  }

  uint16_t Port = 0;
  std::unique_ptr<serve::JobQueue> Queue;
  std::unique_ptr<serve::JobRunner> Runner;
  std::unique_ptr<serve::ServeServer> Serve;
  std::unique_ptr<http::Server> Stats;
};

} // namespace

TEST_P(SharedRoutes, MetricsIsPrometheusText) {
  telemetry::counter("sharedroutes.pings").inc();
  const std::string Resp = httpGet(Port, "/metrics");
  EXPECT_EQ(statusOf(Resp), 200) << Resp;
  EXPECT_NE(Resp.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << Resp;
  EXPECT_NE(bodyOf(Resp).find("# TYPE oppsla_sharedroutes_pings_total "
                              "counter"),
            std::string::npos);
}

TEST_P(SharedRoutes, ProfileIsServed) {
  EXPECT_EQ(statusOf(httpGet(Port, "/profile")), 200);
}

TEST_P(SharedRoutes, LedgerIsJson) {
  ledger::setServedPath("");
  const std::string Resp = httpGet(Port, "/ledger");
  EXPECT_EQ(statusOf(Resp), 200) << Resp;
  const std::string Body = bodyOf(Resp);
  EXPECT_TRUE(test::JsonParser(Body).valid()) << Body;
  EXPECT_NE(Body.find("\"hw_counters\""), std::string::npos) << Body;
}

TEST_P(SharedRoutes, BogusLogLevelIs400) {
  const std::string Resp = httpGet(Port, "/logz?level=bogus");
  EXPECT_EQ(statusOf(Resp), 400) << Resp;
  EXPECT_NE(bodyOf(Resp).find("unknown level 'bogus'"), std::string::npos)
      << Resp;
}

TEST_P(SharedRoutes, NonGetOnASharedRouteIs405) {
  EXPECT_EQ(statusOf(httpExchange(Port, "POST", "/metrics")), 405);
  EXPECT_EQ(statusOf(httpExchange(Port, "DELETE", "/quitquitquit")), 405);
  EXPECT_FALSE(quitRequested());
}

TEST_P(SharedRoutes, UnknownPathIs404) {
  EXPECT_EQ(statusOf(httpGet(Port, "/no-such-endpoint")), 404);
  EXPECT_EQ(statusOf(httpExchange(Port, "POST", "/no-such-endpoint")), 404);
}

TEST_P(SharedRoutes, QuitquitquitReleasesWait) {
  EXPECT_FALSE(quitRequested());
  EXPECT_FALSE(waitQuit(0.05)) << "no quit yet: the wait must time out";
  EXPECT_EQ(statusOf(httpGet(Port, "/quitquitquit")), 200);
  EXPECT_TRUE(waitQuit(5.0));
  EXPECT_TRUE(quitRequested());
}

TEST_P(SharedRoutes, TricklingClientCannotHoldTheServer) {
  // A client that sends one byte a second never completes its request
  // head. One accept thread serves everyone, so the request deadline (5 s
  // after accept) must cut it off and let a second client's GET through.
  // A timeout per recv() alone would let the trickle hold the thread for
  // as long as its bytes keep coming: 15 s here, then 5 s more.
  const int Fd = connectTo(Port);
  ASSERT_GE(Fd, 0);
  std::atomic<bool> Answered{false};
  std::thread Trickler([&] {
    const std::string Head = "GET /metrics HTTP/1.1\r\nX:";
    for (int I = 0; I != 15 && !Answered; ++I) {
      if (::send(Fd, &Head[I], 1, MSG_NOSIGNAL) != 1)
        break;
      for (int Tick = 0; Tick != 20 && !Answered; ++Tick)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  // Let the accept thread take the trickling connection first.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto Start = std::chrono::steady_clock::now();
  const std::string Resp = httpGet(Port, "/metrics");
  const double Waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - Start)
                            .count();
  Answered = true;
  Trickler.join();
  ::close(Fd);
  EXPECT_EQ(statusOf(Resp), 200) << Resp;
  EXPECT_LT(Waited, 6.0) << "the trickling client held the accept thread";
}

INSTANTIATE_TEST_SUITE_P(BothServers, SharedRoutes,
                         ::testing::Values("stats", "serve"),
                         [](const auto &Info) { return Info.param; });
