//===- tests/support/StatsServerTest.cpp - Embedded HTTP server tests ---------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Drives the embedded stats server over a real loopback socket: binds an
// ephemeral port, issues raw HTTP/1.1 GETs, and validates the /metrics,
// /healthz and /profile payloads — including a scrape taken mid-sweep
// while a worker thread is publishing progress.
//
//===----------------------------------------------------------------------===//

#include "support/Ledger.h"
#include "support/Metrics.h"
#include "support/Profiler.h"
#include "support/Progress.h"
#include "support/StatsServer.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

using namespace oppsla;

namespace {

/// Minimal HTTP client: one GET, reads to EOF (the server sends
/// `Connection: close`), returns the raw response.
std::string httpGet(uint16_t Port, const std::string &Target) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return "";
  }
  const std::string Req =
      "GET " + Target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
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

/// Same GET, but trickled one byte per send() with a pause mid-header —
/// the request line alone is NOT a complete request, so a server that
/// parses after a single recv() fails this.
std::string httpGetSplit(uint16_t Port, const std::string &Target) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return "";
  }
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

} // namespace

TEST(StatsServer, BindsEphemeralPortAndStops) {
  telemetry::StatsServer S;
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
  telemetry::StatsServer S;
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
  telemetry::StatsServer S;
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
  telemetry::StatsServer S;
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
  telemetry::StatsServer S;
  ASSERT_TRUE(S.start(0));
  const std::string Resp = httpGetSplit(S.port(), "/metrics");
  S.stop();
  EXPECT_NE(Resp.find("HTTP/1.1 200 OK"), std::string::npos) << Resp;
  EXPECT_NE(bodyOf(Resp).find("oppsla_statstest_split_total"),
            std::string::npos);
}

TEST(StatsServer, UnknownPathIs404) {
  telemetry::StatsServer S;
  ASSERT_TRUE(S.start(0));
  const std::string Resp = httpGet(S.port(), "/no-such-endpoint");
  S.stop();
  EXPECT_NE(Resp.find("HTTP/1.1 404"), std::string::npos);
}

TEST(StatsServer, QuitEndpointReleasesWait) {
  telemetry::StatsServer S;
  ASSERT_TRUE(S.start(0));
  EXPECT_FALSE(S.quitRequested());
  EXPECT_FALSE(S.waitQuit(0.05)) << "no quit yet: the wait must time out";
  httpGet(S.port(), "/quitquitquit");
  EXPECT_TRUE(S.waitQuit(5.0));
  EXPECT_TRUE(S.quitRequested());
  S.stop();
}

TEST(StatsServer, ServesLedgerEndpoint) {
  // With no ledger registered the endpoint still answers with a valid,
  // empty document plus the hw-counter availability block.
  ledger::setServedPath("");
  telemetry::StatsServer S;
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
  telemetry::StatsServer S;
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
  telemetry::StatsServer S;
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
