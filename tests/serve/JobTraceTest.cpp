//===- tests/serve/JobTraceTest.cpp - Per-job phase timeline tests ------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The JobTrace span recorder and its Chrome Trace Event JSON export:
// phase tokens, idempotent endPhase, shard tagging, instants, open-span
// rendering for partial traces, and the process-wide tracing gate.
//
//===----------------------------------------------------------------------===//

#include "serve/JobTrace.h"

#include "support/Json.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace oppsla;
using namespace oppsla::serve;

namespace {

json::Value parseTrace(const JobTrace &T) {
  json::Value Doc;
  std::string Error;
  EXPECT_TRUE(json::parse(T.chromeTraceJson(), Doc, Error)) << Error;
  return Doc;
}

/// First event whose "name" is \p Name, or nullptr.
const json::Value *findEvent(const json::Value &Doc, const std::string &Name) {
  const json::Value *Events = Doc.find("traceEvents");
  if (!Events || !Events->isArray())
    return nullptr;
  for (const json::Value &E : Events->array())
    if (E.getString("name", "") == Name)
      return &E;
  return nullptr;
}

} // namespace

TEST(JobTrace, PhaseSpansRenderAsCompleteEvents) {
  JobTrace T(7, telemetry::mintTraceContext());
  const uint64_t Tok = T.beginPhase("queued");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const uint64_t DurNs = T.endPhase(Tok);
  EXPECT_GE(DurNs, 1000000u) << "a 2ms span must report >= 1ms";

  const json::Value Doc = parseTrace(T);
  const json::Value *E = findEvent(Doc, "queued");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->getString("ph", ""), "X");
  EXPECT_EQ(E->getNumber("pid", -1.0), 1.0);
  EXPECT_EQ(E->getNumber("tid", -1.0), 7.0);
  EXPECT_GE(E->getNumber("dur", -1.0), 1000.0) << "dur is microseconds";
  const json::Value *Args = E->find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->getString("trace_id", ""), T.traceId());
}

TEST(JobTrace, EndPhaseIsIdempotentAndRejectsBadTokens) {
  JobTrace T(1, telemetry::mintTraceContext());
  const uint64_t Tok = T.beginPhase("setup");
  EXPECT_GT(T.endPhase(Tok), 0u);
  EXPECT_EQ(T.endPhase(Tok), 0u) << "double-close must be a no-op";
  EXPECT_EQ(T.endPhase(0), 0u) << "token 0 is never valid";
  EXPECT_EQ(T.endPhase(999), 0u) << "out-of-range token";

  // Exactly one "setup" event in the export despite the re-closes.
  const json::Value Doc = parseTrace(T);
  size_t Count = 0;
  for (const json::Value &E : Doc.find("traceEvents")->array())
    Count += E.getString("name", "") == "setup";
  EXPECT_EQ(Count, 1u);
}

TEST(JobTrace, ShardPhasesCarryTheirIndex) {
  JobTrace T(3, telemetry::mintTraceContext());
  T.endPhase(T.beginPhase("shard", 0));
  T.endPhase(T.beginPhase("shard", 2));

  const json::Value Doc = parseTrace(T);
  std::vector<double> Shards;
  for (const json::Value &E : Doc.find("traceEvents")->array())
    if (E.getString("name", "") == "shard") {
      const json::Value *Args = E.find("args");
      ASSERT_NE(Args, nullptr);
      Shards.push_back(Args->getNumber("shard", -1.0));
    }
  ASSERT_EQ(Shards.size(), 2u);
  EXPECT_EQ(Shards[0], 0.0);
  EXPECT_EQ(Shards[1], 2.0);
}

TEST(JobTrace, InstantsAndOpenSpansRenderInPartialTraces) {
  JobTrace T(5, telemetry::mintTraceContext());
  T.beginPhase("shard", 1); // left open: the job is "still running"
  T.instant("cancelled", 1);

  const json::Value Doc = parseTrace(T);
  const json::Value *Open = findEvent(Doc, "shard");
  ASSERT_NE(Open, nullptr);
  EXPECT_EQ(Open->getString("ph", ""), "X");
  ASSERT_NE(Open->find("args"), nullptr);
  EXPECT_TRUE(Open->find("args")->find("open") != nullptr &&
              Open->find("args")->find("open")->boolean())
      << "open spans must be flagged";

  const json::Value *I = findEvent(Doc, "cancelled");
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->getString("ph", ""), "i");
  EXPECT_EQ(I->getString("s", ""), "t");
  EXPECT_EQ(I->find("args")->getNumber("shard", -1.0), 1.0);
}

TEST(JobTrace, ExportCarriesMetadataAndMonotoneTimestamps) {
  JobTrace T(9, telemetry::mintTraceContext());
  for (int I = 0; I != 3; ++I)
    T.endPhase(T.beginPhase("shard", I));

  const json::Value Doc = parseTrace(T);
  const auto &Events = Doc.find("traceEvents")->array();
  ASSERT_GE(Events.size(), 5u) << "2 metadata + 3 spans";
  EXPECT_EQ(Events[0].getString("ph", ""), "M") << "metadata leads";
  double LastTs = -1.0;
  for (const json::Value &E : Events) {
    if (E.getString("ph", "") == "M")
      continue;
    const double Ts = E.getNumber("ts", -1.0);
    EXPECT_GE(Ts, LastTs) << "events must be sorted by start time";
    LastTs = Ts;
  }
  EXPECT_EQ(Doc.getString("displayTimeUnit", ""), "ms");
}

TEST(JobTrace, TracingGateToggles) {
  EXPECT_TRUE(jobTracingEnabled()) << "tracing ships enabled";
  setJobTracingEnabled(false);
  EXPECT_FALSE(jobTracingEnabled());
  setJobTracingEnabled(true);
  EXPECT_TRUE(jobTracingEnabled());
}
