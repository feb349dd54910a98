//===- tests/serve/JobRunnerTest.cpp - Job execution engine tests -------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runner behaviour that needs real job execution: cancellation observed
// at a shard boundary (the cancelled instant reports the first shard that
// did NOT run, and the partial trace stays fetchable), engines leased
// across jobs changing no artifact byte, finished jobs retaining nothing
// per job beyond what their endpoints read, and the service time samples
// feeding the derived Retry-After.
//
//===----------------------------------------------------------------------===//

#include "serve/JobRunner.h"

#include "nn/Layer.h"
#include "serve/Checkpoint.h"
#include "serve/JobQueue.h"
#include "serve/ServeServer.h"
#include "support/Http.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace oppsla;
using namespace oppsla::serve;

namespace {

/// A tiny real attack job: random-pair attack on a smoke-scale victim,
/// sliced to \p Count images so CheckpointEvery=1 yields Count shards.
JobSpec attackSpec(size_t Count) {
  JobSpec S;
  std::string Error;
  EXPECT_TRUE(parseJobSpec(
      "{\"kind\":\"attack\",\"attack\":\"random\","
      "\"victim\":{\"task\":\"cifar\",\"arch\":\"resnet\","
      "\"scale\":\"smoke\"},\"seed\":1,\"budget\":16,"
      "\"slice\":{\"begin\":0,\"count\":" +
          std::to_string(Count) + "}}",
      S, Error))
      << Error;
  return S;
}

/// A job of \p Kind ("random", "sparse-rs", "suopa" or "eval") on a smoke
/// victim, sliced to [Begin, Begin + Count).
JobSpec kindSpec(const std::string &Kind, const std::string &Victim,
                 size_t Begin, size_t Count) {
  const std::string KindJson =
      Kind == "eval" ? "\"kind\":\"eval\""
                     : "\"kind\":\"attack\",\"attack\":\"" + Kind + "\"";
  JobSpec S;
  std::string Error;
  EXPECT_TRUE(parseJobSpec("{" + KindJson + ",\"victim\":{" + Victim +
                               ",\"scale\":\"smoke\"},\"seed\":1,"
                               "\"budget\":32,\"slice\":{\"begin\":" +
                               std::to_string(Begin) + ",\"count\":" +
                               std::to_string(Count) + "}}",
                           S, Error))
      << Error;
  return S;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// A fresh checkpoint directory under the test temp dir.
std::string freshDir(const std::string &Name) {
  const std::string Dir = ::testing::TempDir() + "/" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// Waits (bounded) until \p J reaches a terminal state.
JobState waitTerminal(const Job &J, double TimeoutSeconds = 120.0) {
  const auto Deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(TimeoutSeconds);
  while (std::chrono::steady_clock::now() < Deadline) {
    const JobState S = J.State.load(std::memory_order_relaxed);
    if (S == JobState::Done || S == JobState::Failed ||
        S == JobState::Cancelled)
      return S;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return J.State.load(std::memory_order_relaxed);
}

} // namespace

TEST(JobRunner, CancelAtShardBoundaryEmitsShardTaggedInstant) {
  JobQueue Queue(8);
  JobRunnerConfig RC;
  RC.Workers = 1;
  RC.Threads = 1;
  RC.CheckpointEvery = 1; // one image per shard: 4 shard boundaries
  RC.CheckpointDir = ::testing::TempDir() + "/job_runner_cancel_test";
  // Cancel after the first shard checkpoints; the runner must observe it
  // at the next boundary, before shard 1 sweeps.
  JobQueue *QueuePtr = &Queue;
  RC.OnShardDone = [QueuePtr](uint64_t JobId, size_t ShardIdx) {
    if (ShardIdx == 0)
      QueuePtr->cancel(JobId);
  };
  JobRunner Runner(Queue, RC);

  auto J = Queue.create(attackSpec(4));
  ASSERT_TRUE(J->Trace) << "tracing is on by default";
  ASSERT_TRUE(Queue.enqueue(J));
  Runner.start();
  const JobState Final = waitTerminal(*J);
  Runner.stop();

  ASSERT_EQ(Final, JobState::Cancelled);
  EXPECT_EQ(J->Done.load(), 1u) << "exactly shard 0 ran";

  // The partial trace is still fetchable and carries the cancellation
  // boundary: instant "cancelled" tagged with shard 1, the first shard
  // that did not run.
  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(J->Trace->chromeTraceJson(), Doc, Error))
      << Error;
  const json::Value *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  bool SawCancelled = false, SawShard0 = false, SawShard1 = false;
  for (const json::Value &E : Events->array()) {
    const std::string Name = E.getString("name", "");
    const json::Value *Args = E.find("args");
    if (Name == "cancelled") {
      SawCancelled = true;
      ASSERT_NE(Args, nullptr);
      EXPECT_EQ(E.getString("ph", ""), "i");
      EXPECT_EQ(Args->getNumber("shard", -1.0), 1.0)
          << "cancel boundary must be the first unprocessed shard";
    }
    if (Name == "shard" && Args) {
      SawShard0 |= Args->getNumber("shard", -1.0) == 0.0;
      SawShard1 |= Args->getNumber("shard", -1.0) == 1.0;
    }
  }
  EXPECT_TRUE(SawCancelled);
  EXPECT_TRUE(SawShard0) << "shard 0 completed and must appear";
  EXPECT_FALSE(SawShard1) << "shard 1 never ran";

  // A cancelled job yields no service-time sample (only Done jobs feed
  // the Retry-After estimate).
  EXPECT_EQ(Runner.medianServiceSeconds(), 0.0);
}

TEST(JobRunner, ServiceSamplesFeedTheMedian) {
  JobQueue Queue(2);
  JobRunnerConfig RC;
  RC.Workers = 0;
  RC.CheckpointDir = ::testing::TempDir() + "/job_runner_median_test";
  JobRunner Runner(Queue, RC);
  EXPECT_EQ(Runner.medianServiceSeconds(), 0.0);
  Runner.recordServiceSample(4.0);
  EXPECT_EQ(Runner.medianServiceSeconds(), 4.0);
  Runner.recordServiceSample(2.0);
  EXPECT_EQ(Runner.medianServiceSeconds(), 3.0) << "even count averages";
  Runner.recordServiceSample(10.0);
  EXPECT_EQ(Runner.medianServiceSeconds(), 4.0);
}

TEST(JobRunner, ServiceMedianCoversTheMostRecentWindow) {
  JobQueue Queue(2);
  JobRunnerConfig RC;
  RC.Workers = 0;
  RC.CheckpointDir = ::testing::TempDir() + "/job_runner_window_test";
  JobRunner Runner(Queue, RC);
  static_assert(JobRunner::ServiceWindow == 1024);
  // Sample I is I seconds: the last 1024 of 5000 are 3976..4999, whose
  // median is 4487.5. One sample more or fewer in the window moves it by
  // half a second; all 5000 would give 2499.5.
  for (size_t I = 0; I != 5000; ++I)
    Runner.recordServiceSample(static_cast<double>(I));
  EXPECT_EQ(Runner.medianServiceSeconds(), 4487.5);
}

TEST(JobRunner, LeasedEnginesMatchAFreshRunnerByteForByte) {
  // Every kind on both smoke victims, twice, with overlapping slices, so
  // jobs lease engines (and score caches) that earlier jobs on the same
  // victim used, across two workers and two shards per job. The slices
  // straddle the two classes of the smoke test sets, where outcomes mix
  // successes, failures and discards, so an engine of the wrong victim
  // shows.
  const std::vector<std::string> Kinds = {"random", "sparse-rs", "suopa",
                                          "eval"};
  const std::vector<std::string> Victims = {
      "\"task\":\"cifar\",\"arch\":\"resnet\"",
      "\"task\":\"imagenet\",\"arch\":\"resnet50\""};
  std::vector<JobSpec> Specs;
  for (size_t Round = 0; Round != 2; ++Round)
    for (const std::string &V : Victims)
      for (const std::string &K : Kinds)
        Specs.push_back(kindSpec(K, V, 4 + 2 * Round, 4));

  JobRunnerConfig RC;
  RC.Workers = 2;
  RC.Threads = 1;
  RC.CheckpointEvery = 2;
  RC.CheckpointDir = freshDir("job_runner_lease_pooled");
  std::vector<std::string> Pooled;
  {
    JobQueue Queue(Specs.size());
    JobRunner Runner(Queue, RC);
    std::vector<std::shared_ptr<Job>> Jobs;
    for (const JobSpec &S : Specs) {
      Jobs.push_back(Queue.create(S));
      ASSERT_TRUE(Queue.enqueue(Jobs.back()));
    }
    Runner.start();
    for (const auto &J : Jobs) {
      ASSERT_EQ(waitTerminal(*J), JobState::Done) << J->errorMessage();
      Pooled.push_back(readFile(jobResultPath(RC.CheckpointDir, J->Id)));
    }
    Runner.stop();
  }

  for (size_t I = 0; I != Specs.size(); ++I) {
    RC.Workers = 1;
    RC.CheckpointDir = freshDir("job_runner_lease_alone");
    JobQueue Queue(1);
    JobRunner Runner(Queue, RC);
    auto J = Queue.create(Specs[I]);
    ASSERT_TRUE(Queue.enqueue(J));
    Runner.start();
    ASSERT_EQ(waitTerminal(*J), JobState::Done) << J->errorMessage();
    Runner.stop();
    const std::string Alone =
        readFile(jobResultPath(RC.CheckpointDir, J->Id));
    ASSERT_FALSE(Alone.empty());
    EXPECT_EQ(Pooled[I], Alone) << "job " << I << ": " << jobSpecJson(Specs[I]);
  }
}

TEST(JobRunner, FinishedJobsKeepNoPerJobMetricsOrRuns) {
  JobQueue Queue(4);
  JobRunnerConfig RC;
  RC.Workers = 1;
  RC.Threads = 1;
  RC.CheckpointDir = freshDir("job_runner_retention_test");
  JobRunner Runner(Queue, RC);
  ServeServer Server(Queue, Runner);
  ASSERT_TRUE(Server.start());
  Runner.start();

  // Every job repeats the work of one of the first three, so whatever
  // telemetry a job registers exists after those three.
  const std::vector<std::string> Kinds = {"random", "sparse-rs", "suopa"};
  std::vector<std::shared_ptr<Job>> Jobs;
  auto RunJobs = [&](size_t Upto) {
    while (Jobs.size() != Upto) {
      auto J = Queue.create(
          kindSpec(Kinds[Jobs.size() % Kinds.size()],
                   "\"task\":\"cifar\",\"arch\":\"resnet\"", 0, 4));
      ASSERT_TRUE(Queue.enqueue(J));
      ASSERT_EQ(waitTerminal(*J), JobState::Done) << J->errorMessage();
      Jobs.push_back(J);
    }
  };
  auto SeriesLines = [] {
    const std::string Text = telemetry::prometheusTextExposition();
    EXPECT_EQ(Text.find("serve_job_"), std::string::npos)
        << "per-job series on /metrics";
    return std::count(Text.begin(), Text.end(), '\n');
  };

  RunJobs(3);
  const auto LinesAfter3 = SeriesLines();
  const uint64_t GenerationAfter3 = paramGeneration();
  RunJobs(20);
  EXPECT_EQ(SeriesLines(), LinesAfter3)
      << "finished jobs must not grow the metrics registry";
  EXPECT_EQ(paramGeneration(), GenerationAfter3)
      << "later jobs lease the idle engine; a clone moves the generation";

  for (const auto &J : Jobs) {
    std::lock_guard<std::mutex> Lock(J->Mu);
    EXPECT_TRUE(J->Runs.empty()) << "job " << J->Id;
  }
  // The status endpoint still reports progress from the job's counters.
  http::Response Resp;
  std::string Error;
  ASSERT_TRUE(http::request(Server.port(), "GET",
                            "/v1/jobs/" + std::to_string(Jobs.back()->Id),
                            "", Resp, Error))
      << Error;
  ASSERT_EQ(Resp.Status, 200);
  json::Value Doc;
  ASSERT_TRUE(json::parse(Resp.Body, Doc, Error)) << Error;
  EXPECT_EQ(Doc.getString("state", ""), "done");
  EXPECT_EQ(Doc.getNumber("done", -1.0), 4.0);
  EXPECT_EQ(Doc.getNumber("total", -1.0), 4.0);
  ASSERT_TRUE(http::request(Server.port(), "GET",
                            "/v1/jobs/" + std::to_string(Jobs.back()->Id) +
                                "/result",
                            "", Resp, Error))
      << Error;
  EXPECT_EQ(Resp.Status, 200);
  EXPECT_FALSE(Resp.Body.empty());

  Server.stop();
  Runner.stop();
}
