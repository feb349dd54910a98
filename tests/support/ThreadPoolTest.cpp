//===- tests/support/ThreadPoolTest.cpp - Worker pool tests -------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/Profiler.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>

using namespace oppsla;

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::atomic<int> Ran{0};
  std::vector<std::future<void>> Futures;
  for (int I = 0; I != 100; ++I)
    Futures.push_back(Pool.submit([&Ran] { ++Ran; }));
  for (auto &F : Futures)
    F.get();
  EXPECT_EQ(Ran.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.numThreads(), 1u);
  auto F = Pool.submit([] {});
  F.get();
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool Pool(2);
  auto Good = Pool.submit([] {});
  auto Bad = Pool.submit([] { throw std::runtime_error("task failed"); });
  Good.get();
  EXPECT_THROW(Bad.get(), std::runtime_error);
  // The pool survives a throwing task and keeps running new ones.
  auto After = Pool.submit([] {});
  After.get();
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool Pool(3);
  std::atomic<int> Total{0};
  for (int Batch = 0; Batch != 5; ++Batch) {
    std::vector<std::future<void>> Futures;
    for (int I = 0; I != 20; ++I)
      Futures.push_back(Pool.submit([&Total] { ++Total; }));
    for (auto &F : Futures)
      F.get();
    EXPECT_EQ(Total.load(), (Batch + 1) * 20);
  }
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(1);
    for (int I = 0; I != 50; ++I)
      Pool.submit([&Ran] { ++Ran; });
    // Destructor must run all 50, not drop queued tasks.
  }
  EXPECT_EQ(Ran.load(), 50);
}

TEST(ThreadPool, ForEachCoversAllIndicesExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(97);
  Pool.forEach(97, [&Hits](size_t I) { ++Hits[I]; });
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ForEachZeroIsANoop) {
  ThreadPool Pool(2);
  Pool.forEach(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ForEachRethrowsLowestFailingIndex) {
  ThreadPool Pool(4);
  std::atomic<int> Ran{0};
  try {
    Pool.forEach(64, [&Ran](size_t I) {
      ++Ran;
      if (I == 7 || I == 31)
        throw std::runtime_error("fail@" + std::to_string(I));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "fail@7");
  }
  EXPECT_EQ(Ran.load(), 64) << "remaining indices still run";
}

TEST(ThreadPool, ForEachSlotsAreBelowNumThreadsAndNeverShared) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(200);
  std::vector<std::atomic<int>> Holders(Pool.numThreads());
  std::atomic<bool> OutOfRange{false}, Shared{false};
  Pool.forEach(200, [&](size_t Slot, size_t I) {
    if (Slot >= Pool.numThreads()) {
      OutOfRange = true;
      return;
    }
    if (Holders[Slot].fetch_add(1) != 0)
      Shared = true;
    ++Hits[I];
    std::this_thread::yield(); // widen the window another holder could hit
    Holders[Slot].fetch_sub(1);
  });
  EXPECT_FALSE(OutOfRange) << "a slot at or above numThreads()";
  EXPECT_FALSE(Shared) << "two running calls held one slot";
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, TasksRunUnderTheSubmittersContext) {
  ThreadPool Pool(1); // one worker, so every task below shares its thread
  std::string SeenTrace;
  const char *SeenRoot = nullptr;
  auto Record = [&] {
    SeenTrace = telemetry::traceContextId();
    SeenRoot = telemetry::ambientProfileRoot();
  };
  std::vector<std::string> ForEachTraces(8);
  {
    telemetry::TraceContextScope Trace("0123456789abcdef0123456789abcdef");
    telemetry::ProfileTaskScope Root("job.7");
    Pool.submit(Record).get();
    Pool.forEach(ForEachTraces.size(), [&](size_t I) {
      ForEachTraces[I] = telemetry::traceContextId();
    });
  }
  EXPECT_EQ(SeenTrace, "0123456789abcdef0123456789abcdef");
  ASSERT_NE(SeenRoot, nullptr);
  EXPECT_STREQ(SeenRoot, "job.7");
  for (const std::string &T : ForEachTraces)
    EXPECT_EQ(T, "0123456789abcdef0123456789abcdef");

  // The worker gives the job's context back: a task queued without one
  // runs without one on the same thread.
  Pool.submit(Record).get();
  EXPECT_EQ(SeenTrace, "");
  EXPECT_EQ(SeenRoot, nullptr);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

namespace {

ArgParse makeArgs(std::vector<const char *> Argv) {
  Argv.insert(Argv.begin(), "prog");
  return ArgParse(static_cast<int>(Argv.size()), Argv.data());
}

} // namespace

TEST(ThreadCountFromArgs, ExplicitCount) {
  EXPECT_EQ(threadCountFromArgs(makeArgs({"--threads", "4"})), 4u);
  EXPECT_EQ(threadCountFromArgs(makeArgs({"--threads", "1"})), 1u);
}

TEST(ThreadCountFromArgs, AbsentUsesDefault) {
  EXPECT_EQ(threadCountFromArgs(makeArgs({})), 1u);
  EXPECT_EQ(threadCountFromArgs(makeArgs({}), 8), 8u);
}

TEST(ThreadCountFromArgs, ZeroMeansAllCores) {
  EXPECT_EQ(threadCountFromArgs(makeArgs({"--threads", "0"})),
            ThreadPool::hardwareThreads());
}
