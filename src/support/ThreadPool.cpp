//===- support/ThreadPool.cpp - Fixed-size worker pool ------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/ArgParse.h"
#include "support/Profiler.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>

using namespace oppsla;

ThreadPool::ThreadPool(size_t NumThreads) {
  const size_t N = std::max<size_t>(1, NumThreads);
  Workers.reserve(N);
  for (size_t I = 0; I != N; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  HasWork.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

std::future<void> ThreadPool::submit(std::function<void()> Task) {
  std::packaged_task<void()> Packaged(
      [Task = std::move(Task), Root = telemetry::ambientProfileRoot(),
       TraceId = telemetry::traceContextId()] {
        telemetry::ProfileTaskScope Profile(Root);
        telemetry::TraceContextScope Trace(TraceId);
        Task();
      });
  std::future<void> Result = Packaged.get_future();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    assert(!Stopping && "submit() after shutdown began");
    Queue.push_back(std::move(Packaged));
  }
  HasWork.notify_one();
  return Result;
}

void ThreadPool::forEach(size_t N, const std::function<void(size_t)> &Fn) {
  forEach(N, [&Fn](size_t, size_t I) { Fn(I); });
}

void ThreadPool::forEach(size_t N,
                         const std::function<void(size_t, size_t)> &Fn) {
  if (N == 0)
    return;
  // One long-lived task per worker slot pulling indices from a shared
  // counter: cheap dynamic load balancing without per-index task overhead.
  // Each index's work is independent, so which slot runs it never affects
  // results — only the failure bookkeeping below needs care.
  std::atomic<size_t> Next{0};
  std::mutex FailMu;
  size_t FailIndex = N;
  std::exception_ptr FailEptr;

  auto Drain = [&](size_t Slot) {
    for (size_t I = Next.fetch_add(1, std::memory_order_relaxed); I < N;
         I = Next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        Fn(Slot, I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(FailMu);
        if (I < FailIndex) {
          FailIndex = I;
          FailEptr = std::current_exception();
        }
      }
    }
  };

  const size_t Tasks = std::min(numThreads(), N);
  std::vector<std::future<void>> Futures;
  Futures.reserve(Tasks);
  for (size_t Slot = 0; Slot != Tasks; ++Slot)
    Futures.push_back(submit([&Drain, Slot] { Drain(Slot); }));
  // Drain never throws, so every get() returns only once its task is done:
  // nothing below runs while a call still reads this frame.
  for (std::future<void> &F : Futures)
    F.get();
  if (FailEptr)
    std::rethrow_exception(FailEptr);
}

size_t ThreadPool::hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::packaged_task<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      HasWork.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task(); // exceptions land in the task's future
  }
}

size_t oppsla::threadCountFromArgs(const ArgParse &Args, size_t Default) {
  const long long N = Args.getInt("threads", static_cast<long long>(Default));
  if (N <= 0)
    return ThreadPool::hardwareThreads();
  return static_cast<size_t>(N);
}
