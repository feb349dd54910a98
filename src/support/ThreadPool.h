//===- support/ThreadPool.h - Fixed-size worker pool -----------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed pool of worker threads draining one shared FIFO queue — no work
/// stealing, no priorities — and the repo's one clone-per-worker fan-out.
/// The evaluation sweeps are embarrassingly parallel across images once
/// every attack run owns its RNG (support/Rng.h: Rng::deriveRunSeed), so a
/// plain queue is all the scheduling the project needs; determinism comes
/// from writing results into pre-sized output slots, never from task
/// ordering.
///
/// Pool threads outlive any one job, so submit() runs every task under the
/// submitting thread's ambient profile root and trace id: spans and trace
/// events of a task attribute to the job that queued it, and the worker's
/// own context is restored afterwards. The future's get() rethrows any
/// exception the task threw.
///
/// forEach() is the fan-out: run Fn(I) for every I in [0, N) across the
/// pool, block until every call returned, and only then rethrow the
/// failing call with the lowest index (a deterministic choice even though
/// workers race, and no call still reads the caller's frame). Its slot
/// form also passes a worker slot below numThreads() that no two running
/// calls share, so a caller can give each slot its own classifier clone
/// (classify/Classifier.h: workerClones). The sweeps, the synthesizer's
/// islands and scorers, and the query engine's chunks all fan out this way.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_SUPPORT_THREADPOOL_H
#define OPPSLA_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace oppsla {

class ArgParse;

/// Fixed-size FIFO thread pool.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers; 0 is clamped to 1.
  explicit ThreadPool(size_t NumThreads);

  /// Drains outstanding tasks, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  size_t numThreads() const { return Workers.size(); }

  /// Enqueues \p Task, to run under the calling thread's ambient profile
  /// root and trace id. The future's get() blocks until the task ran and
  /// rethrows anything it threw.
  std::future<void> submit(std::function<void()> Task);

  /// Runs Fn(I) for every I in [0, N) on the pool and blocks until all
  /// calls finished. If any calls throw, the exception of the lowest
  /// failing index is rethrown (the rest still run to completion).
  void forEach(size_t N, const std::function<void(size_t)> &Fn);

  /// forEach() that also passes each call its worker slot: Fn(Slot, I)
  /// with Slot < numThreads(), and no two calls running at once hold the
  /// same slot.
  void forEach(size_t N, const std::function<void(size_t, size_t)> &Fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t hardwareThreads();

private:
  void workerLoop();

  std::mutex Mu;
  std::condition_variable HasWork;
  std::deque<std::packaged_task<void()>> Queue;
  std::vector<std::thread> Workers;
  bool Stopping = false;
};

/// Shared `--threads N` wiring for the CLI and bench binaries: N >= 1 is a
/// worker count, 0 means "all hardware threads", absent defaults to
/// \p Default (serial unless the caller says otherwise).
size_t threadCountFromArgs(const ArgParse &Args, size_t Default = 1);

} // namespace oppsla

#endif // OPPSLA_SUPPORT_THREADPOOL_H
