//===- classify/QueryCounter.h - Query accounting wrapper -------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Query accounting is the paper's central metric: every attack is scored
/// by how many times it submits an image to the classifier. QueryCounter
/// wraps any Classifier, counts every scores() call and every memo hit
/// claimed with claimHit(), and optionally enforces a hard budget.
/// Exceeding the budget makes exhausted() true and subsequent calls return
/// an empty vector, which attack loops treat as "stop, attack failed".
///
/// The count is a relaxed atomic claimed via CAS, so concurrent scores()
/// callers never overshoot the budget.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_CLASSIFY_QUERYCOUNTER_H
#define OPPSLA_CLASSIFY_QUERYCOUNTER_H

#include "classify/Classifier.h"
#include "support/Trace.h"

#include <atomic>
#include <cstdint>
#include <limits>

namespace oppsla {

/// Counting / budget-enforcing classifier decorator.
///
/// When the telemetry trace sink is open, every counted query also emits a
/// `query` event carrying the query index, the predicted class, and the
/// margin (to the true class when set via setTraceTrueClass, else
/// top1 - top2) — the raw per-query series behind the paper's
/// queries-to-the-classifier metric.
class QueryCounter : public Classifier {
public:
  static constexpr uint64_t Unlimited =
      std::numeric_limits<uint64_t>::max();

  /// Wraps \p Inner (not owned) with a per-lifetime \p Budget.
  explicit QueryCounter(Classifier &Inner, uint64_t Budget = Unlimited)
      : Inner(Inner), Budget(Budget) {}

  std::vector<float> scores(const Image &Img) override {
    const uint64_t Idx = claim();
    if (Idx == 0)
      return {};
    std::vector<float> S = Inner.scores(Img);
    if (telemetry::traceEnabled())
      emitQueryEvent(S, Idx);
    return S;
  }

  /// Claims one query whose \p Scores the caller already holds (a hit in
  /// core/Sketch.h's SketchMemo): counted, budgeted and traced exactly as
  /// scores() would, without a forward. Returns false, like scores()'s
  /// empty vector, when the budget is spent.
  bool claimHit(const std::vector<float> &Scores) {
    const uint64_t Idx = claim();
    if (Idx == 0)
      return false;
    if (telemetry::traceEnabled())
      emitQueryEvent(Scores, Idx);
    return true;
  }

  /// Forwards up to remaining() images to the inner classifier's
  /// speculative prefetch. Prefetching is never charged: it is the engine
  /// warming its cache, not the attack querying the model.
  void prefetch(std::span<const Image> Imgs) override;
  bool prefetchable() const override { return Inner.prefetchable(); }

  size_t numClasses() const override { return Inner.numClasses(); }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t budget() const { return Budget; }
  bool exhausted() const {
    return Exhausted.load(std::memory_order_relaxed);
  }
  /// Queries left under the budget; an Unlimited budget stays Unlimited
  /// rather than shrinking arithmetically (Unlimited is a sentinel, not a
  /// number of queries).
  uint64_t remaining() const {
    return Budget == Unlimited ? Unlimited : Budget - count();
  }

  /// Resets the counter (and exhaustion) for a fresh attack; optionally
  /// installs a new budget. Not safe concurrently with in-flight queries.
  void reset(uint64_t NewBudget) {
    Count.store(0, std::memory_order_relaxed);
    Exhausted.store(false, std::memory_order_relaxed);
    Budget = NewBudget;
  }
  void reset() { reset(Budget); }

  /// Stamps the attacked image's true class onto per-query trace events so
  /// their margin field is the paper's untargeted margin.
  void setTraceTrueClass(size_t TrueClass) {
    HasTrueClass = true;
    this->TrueClass = TrueClass;
  }

private:
  /// CAS-claims one query and returns its 1-based index, or 0 (marking the
  /// counter exhausted) when the budget is spent.
  uint64_t claim();

  /// Cold path: emits the per-query trace event (tracing enabled only).
  /// \p Idx is the 1-based query index the scores belong to.
  void emitQueryEvent(const std::vector<float> &Scores, uint64_t Idx) const;

  Classifier &Inner;
  uint64_t Budget;
  std::atomic<uint64_t> Count{0};
  std::atomic<bool> Exhausted{false};
  bool HasTrueClass = false;
  size_t TrueClass = 0;
};

} // namespace oppsla

#endif // OPPSLA_CLASSIFY_QUERYCOUNTER_H
