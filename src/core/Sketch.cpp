//===- core/Sketch.cpp - The one pixel attack sketch (Algorithm 1) -----------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Sketch.h"

#include "classify/QueryCounter.h"
#include "support/Profiler.h"

#include <deque>
#include <stdexcept>

using namespace oppsla;

SketchMemo::SketchMemo(const Image &X)
    : X(X), Slots(NumCorners * X.numPixels() + 1, Empty) {}

bool SketchMemo::acquire(uint32_t Key, std::vector<float> &Out) {
  assert(Key < Slots.size() && "memo key out of range");
  std::unique_lock<std::mutex> Lock(Mu);
  Published.wait(Lock, [&] { return Slots[Key] != Pending; });
  if (Slots[Key] == Empty) {
    Slots[Key] = Pending;
    return false;
  }
  const float *Row = Rows.data() + static_cast<size_t>(Slots[Key]) * RowWidth;
  Out.assign(Row, Row + RowWidth);
  return true;
}

void SketchMemo::publish(uint32_t Key, const std::vector<float> &Scores) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    assert(Slots[Key] == Pending && "publishing an unreserved key");
    if (Scores.empty()) {
      Slots[Key] = Empty;
    } else {
      if (RowWidth == 0)
        RowWidth = Scores.size();
      assert(Scores.size() == RowWidth && "score rows differ in width");
      Slots[Key] = static_cast<uint32_t>(Rows.size() / RowWidth);
      Rows.insert(Rows.end(), Scores.begin(), Scores.end());
    }
  }
  Published.notify_all();
}

namespace {

/// A failed pair queued for eager expansion, with the environment its
/// conditions are evaluated in.
struct EagerItem {
  LocPert LP;
  CondEnv Env;
};

/// Shared state of one sketch run.
struct RunState {
  const Image &X;
  size_t TrueClass;
  QueryCounter Queries;
  PairSpace Space;
  PairQueue L;
  Image Scratch; ///< X with one pixel temporarily replaced per query
  SketchMemo *Memo; ///< null: every query forwards
  double BaseTrueScore = 0.0;

  RunState(Classifier &N, const Image &Img, size_t TrueClass,
           uint64_t Budget, SketchMemo *Memo)
      : X(Img), TrueClass(TrueClass), Queries(N, Budget), Space(Img),
        L(Space.initialOrder(), Space.size()), Scratch(Img), Memo(Memo) {
    Queries.setTraceTrueClass(TrueClass);
  }

  /// N(Img) for the query \p Img that memo key \p Key names (its PairId,
  /// or Space.size() for X); empty once the budget is spent. A memo hit is
  /// claimed like a forward, so the count, the budget and the trace cannot
  /// tell the two apart.
  std::vector<float> query(uint32_t Key, const Image &Img) {
    if (!Memo)
      return Queries.scores(Img);
    std::vector<float> S;
    if (Memo->lookup(Key, S, [&] { return Queries.scores(Img); }) &&
        !Queries.claimHit(S))
      S.clear();
    return S;
  }

  /// A run with a memo never speculates: a prefetch would forward pairs
  /// the memo already holds.
  bool prefetchable() const { return !Memo && Queries.prefetchable(); }

  /// Status of a single candidate query.
  enum class QueryStatus { Failed, Success, Exhausted };

  /// Queries x[l <- p] for pair \p Id. On failure fills \p Env for the
  /// condition evaluation.
  QueryStatus queryPair(PairId Id, CondEnv &Env) {
    const LocPert LP = Space.pairOf(Id);
    const Pixel Orig = X.pixel(LP.Loc.Row, LP.Loc.Col);
    const Pixel Pert = LP.perturbation();
    Scratch.setPixel(LP.Loc.Row, LP.Loc.Col, Pert);
    const std::vector<float> Scores = query(Id, Scratch);
    Scratch.setPixel(LP.Loc.Row, LP.Loc.Col, Orig);
    if (Scores.empty())
      return QueryStatus::Exhausted;
    if (argmaxScore(Scores) != TrueClass)
      return QueryStatus::Success;
    Env.OriginalPixel = Orig;
    Env.PerturbPixel = Pert;
    Env.ScoreDiff = BaseTrueScore - Scores[TrueClass];
    Env.CenterDist = Space.centerDistance(LP.Loc);
    return QueryStatus::Failed;
  }

  /// Warms the query engine's cache with the candidate images of \p Ids as
  /// one batched submission. No-op with a memo or without a prefetchable
  /// classifier (the engine advertises one only when its cache is on);
  /// never counts against the query budget. Every pair is queried at most
  /// once per run, so even when the consumption order is reordered under
  /// the batch, a prefetched pair's entry stays useful until eviction.
  void prefetchPairs(const std::vector<PairId> &Ids) {
    if (Ids.size() < 2 || !prefetchable())
      return;
    telemetry::ProfileScope Span("sketch.prefetch");
    PrefetchBatch.clear();
    PrefetchBatch.reserve(Ids.size());
    for (PairId Id : Ids) {
      const LocPert LP = Space.pairOf(Id);
      Image Cand = X;
      Cand.setPixel(LP.Loc.Row, LP.Loc.Col, LP.perturbation());
      PrefetchBatch.push_back(std::move(Cand));
    }
    Queries.prefetch(PrefetchBatch);
  }

  /// closest_loc(l, p): all live pairs at L-infinity distance 1 with the
  /// same perturbation.
  void closestLoc(const LocPert &LP, std::vector<PairId> &Out) {
    Out.clear();
    NeighborScratch.clear();
    Space.neighbors(LP.Loc, NeighborScratch);
    for (const PixelLoc &NL : NeighborScratch) {
      const PairId Id = Space.idOf(LocPert{NL, LP.Corner});
      if (L.contains(Id))
        Out.push_back(Id);
    }
  }

  /// closest_pert(L, l): the next (earliest-queued) live pair at location
  /// \p Loc, or InvalidPair.
  PairId closestPert(const PixelLoc &Loc) {
    PairId Best = InvalidPair;
    uint64_t BestSeq = 0;
    for (CornerIdx C = 0; C != NumCorners; ++C) {
      const PairId Id = Space.idOf(LocPert{Loc, C});
      if (!L.contains(Id))
        continue;
      const uint64_t S = L.seq(Id);
      if (Best == InvalidPair || S < BestSeq) {
        Best = Id;
        BestSeq = S;
      }
    }
    return Best;
  }

  std::vector<PixelLoc> NeighborScratch;
  std::vector<Image> PrefetchBatch;
};

/// Queue-front pairs prefetched per batch in the sketch's main loop.
constexpr size_t FrontPrefetchWindow = 16;

} // namespace

SketchResult Sketch::run(Classifier &N, const Image &X, size_t TrueClass,
                         uint64_t QueryBudget, SketchMemo *Memo) const {
  assert(TrueClass < N.numClasses() && "true class out of range");
  if (Memo && !Memo->image().sameBytes(X))
    throw std::invalid_argument("sketch memo was built for another image");
  RunState S(N, X, TrueClass, QueryBudget, Memo);
  SketchResult Result;

  auto Finish = [&](bool Success, LocPert Adv) {
    Result.Success = Success;
    Result.Adversarial = Adv;
    Result.Queries = S.Queries.count();
    Result.BudgetExhausted = S.Queries.exhausted();
    return Result;
  };

  // One initial query of the unperturbed image: the conditions need
  // N(x)_{c_x} for score_diff.
  {
    const std::vector<float> Base =
        S.query(static_cast<uint32_t>(S.Space.size()), X);
    if (Base.empty())
      return Finish(false, LocPert{});
    if (argmaxScore(Base) != TrueClass) {
      Result.AlreadyMisclassified = true;
      return Finish(true, LocPert{});
    }
    S.BaseTrueScore = Base[TrueClass];
  }

  std::vector<PairId> Neigh;
  std::vector<PairId> Upcoming;
  uint64_t PopsUntilPrefetch = 0;
  while (!S.L.empty()) {
    // Batch the next window of queue-front candidates through the engine.
    // Eager checks below may reorder or steal some of them, but a stolen
    // pair is queried (and so hits) anyway — only pairs never reached
    // before the run ends cost a wasted forward.
    if (PopsUntilPrefetch == 0 && S.prefetchable()) {
      Upcoming.clear();
      S.L.peekFront(FrontPrefetchWindow, Upcoming);
      S.prefetchPairs(Upcoming);
      PopsUntilPrefetch = Upcoming.size();
    }
    if (PopsUntilPrefetch != 0)
      --PopsUntilPrefetch;

    const PairId Id = S.L.popFront();
    const LocPert LP = S.Space.pairOf(Id);
    CondEnv Env;
    switch (S.queryPair(Id, Env)) {
    case RunState::QueryStatus::Success:
      return Finish(true, LP);
    case RunState::QueryStatus::Exhausted:
      return Finish(false, LP);
    case RunState::QueryStatus::Failed:
      break;
    }

    // Push-back reordering (lines 5-6).
    {
      telemetry::ProfileScope ReorderSpan("sketch.reorder");
      if (evalCondition(Prog.b1(), Env)) {
        S.closestLoc(LP, Neigh);
        for (PairId NId : Neigh)
          S.L.pushBack(NId);
      }
      if (evalCondition(Prog.b2(), Env)) {
        const PairId NId = S.closestPert(LP.Loc);
        if (NId != InvalidPair)
          S.L.pushBack(NId);
      }
    }

    // Eager (conceptual push-front) BFS (lines 7-24).
    telemetry::ProfileScope EagerSpan(
        telemetry::profilingEnabled() ? "sketch.eager" : nullptr);
    std::deque<EagerItem> LocQ, PertQ;
    LocQ.push_back(EagerItem{LP, Env});
    PertQ.push_back(EagerItem{LP, Env});
    while (!LocQ.empty() || !PertQ.empty()) {
      while (!LocQ.empty()) {
        const EagerItem It = LocQ.front();
        LocQ.pop_front();
        if (!evalCondition(Prog.b3(), It.Env))
          continue;
        S.closestLoc(It.LP, Neigh);
        // Every live neighbor below is queried (barring early success), so
        // this batch is an exact prediction, not speculation.
        S.prefetchPairs(Neigh);
        for (PairId NId : Neigh) {
          if (!S.L.contains(NId))
            continue; // an earlier eager check in this batch removed it
          S.L.remove(NId);
          const LocPert NLP = S.Space.pairOf(NId);
          CondEnv NEnv;
          switch (S.queryPair(NId, NEnv)) {
          case RunState::QueryStatus::Success:
            return Finish(true, NLP);
          case RunState::QueryStatus::Exhausted:
            return Finish(false, NLP);
          case RunState::QueryStatus::Failed:
            LocQ.push_back(EagerItem{NLP, NEnv});
            PertQ.push_back(EagerItem{NLP, NEnv});
            break;
          }
        }
      }
      while (!PertQ.empty()) {
        const EagerItem It = PertQ.front();
        PertQ.pop_front();
        if (!evalCondition(Prog.b4(), It.Env))
          continue;
        const PairId NId = S.closestPert(It.LP.Loc);
        if (NId == InvalidPair)
          continue;
        S.L.remove(NId);
        const LocPert NLP = S.Space.pairOf(NId);
        CondEnv NEnv;
        switch (S.queryPair(NId, NEnv)) {
        case RunState::QueryStatus::Success:
          return Finish(true, NLP);
        case RunState::QueryStatus::Exhausted:
          return Finish(false, NLP);
        case RunState::QueryStatus::Failed:
          LocQ.push_back(EagerItem{NLP, NEnv});
          PertQ.push_back(EagerItem{NLP, NEnv});
          break;
        }
      }
    }
  }
  // The whole corner space holds no one pixel adversarial example.
  return Finish(false, LocPert{});
}
