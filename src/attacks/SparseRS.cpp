//===- attacks/SparseRS.cpp - Sparse-RS one pixel baseline -------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "attacks/SparseRS.h"

#include "classify/QueryCounter.h"
#include "support/Profiler.h"

using namespace oppsla;

AttackResult SparseRS::runAttack(Classifier &N, const Image &X,
                                 size_t TrueClass, uint64_t QueryBudget,
                                 Rng &R) {
  QueryCounter Q(N, QueryBudget);
  Q.setTraceTrueClass(TrueClass);
  AttackResult Out;
  const size_t H = X.height(), W = X.width();

  auto Finish = [&]() {
    Out.Queries = Q.count();
    return Out;
  };

  // Clean-image margin (also detects already-misclassified inputs).
  {
    const std::vector<float> S = Q.scores(X);
    if (S.empty())
      return Finish();
    if (argmaxScore(S) != TrueClass) {
      Out.Success = true;
      Out.AlreadyMisclassified = true;
      return Finish();
    }
  }

  // Current state: one (location, corner) candidate and its margin.
  PixelLoc Loc{static_cast<uint16_t>(R.index(H)),
               static_cast<uint16_t>(R.index(W))};
  CornerIdx Corner = static_cast<CornerIdx>(R.index(NumCorners));
  Image Scratch = X;

  auto Evaluate = [&](const PixelLoc &L, CornerIdx C, double &MarginOut) {
    const Pixel Orig = X.pixel(L.Row, L.Col);
    Scratch.setPixel(L.Row, L.Col, cornerPixel(C));
    const std::vector<float> S = Q.scores(Scratch);
    Scratch.setPixel(L.Row, L.Col, Orig);
    if (S.empty())
      return false; // budget exhausted
    MarginOut = untargetedMargin(S, TrueClass);
    return true;
  };

  double Margin = 0.0;
  if (!Evaluate(Loc, Corner, Margin))
    return Finish();
  if (Margin < 0.0) {
    Out.Success = true;
    Out.Loc = Loc;
    Out.Perturbation = cornerPixel(Corner);
    return Finish();
  }

  // One proposal draw, shared verbatim by the real loop and the
  // speculative replay. The schedule depends only on the iteration number
  // and the draw count only on the RNG stream, so a cloned Rng predicts
  // upcoming proposals exactly; only the *current* (location, corner) pair
  // is speculative state.
  //
  // Alpha schedule: early iterations explore new locations aggressively;
  // later ones mostly flip the color at the current location, mirroring
  // Sparse-RS's decreasing resampling fraction.
  auto Propose = [&](Rng &G, uint64_t Iter, const PixelLoc &CurLoc,
                     CornerIdx CurCorner, PixelLoc &CandLoc,
                     CornerIdx &CandCorner) {
    const double Progress =
        std::min(1.0, static_cast<double>(Iter) /
                          static_cast<double>(Config.ScheduleHorizon));
    const double LocProb =
        std::max(Config.MinLocationProb, 1.0 - Progress);
    CandLoc = CurLoc;
    CandCorner = CurCorner;
    if (G.chance(LocProb)) {
      CandLoc = PixelLoc{static_cast<uint16_t>(G.index(H)),
                         static_cast<uint16_t>(G.index(W))};
      CandCorner = static_cast<CornerIdx>(G.index(NumCorners));
    } else {
      // Color move: a different corner at the current location.
      CandCorner = static_cast<CornerIdx>(
          (CurCorner + 1 + G.index(NumCorners - 1)) % NumCorners);
    }
  };

  // Iterations speculated per prefetch submission. The proposal RNG stream
  // is exact (draw counts never depend on acceptance), so only accepted
  // candidates mid-window cost mispredicted forwards.
  constexpr size_t Horizon = 16;
  const bool Speculate = Q.prefetchable();

  telemetry::ProfileScope SearchSpan("sparse_rs.search");
  for (uint64_t Iter = 0; !Q.exhausted(); ++Iter) {
    telemetry::ProfileScope IterSpan("sparse_rs.iteration");
    if (Speculate && Iter % Horizon == 0) {
      // Replay the next Horizon proposals under a no-acceptance
      // assumption and warm the engine cache with the candidate images.
      telemetry::ProfileScope PrefetchSpan("sparse_rs.prefetch");
      Rng Sim = R;
      std::vector<Image> Batch;
      Batch.reserve(Horizon);
      for (size_t J = 0; J != Horizon; ++J) {
        PixelLoc SpecLoc;
        CornerIdx SpecCorner;
        Propose(Sim, Iter + J, Loc, Corner, SpecLoc, SpecCorner);
        Image Cand = X;
        Cand.setPixel(SpecLoc.Row, SpecLoc.Col, cornerPixel(SpecCorner));
        Batch.push_back(std::move(Cand));
      }
      Q.prefetch(Batch);
    }

    PixelLoc CandLoc;
    CornerIdx CandCorner;
    Propose(R, Iter, Loc, Corner, CandLoc, CandCorner);

    double CandMargin = 0.0;
    if (!Evaluate(CandLoc, CandCorner, CandMargin))
      return Finish();
    if (CandMargin < 0.0) {
      Out.Success = true;
      Out.Loc = CandLoc;
      Out.Perturbation = cornerPixel(CandCorner);
      return Finish();
    }
    // Random-search acceptance: keep the candidate if it does not lose.
    if (CandMargin <= Margin) {
      Loc = CandLoc;
      Corner = CandCorner;
      Margin = CandMargin;
    }
  }
  return Finish();
}
