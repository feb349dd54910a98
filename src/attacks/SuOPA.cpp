//===- attacks/SuOPA.cpp - Su et al. one pixel attack (DE) -------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "attacks/SuOPA.h"

#include "classify/QueryCounter.h"
#include "support/Profiler.h"

#include <algorithm>
#include <cmath>

using namespace oppsla;

namespace {

/// One DE individual: a candidate one pixel perturbation.
struct Individual {
  double Row, Col;    ///< continuous; rounded and clipped on application
  double Rc, Gc, Bc;  ///< color channels
  double Fitness;     ///< true-class confidence (lower is better)
};

} // namespace

AttackResult SuOPA::runAttack(Classifier &N, const Image &X,
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

  Image Scratch = X;
  auto Apply = [&](const Individual &Ind, PixelLoc &LocOut, Pixel &PixOut) {
    const auto Row = static_cast<uint16_t>(std::clamp<long>(
        std::lround(Ind.Row), 0, static_cast<long>(H) - 1));
    const auto Col = static_cast<uint16_t>(std::clamp<long>(
        std::lround(Ind.Col), 0, static_cast<long>(W) - 1));
    LocOut = PixelLoc{Row, Col};
    PixOut = Pixel{std::clamp(static_cast<float>(Ind.Rc), 0.0f, 1.0f),
                   std::clamp(static_cast<float>(Ind.Gc), 0.0f, 1.0f),
                   std::clamp(static_cast<float>(Ind.Bc), 0.0f, 1.0f)};
  };

  // Returns false when the budget ran out; sets Success on misclassify.
  auto Evaluate = [&](Individual &Ind) {
    PixelLoc Loc;
    Pixel Pix;
    Apply(Ind, Loc, Pix);
    const Pixel Orig = X.pixel(Loc.Row, Loc.Col);
    Scratch.setPixel(Loc.Row, Loc.Col, Pix);
    const std::vector<float> S = Q.scores(Scratch);
    Scratch.setPixel(Loc.Row, Loc.Col, Orig);
    if (S.empty())
      return false;
    Ind.Fitness = S[TrueClass];
    if (argmaxScore(S) != TrueClass) {
      Out.Success = true;
      Out.Loc = Loc;
      Out.Perturbation = Pix;
    }
    return true;
  };

  // A candidate image materialized the way Evaluate submits it: X with one
  // pixel replaced. Byte-identical to the Scratch image Evaluate queries,
  // so prefetched entries hit.
  auto Materialize = [&](const Individual &Ind) {
    PixelLoc Loc;
    Pixel Pix;
    Apply(Ind, Loc, Pix);
    Image Cand = X;
    Cand.setPixel(Loc.Row, Loc.Col, Pix);
    return Cand;
  };

  // Candidates per speculative prefetch submission. Initialization windows
  // are exact; generation windows speculate under a no-acceptance
  // assumption, so an accepted mutant mid-window costs only the window's
  // remaining mispredicted forwards.
  constexpr size_t Window = 64;
  const bool Speculate = Q.prefetchable();

  // Initial population: positions uniform, colors gaussian around mid-gray
  // (Su et al.'s initialization). Positions are drawn over the same closed
  // range [0, side-1] that mutants are clamped to below, so initialization
  // and mutation explore the identical domain (drawing over [0, side) put
  // extra rounding mass on the last row/column).
  //
  // All individuals are drawn before any is evaluated. Evaluate consumes no
  // RNG, so the draw stream is identical to drawing and evaluating
  // interleaved — and the complete population is then known upfront, which
  // lets the engine run exact (not speculative) prefetch windows.
  std::vector<Individual> Pop(Config.PopulationSize);
  for (Individual &Ind : Pop) {
    Ind.Row = R.uniform(0.0, static_cast<double>(H - 1));
    Ind.Col = R.uniform(0.0, static_cast<double>(W - 1));
    Ind.Rc = R.normal(0.5, 0.25);
    Ind.Gc = R.normal(0.5, 0.25);
    Ind.Bc = R.normal(0.5, 0.25);
  }

  const size_t P = Pop.size();
  {
    telemetry::ProfileScope InitSpan("suopa.init");
    for (size_t I = 0; I != P; ++I) {
      if (Speculate && I % Window == 0) {
        telemetry::ProfileScope PrefetchSpan("suopa.prefetch");
        const size_t End = std::min(I + Window, P);
        std::vector<Image> Batch;
        Batch.reserve(End - I);
        for (size_t J = I; J != End; ++J)
          Batch.push_back(Materialize(Pop[J]));
        Q.prefetch(Batch);
      }
      if (!Evaluate(Pop[I]))
        return Finish();
      if (Out.Success)
        return Finish();
    }
  }

  // DE/rand/1 index selection: three distinct members != I. The rejection
  // loops compare draws against indices only, never against Pop values, so
  // a cloned Rng replays the exact index stream of upcoming iterations —
  // only the mutant *values* are speculative (they read Pop, which changes
  // on acceptance).
  auto DrawIndices = [P](Rng &G, size_t I, size_t &A, size_t &B, size_t &C) {
    do
      A = G.index(P);
    while (A == I);
    do
      B = G.index(P);
    while (B == I || B == A);
    do
      C = G.index(P);
    while (C == I || C == A || C == B);
  };

  auto MutantOf = [&](size_t A, size_t B, size_t C) {
    Individual Mut;
    Mut.Row = Pop[A].Row + Config.F * (Pop[B].Row - Pop[C].Row);
    Mut.Col = Pop[A].Col + Config.F * (Pop[B].Col - Pop[C].Col);
    Mut.Rc = Pop[A].Rc + Config.F * (Pop[B].Rc - Pop[C].Rc);
    Mut.Gc = Pop[A].Gc + Config.F * (Pop[B].Gc - Pop[C].Gc);
    Mut.Bc = Pop[A].Bc + Config.F * (Pop[B].Bc - Pop[C].Bc);
    Mut.Row = std::clamp(Mut.Row, 0.0, static_cast<double>(H - 1));
    Mut.Col = std::clamp(Mut.Col, 0.0, static_cast<double>(W - 1));
    return Mut;
  };

  for (size_t Gen = 0; Gen != Config.MaxGenerations; ++Gen) {
    telemetry::ProfileScope GenSpan("suopa.generation");
    for (size_t I = 0; I != P; ++I) {
      if (Speculate && I % Window == 0) {
        // Predict the window's mutants from the current population under a
        // no-acceptance assumption. Mispredictions (an acceptance inside
        // the window) cost wasted forwards, never wrong answers: the cache
        // verifies full image bytes on every hit.
        telemetry::ProfileScope PrefetchSpan("suopa.prefetch");
        Rng Sim = R;
        const size_t End = std::min(I + Window, P);
        std::vector<Image> Batch;
        Batch.reserve(End - I);
        for (size_t J = I; J != End; ++J) {
          size_t A, B, C;
          DrawIndices(Sim, J, A, B, C);
          Batch.push_back(Materialize(MutantOf(A, B, C)));
        }
        Q.prefetch(Batch);
      }

      size_t A, B, C;
      DrawIndices(R, I, A, B, C);
      Individual Mut = MutantOf(A, B, C);

      if (!Evaluate(Mut))
        return Finish();
      if (Out.Success)
        return Finish();
      if (Mut.Fitness <= Pop[I].Fitness)
        Pop[I] = Mut;
    }
  }
  return Finish();
}
