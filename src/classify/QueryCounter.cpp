//===- classify/QueryCounter.cpp - Query accounting wrapper ------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classify/QueryCounter.h"

#include <algorithm>

using namespace oppsla;

QueryCounter::Claim QueryCounter::claim(uint64_t N) {
  if (N == 0)
    return {count(), 0};
  uint64_t Cur = Count.load(std::memory_order_relaxed);
  for (;;) {
    if (Cur >= Budget) {
      Exhausted.store(true, std::memory_order_relaxed);
      return {Cur, 0};
    }
    const uint64_t Grant = std::min(N, Budget - Cur);
    if (Count.compare_exchange_weak(Cur, Cur + Grant,
                                    std::memory_order_relaxed)) {
      if (Grant < N)
        Exhausted.store(true, std::memory_order_relaxed);
      return {Cur, Grant};
    }
  }
}

std::vector<std::vector<float>> QueryCounter::scoresBatch(
    std::span<const Image> Imgs) {
  std::vector<std::vector<float>> Out(Imgs.size());
  if (Imgs.empty())
    return Out;
  const Claim C = claim(Imgs.size());
  if (C.Granted == 0)
    return Out;
  std::vector<std::vector<float>> S =
      Inner.scoresBatch(Imgs.first(C.Granted));
  for (size_t I = 0; I != C.Granted; ++I) {
    if (telemetry::traceEnabled())
      emitQueryEvent(S[I], C.Base + I + 1);
    Out[I] = std::move(S[I]);
  }
  return Out;
}

void QueryCounter::prefetch(std::span<const Image> Imgs) {
  const uint64_t Rem = remaining();
  if (Rem == 0)
    return;
  const size_t N = static_cast<size_t>(
      std::min<uint64_t>(Rem, Imgs.size()));
  Inner.prefetch(Imgs.first(N));
}

void QueryCounter::emitQueryEvent(const std::vector<float> &Scores,
                                  uint64_t Idx) const {
  if (Scores.empty())
    return;
  // Predicted class and margin. With a true class set this is the paper's
  // untargeted margin f_c(x) - max_{j != c} f_j(x) (negative iff
  // misclassified); otherwise the generic top1 - top2 confidence gap, which
  // is the same margin taken against the predicted class.
  const size_t Pred = argmaxScore(Scores);
  const double Margin = untargetedMargin(
      Scores, HasTrueClass && TrueClass < Scores.size() ? TrueClass : Pred);
  telemetry::traceEvent("query", {{"idx", Idx},
                                  {"image", telemetry::traceImage()},
                                  {"pred", Pred},
                                  {"margin", Margin}});
}
