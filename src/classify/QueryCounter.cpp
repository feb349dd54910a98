//===- classify/QueryCounter.cpp - Query accounting wrapper ------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classify/QueryCounter.h"

#include <algorithm>

using namespace oppsla;

uint64_t QueryCounter::claim() {
  uint64_t Cur = Count.load(std::memory_order_relaxed);
  do {
    if (Cur >= Budget) {
      Exhausted.store(true, std::memory_order_relaxed);
      return 0;
    }
  } while (!Count.compare_exchange_weak(Cur, Cur + 1,
                                        std::memory_order_relaxed));
  return Cur + 1;
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
