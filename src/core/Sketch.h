//===- core/Sketch.h - The one pixel attack sketch (Algorithm 1) -*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executor for the paper's program sketch (Appendix A, Algorithm 1).
///
/// The sketch maintains the queue L of all location-perturbation pairs in
/// the initialization order (farthest corner first, then center-closest
/// location first). It repeatedly pops a pair, queries the classifier on
/// the corresponding one pixel perturbation, and returns on success. On
/// failure the four synthesized conditions reorder L:
///
///   - B1 true  => push the location-closest pairs (same perturbation,
///                 L-inf distance 1) to the back of L;
///   - B2 true  => push the perturbation-closest pair (next pair in L at
///                 the same location) to the back of L;
///   - B3 true  => eagerly check the location-closest pairs now
///                 (conceptual push-front), transitively via a BFS that
///                 also re-applies B3/B4 to each failed eager pair;
///   - B4 true  => eagerly check the perturbation-closest pair, same BFS.
///
/// Every instantiation is *exhaustive*: each pair is queried at most once,
/// and if any one pixel adversarial example exists in the corner space the
/// sketch finds it (given enough budget). Programs only change the order,
/// i.e. the query count.
///
/// Runs of *different* programs on one image ask overlapping subsets of the
/// same 8 * d1 * d2 + 1 queries; a SketchMemo shared by those runs (the
/// synthesizer's candidates) forwards each of them once.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_CORE_SKETCH_H
#define OPPSLA_CORE_SKETCH_H

#include "classify/Classifier.h"
#include "core/Condition.h"
#include "core/PairQueue.h"

#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>

namespace oppsla {

/// Exact score memo for sketch runs on one image.
///
/// Every sketch query on image x is x itself or x[l <- p] with p a corner,
/// so a key names it exactly: the PairId of (l, p), or PairSpace::size()
/// for x. A forward is a pure function of its image, so a hit returns the
/// bytes the forward would have. The memo holds one row slot per key and
/// appends a score row the first time a key is forwarded, so its memory
/// grows with distinct queries.
///
/// One mutex guards the memo, so concurrent runs on the image may share
/// it. When two runs miss the same key at once, the second waits for the
/// first's row rather than forwarding the image again.
class SketchMemo {
public:
  /// A memo for sketch runs on \p X, which it copies: Sketch::run checks
  /// its image against the copy byte for byte, once per run.
  explicit SketchMemo(const Image &X);

  const Image &image() const { return X; }

  /// Puts key \p Key's scores in \p Out. Returns true on a hit. On a miss
  /// calls \p Forward, returns false, and keeps its result unless it is
  /// empty (a spent budget forwards nothing).
  template <typename ForwardFn>
  bool lookup(uint32_t Key, std::vector<float> &Out, ForwardFn &&Forward) {
    if (acquire(Key, Out))
      return true;
    try {
      Out = Forward();
    } catch (...) {
      publish(Key, {});
      throw;
    }
    publish(Key, Out);
    return false;
  }

private:
  static constexpr uint32_t Empty = std::numeric_limits<uint32_t>::max();
  static constexpr uint32_t Pending = Empty - 1;

  /// Copies \p Key's row into \p Out and returns true, or reserves the key
  /// for the caller to forward and returns false. Waits while another
  /// caller holds the reservation.
  bool acquire(uint32_t Key, std::vector<float> &Out);
  /// Stores \p Scores as \p Key's row and wakes the waiters; an empty
  /// \p Scores releases the reservation instead.
  void publish(uint32_t Key, const std::vector<float> &Scores);

  const Image X;
  std::mutex Mu;
  std::condition_variable Published;
  std::vector<uint32_t> Slots; ///< per key: a row index, Empty or Pending
  std::vector<float> Rows;     ///< RowWidth floats per forwarded key
  size_t RowWidth = 0;         ///< set by the first row
};

/// Outcome of one sketch run on one image.
struct SketchResult {
  bool Success = false;
  /// The successful pair (valid only when Success).
  LocPert Adversarial;
  /// Queries posed to the classifier during this run, including the one
  /// initial query of the unperturbed image.
  uint64_t Queries = 0;
  /// True if the run stopped because the query budget ran out.
  bool BudgetExhausted = false;
  /// True if the unperturbed image was already misclassified (the run
  /// reports Success with an all-zero pair in that case).
  bool AlreadyMisclassified = false;
};

/// Runs the sketch instantiated with program \p P.
class Sketch {
public:
  static constexpr uint64_t Unlimited =
      std::numeric_limits<uint64_t>::max();

  explicit Sketch(Program P) : Prog(std::move(P)) {}

  const Program &program() const { return Prog; }

  /// Attacks image \p X whose true class is \p TrueClass, querying \p N at
  /// most \p QueryBudget times. With a \p Memo built for \p X, a query the
  /// memo holds is answered without a forward but counted, budgeted and
  /// traced like any other, so the result does not depend on the memo.
  /// Attacks pass none: one run asks each query at most once.
  SketchResult run(Classifier &N, const Image &X, size_t TrueClass,
                   uint64_t QueryBudget = Unlimited,
                   SketchMemo *Memo = nullptr) const;

private:
  Program Prog;
};

} // namespace oppsla

#endif // OPPSLA_CORE_SKETCH_H
