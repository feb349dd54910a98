//===- classify/Classifier.h - Black-box classifier interface ---*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The black-box classifier interface the attacks query. Matches the
/// paper's threat model: the attacker can only submit images and observe
/// the output score vector N(x) (here: softmax probabilities), never
/// gradients or weights.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_CLASSIFY_CLASSIFIER_H
#define OPPSLA_CLASSIFY_CLASSIFIER_H

#include "data/Image.h"

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace oppsla {

/// Abstract black-box image classifier.
class Classifier {
public:
  virtual ~Classifier();

  /// Returns the score vector N(x); size equals numClasses().
  virtual std::vector<float> scores(const Image &Img) = 0;

  /// Batched query: element i is N(Imgs[i]). The contract every override
  /// must keep is bit-identity with the serial path — result[i] equals
  /// scores(Imgs[i]) byte for byte, for any batch size — so callers may
  /// batch or not batch freely without changing a single result. The
  /// default implementation is that serial loop.
  virtual std::vector<std::vector<float>> scoresBatch(
      std::span<const Image> Imgs);

  /// Hint that the caller expects to query these images soon. Plain
  /// classifiers ignore it; a memoizing engine (engine/QueryEngine.h) runs
  /// the batched forward now and answers the later scores() calls from its
  /// cache. Never counts as a logical query anywhere.
  virtual void prefetch(std::span<const Image> Imgs) { (void)Imgs; }

  /// True when prefetch() actually does something (i.e. a memoizing layer
  /// sits below). Attacks gate candidate speculation on this so plain
  /// classifiers do not pay for image copies that would be thrown away.
  virtual bool prefetchable() const { return false; }

  /// Number of classes in the score vector.
  virtual size_t numClasses() const = 0;

  /// An independent copy answering identically to this classifier, or
  /// nullptr when the classifier cannot be duplicated. scores() is allowed
  /// to mutate internal scratch state, so parallel evaluation gives every
  /// worker thread its own clone; a nullptr makes the sweeps fall back to
  /// serial execution.
  virtual std::unique_ptr<Classifier> clone() const { return nullptr; }

  /// argmax(N(x)).
  size_t predict(const Image &Img);
};

/// Returns the argmax index of \p Scores (first wins ties); asserts
/// non-empty.
size_t argmaxScore(const std::vector<float> &Scores);

/// Untargeted margin: f_{cx}(x) - max_{j != cx} f_j(x). Negative iff the
/// image is misclassified; both baselines minimize it.
double untargetedMargin(const std::vector<float> &Scores, size_t TrueClass);

/// The clones a clone-per-worker fan-out over \p Workers pool slots needs
/// (ThreadPool::forEach's slot form): Workers - 1 of them, for slots
/// 1..Workers-1, while slot 0 keeps \p C itself. Empty when Workers < 2 or
/// when \p C cannot be cloned, which callers take as "run serially on C".
std::vector<std::unique_ptr<Classifier>> workerClones(const Classifier &C,
                                                      size_t Workers);

} // namespace oppsla

#endif // OPPSLA_CLASSIFY_CLASSIFIER_H
