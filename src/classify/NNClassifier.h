//===- classify/NNClassifier.h - nn::Sequential adapter ---------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_CLASSIFY_NNCLASSIFIER_H
#define OPPSLA_CLASSIFY_NNCLASSIFIER_H

#include "classify/Classifier.h"
#include "nn/Sequential.h"

#include <functional>
#include <memory>
#include <string>

namespace oppsla {

/// Adapts a trained Sequential CNN to the black-box Classifier interface.
/// Runs inference mode (running batchnorm statistics, no dropout) and
/// returns softmax probabilities, so the DSL's score_diff thresholds live
/// in [0,1] like the paper's example program.
///
/// Fast-kernel forwards are incremental (DESIGN.md §16). The classifier
/// keeps one reference image, and the model keeps every layer's output for
/// it. An image that differs from the reference in at most MaxDeltaPixels
/// pixels (compared bytewise) is forwarded as a delta: each layer
/// recomputes only what the changed pixels reach. The first other image of
/// a call becomes the new reference and is forwarded in full, together
/// with the images still far from it; those near it follow as a delta. The
/// scores are bit-identical either way; the `nn.forward.delta_images` and
/// `nn.forward.full_images` counters show which path each image took.
class NNClassifier : public Classifier {
public:
  /// Builds a structurally identical untrained model; weight contents are
  /// irrelevant (clone() overwrites them from the source model).
  using ModelBuilder = std::function<std::unique_ptr<Sequential>()>;

  /// Takes ownership of \p Model. \p Name is used in logs and tables.
  NNClassifier(std::unique_ptr<Sequential> Model, size_t NumClasses,
               std::string Name);

  /// Images within this many changed pixels of the reference are forwarded
  /// as deltas.
  static constexpr size_t MaxDeltaPixels = 4;

  std::vector<float> scores(const Image &Img) override;

  /// Batched inference: the images near the reference share one delta
  /// forward, the others one full {N, 3, H, W} forward. Every layer's
  /// inference path treats batch items independently with identical
  /// accumulation order, so result[i] is bit-identical to scores(Imgs[i])
  /// — verified per architecture by tests/classify/BatchForwardTest.cpp
  /// and tests/classify/DeltaForwardTest.cpp.
  std::vector<std::vector<float>> scoresBatch(
      std::span<const Image> Imgs) override;

  size_t numClasses() const override { return Classes; }

  /// Installs the architecture rebuilder that makes this classifier
  /// cloneable (layers carry forward-pass scratch state, so clones need a
  /// fresh structural copy, not a pointer share). makeVictim() installs
  /// one automatically.
  void setModelBuilder(ModelBuilder B) { Builder = std::move(B); }

  /// Deep copy: rebuilds the architecture via the installed ModelBuilder
  /// and copies every parameter and persistent buffer. Returns nullptr if
  /// no builder was installed.
  std::unique_ptr<Classifier> clone() const override;

  const std::string &name() const { return ModelName; }

private:
  /// Forwards Imgs[Idx[i]] as one batch — through \p Pass when non-null —
  /// and stores the softmax scores in Out[Idx[i]].
  void forwardSubset(std::span<const Image> Imgs,
                     const std::vector<size_t> &Idx, DeltaPass *Pass,
                     std::vector<std::vector<float>> &Out);

  std::unique_ptr<Sequential> Model;
  size_t Classes;
  std::string ModelName;
  ModelBuilder Builder;
  Tensor InputScratch; ///< reused {N,3,H,W} input buffer
  /// The image whose layer outputs the model holds (empty: none yet).
  Image Reference;
};

} // namespace oppsla

#endif // OPPSLA_CLASSIFY_NNCLASSIFIER_H
