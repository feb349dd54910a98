//===- nn/Layer.h - Neural network layer interface -------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Layer interface of the from-scratch CNN substrate. Layers implement
/// explicit forward/backward passes (no autograd tape): forward caches what
/// backward needs, backward consumes the cached state and produces the input
/// gradient while accumulating parameter gradients.
///
/// This substrate replaces the PyTorch models the paper attacks. It only
/// needs to be fast at batch-1 inference (the attack loop) and correct at
/// small-batch training (building the victim classifiers).
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_LAYER_H
#define OPPSLA_NN_LAYER_H

#include "tensor/Tensor.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace oppsla {

/// A named (value, gradient) parameter pair exposed by a layer.
/// Pointers remain valid for the lifetime of the owning layer.
struct ParamRef {
  std::string Name;
  Tensor *Value;
  Tensor *Grad;
};

/// The part of one batch item's feature map that differs from the
/// reference: rows [R0, R1) x columns [C0, C1), half-open. Empty when the
/// item equals the reference there.
struct DeltaWindow {
  long R0 = 0, R1 = 0, C0 = 0, C1 = 0;

  bool empty() const { return R0 >= R1 || C0 >= C1; }
  size_t area() const {
    return empty() ? 0 : static_cast<size_t>((R1 - R0) * (C1 - C0));
  }

  /// The window of an OH x OW output map, produced by a square sliding
  /// window (\p Kernel, \p Stride, \p Pad), whose positions read at least
  /// one position of this window.
  DeltaWindow through(size_t Kernel, size_t Stride, size_t Pad, size_t OH,
                      size_t OW) const;

  /// The smallest window covering both.
  DeltaWindow unite(const DeltaWindow &Other) const;
};

/// One incremental inference forward (Layer::forwardDelta): every batch
/// item differs from the reference input only inside its window, so each
/// layer recomputes only the output positions those windows reach and
/// copies the reference's outputs everywhere else (DESIGN.md §16).
struct DeltaPass {
  /// Dirty window of each batch item in the current layer's input map.
  std::vector<DeltaWindow> Windows;
  /// Every window covers its whole map (or the map stopped being spatial):
  /// the rest of the forward runs the full batched path.
  bool Saturated = false;
  /// The pass records a new reference: a full forward during which every
  /// Sequential keeps batch item 0's step outputs.
  bool Capture = false;

  /// Moves every window onto the OH x OW output map of a sliding-window
  /// layer, widens a window that covers more than half of that map to the
  /// whole map, and sets Saturated once every window is whole. Returns the
  /// number of dirty output positions per channel.
  size_t advance(size_t Kernel, size_t Stride, size_t Pad, size_t OH,
                 size_t OW);

  /// Joins the windows of a parallel branch computed over the same map.
  void unite(const DeltaPass &Other);
};

/// A {N, ...} tensor holding \p N copies of the single-item reference
/// output \p Ref: the starting point of every windowed delta layer.
Tensor tileReference(const Tensor &Ref, size_t N);

/// The parameter generation: one process-wide counter that moves whenever
/// a parameter or buffer may be written. Inference state derived from
/// parameters (packed weights, the folded BatchNorm affine, the delta
/// reference) records the generation it was built at and is rebuilt only
/// once the generation has moved (DESIGN.md §12). It moves on every path
/// that hands out or writes a parameter or buffer: collectParams and
/// collectBuffers (so parameters(), buffers(), loadModel and
/// NNClassifier::clone), the mutable weight()/bias()/runningMean()/
/// runningVar() accessors, Sgd::step and Adam::step, and every Train
/// forward. A write through a reference kept from before a forward is not
/// seen: fetch the reference again. Never 0, so 0 means "never built".
uint64_t paramGeneration();

/// Moves the parameter generation (relaxed: a layer only reads the
/// generation on the thread that writes its parameters, or after a
/// hand-off that already orders the writes).
void bumpParamGeneration();

/// Abstract base for all layers.
class Layer {
public:
  virtual ~Layer();

  /// Runs the layer on \p In. When \p Train is true the layer caches
  /// whatever backward() needs and uses training behaviour (batch stats,
  /// active dropout, ...).
  virtual Tensor forward(const Tensor &In, bool Train) = 0;

  /// Fast-kernel inference forward of a batch described by \p Pass (see
  /// DeltaPass); \p Ref is this layer's output for the reference image
  /// ({1, ...}), read only while the pass is not saturated. Returns the
  /// bytes forward(In, false) returns and moves Pass onto the output map.
  /// The default is that full forward, after which Pass is saturated.
  virtual Tensor forwardDelta(const Tensor &In, DeltaPass &Pass,
                              const Tensor &Ref);

  /// Propagates \p GradOut (d loss / d output) to the input, accumulating
  /// parameter gradients. Must be called after a forward(Train=true) with
  /// matching shapes.
  virtual Tensor backward(const Tensor &GradOut) = 0;

  /// Appends this layer's parameters (if any) to \p Params, prefixing their
  /// names with \p Prefix. A layer that appends a parameter moves the
  /// parameter generation: the caller may write through the pointers.
  virtual void collectParams(const std::string &Prefix,
                             std::vector<ParamRef> &Params);

  /// Appends non-learned persistent state (e.g. batchnorm running stats)
  /// that serialization must carry but optimizers must not touch. A layer
  /// that appends a buffer moves the parameter generation, like
  /// collectParams.
  virtual void collectBuffers(const std::string &Prefix,
                              std::vector<std::pair<std::string, Tensor *>>
                                  &Buffers);

  /// Human-readable layer name for debugging and serialization.
  virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Zeroes the gradients of all parameters in \p Params.
void zeroGrads(const std::vector<ParamRef> &Params);

} // namespace oppsla

#endif // OPPSLA_NN_LAYER_H
