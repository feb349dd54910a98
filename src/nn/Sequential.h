//===- nn/Sequential.h - Layer composition ---------------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_SEQUENTIAL_H
#define OPPSLA_NN_SEQUENTIAL_H

#include "nn/Layer.h"

#include <utility>

namespace oppsla {

class BatchNorm2d;
class Conv2d;

/// A chain of layers; itself a Layer so blocks can nest.
///
/// Inference forwards with fast kernels enabled run through a lazily built
/// fusion plan: every direct Conv2d -> [BatchNorm2d] -> [ReLU] run executes
/// as one Conv2d::forwardFused call (the GEMM epilogue applies the
/// BatchNorm affine and ReLU in registers), bit-identical to running the
/// layers in sequence. Blocks nest Sequentials, so the plan covers every
/// zoo architecture without the blocks knowing about fusion.
///
/// Delta forwards (forwardDelta) walk the same plan. A capturing pass keeps
/// batch item 0's output of every step as the reference; later passes hand
/// each step its reference output and switch to the plain fast path once
/// the pass saturates (DESIGN.md §16).
class Sequential : public Layer {
public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential &add(LayerPtr L) {
    assert(L && "null layer");
    Layers.push_back(std::move(L));
    return *this;
  }

  /// Constructs a layer of type \p T in place and returns a reference to it.
  template <typename T, typename... Args> T &emplace(Args &&...As) {
    auto L = std::make_unique<T>(std::forward<Args>(As)...);
    T &Ref = *L;
    Layers.push_back(std::move(L));
    return Ref;
  }

  size_t size() const { return Layers.size(); }
  Layer &layer(size_t I) {
    assert(I < Layers.size() && "layer index out of range");
    return *Layers[I];
  }

  /// A Train forward moves the parameter generation, which drops the
  /// captured reference: training is about to change the weights it was
  /// computed with.
  Tensor forward(const Tensor &In, bool Train) override;
  Tensor forwardDelta(const Tensor &In, DeltaPass &Pass,
                      const Tensor &Ref) override;
  Tensor backward(const Tensor &GradOut) override;
  void collectParams(const std::string &Prefix,
                     std::vector<ParamRef> &Params) override;
  void collectBuffers(const std::string &Prefix,
                      std::vector<std::pair<std::string, Tensor *>> &Buffers)
      override;
  std::string name() const override { return "sequential"; }

  /// Convenience: all parameters with a fresh prefix.
  std::vector<ParamRef> parameters();
  /// Convenience: all persistent buffers with a fresh prefix.
  std::vector<std::pair<std::string, Tensor *>> buffers();

  /// True once a capturing delta pass recorded a reference and the
  /// parameter generation (nn/Layer.h) has not moved since: no parameter or
  /// buffer was handed out or written, and no Train forward ran.
  bool hasReference() const {
    return !StepRefs.empty() && RefGeneration == paramGeneration();
  }

private:
  /// One execution step of the fusion plan: either a single plain layer
  /// (Conv == nullptr, Count == 1) or a fused conv run consuming Count
  /// layers starting at Begin.
  struct FusedStep {
    size_t Begin = 0;
    size_t Count = 1;
    Conv2d *Conv = nullptr;
    BatchNorm2d *Bn = nullptr;
    bool Relu = false;
  };

  /// Rebuilds FusionPlan to tile [0, Layers.size()). Lazily invoked on the
  /// first fast-kernel inference forward and whenever the layer count
  /// changed; models are cloned per worker thread, so the build races
  /// nothing.
  void buildFusionPlan();

  /// The shared layer loop of forward and forwardDelta (\p Pass non-null),
  /// instrumented with the per-layer profiler spans.
  Tensor run(const Tensor &In, bool Train, DeltaPass *Pass);
  /// Runs fusion-plan step \p S at fast-kernel inference.
  Tensor runStep(size_t S, const Tensor &X, DeltaPass *Pass);

  std::vector<LayerPtr> Layers;
  std::vector<FusedStep> FusionPlan;
  /// Reference output of each fusion-plan step ({1, ...}), recorded by the
  /// last capturing delta pass at parameter generation RefGeneration.
  std::vector<Tensor> StepRefs;
  uint64_t RefGeneration = 0;
  size_t FusionPlanLayers = static_cast<size_t>(-1);
  /// Interned `nn.<ii>.<layer>` span names for the profiler, built lazily
  /// on the first profiled forward (index-aligned with Layers).
  std::vector<const char *> SpanNames;
};

} // namespace oppsla

#endif // OPPSLA_NN_SEQUENTIAL_H
