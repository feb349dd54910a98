//===- nn/Sequential.cpp - Layer composition --------------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/Sequential.h"

#include "nn/Activations.h"
#include "nn/BatchNorm2d.h"
#include "nn/Conv2d.h"
#include "support/Profiler.h"
#include "tensor/Gemm.h"

#include <cstdio>

using namespace oppsla;

namespace {

/// Blocks nest Sequentials inside Sequentials; only the outermost forward
/// is instrumented so per-layer times partition the total instead of
/// double-counting nested spans.
thread_local int ForwardDepth = 0;

} // namespace

void Sequential::buildFusionPlan() {
  FusionPlan.clear();
  for (size_t I = 0; I != Layers.size();) {
    FusedStep St;
    St.Begin = I;
    if (auto *Conv = dynamic_cast<Conv2d *>(Layers[I].get())) {
      size_t Next = I + 1;
      auto *Bn = Next != Layers.size()
                     ? dynamic_cast<BatchNorm2d *>(Layers[Next].get())
                     : nullptr;
      if (Bn && Bn->channels() != Conv->outChannels())
        Bn = nullptr;
      if (Bn)
        ++Next;
      const bool Relu = Next != Layers.size() &&
                        dynamic_cast<ReLU *>(Layers[Next].get()) != nullptr;
      if (Relu)
        ++Next;
      if (Next != I + 1) {
        St.Conv = Conv;
        St.Bn = Bn;
        St.Relu = Relu;
        St.Count = Next - I;
      }
    }
    I += St.Count;
    FusionPlan.push_back(St);
  }
  FusionPlanLayers = Layers.size();
}

Tensor Sequential::forward(const Tensor &In, bool Train) {
  if (Train)
    bumpParamGeneration();
  return run(In, Train, nullptr);
}

Tensor Sequential::forwardDelta(const Tensor &In, DeltaPass &Pass,
                                const Tensor &Ref) {
  (void)Ref; // every step carries its own reference in StepRefs
  return run(In, /*Train=*/false, &Pass);
}

Tensor Sequential::runStep(size_t S, const Tensor &X, DeltaPass *Pass) {
  const FusedStep &St = FusionPlan[S];
  if (!Pass || (Pass->Saturated && !Pass->Capture))
    return St.Conv ? St.Conv->forwardFused(X, St.Bn, St.Relu)
                   : Layers[St.Begin]->forward(X, /*Train=*/false);
  // A capturing pass is saturated, so no step reads the stale entry.
  const Tensor &Ref = StepRefs[S];
  Tensor Y = St.Conv ? St.Conv->forwardFusedDelta(X, St.Bn, St.Relu, *Pass,
                                                  Ref)
                     : Layers[St.Begin]->forwardDelta(X, *Pass, Ref);
  if (Pass->Capture) {
    // Keep batch item 0, the new reference image.
    std::vector<size_t> Dims = Y.shape().dims();
    const size_t Item = Y.numel() / Dims[0];
    Dims[0] = 1;
    StepRefs[S] = Tensor(Shape(std::move(Dims)),
                         std::vector<float>(Y.data(), Y.data() + Item));
  }
  return Y;
}

Tensor Sequential::run(const Tensor &In, bool Train, DeltaPass *Pass) {
  if (Layers.empty())
    return In;
  const bool Fast = !Train && !kernels::naive();
  assert((Fast || !Pass) && "delta forwards need fast-kernel inference");
  if (Fast && FusionPlanLayers != Layers.size())
    buildFusionPlan();
  if (Pass && Pass->Capture) {
    StepRefs.resize(FusionPlan.size());
    RefGeneration = paramGeneration();
  }
  assert((!Pass || StepRefs.size() == FusionPlan.size()) &&
         "delta forward without a captured reference");

  const bool Instrument = telemetry::profilingEnabled() && ForwardDepth == 0;
  if (Instrument && SpanNames.size() != Layers.size()) {
    // Models are cloned per worker thread, so the lazy build races
    // nothing: only the owning thread runs this forward.
    SpanNames.clear();
    SpanNames.reserve(Layers.size());
    char Key[160];
    for (size_t I = 0; I != Layers.size(); ++I) {
      std::snprintf(Key, sizeof(Key), "nn.%02zu.%s", I,
                    Layers[I]->name().c_str());
      SpanNames.push_back(telemetry::internProfileName(Key));
    }
  }
  if (Instrument)
    ++ForwardDepth;
  telemetry::ProfileScope ForwardSpan(Instrument ? "nn.forward" : nullptr);
  // The first step reads In itself, not a copy; every later step reads X.
  Tensor X;
  for (size_t I = 0, Step = 0; I != Layers.size(); ++Step) {
    const Tensor &Cur = I == 0 ? In : X;
    // A fused step is attributed to its conv layer's span; the folded
    // BatchNorm/ReLU layers simply do not appear in that run.
    telemetry::ProfileScope LayerSpan(Instrument ? SpanNames[I] : nullptr);
    size_t Count = 1;
    if (Fast) {
      Count = FusionPlan[Step].Count;
      X = runStep(Step, Cur, Pass);
    } else {
      X = Layers[I]->forward(Cur, Train);
    }
    I += Count;
  }
  if (Instrument)
    --ForwardDepth;
  return X;
}

Tensor Sequential::backward(const Tensor &GradOut) {
  Tensor G = GradOut;
  for (size_t I = Layers.size(); I-- > 0;)
    G = Layers[I]->backward(G);
  return G;
}

void Sequential::collectParams(const std::string &Prefix,
                               std::vector<ParamRef> &Params) {
  for (size_t I = 0; I != Layers.size(); ++I)
    Layers[I]->collectParams(
        Prefix + "." + std::to_string(I) + "." + Layers[I]->name(), Params);
}

void Sequential::collectBuffers(
    const std::string &Prefix,
    std::vector<std::pair<std::string, Tensor *>> &Buffers) {
  for (size_t I = 0; I != Layers.size(); ++I)
    Layers[I]->collectBuffers(
        Prefix + "." + std::to_string(I) + "." + Layers[I]->name(), Buffers);
}

std::vector<ParamRef> Sequential::parameters() {
  std::vector<ParamRef> Params;
  collectParams("net", Params);
  return Params;
}

std::vector<std::pair<std::string, Tensor *>> Sequential::buffers() {
  std::vector<std::pair<std::string, Tensor *>> Buffers;
  collectBuffers("net", Buffers);
  return Buffers;
}
