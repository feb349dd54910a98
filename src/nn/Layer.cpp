//===- nn/Layer.cpp - Neural network layer interface ----------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/Layer.h"

#include <algorithm>
#include <atomic>
#include <cstring>

using namespace oppsla;

namespace {

/// Starts at 1 so that a generation of 0 never matches (see
/// paramGeneration()).
std::atomic<uint64_t> ParamGeneration{1};

/// floor(A / B) and ceil(A / B) for B > 0 and A of either sign (plain `/`
/// truncates toward zero).
long floorDiv(long A, long B) { return A >= 0 ? A / B : -((-A + B - 1) / B); }
long ceilDiv(long A, long B) { return -floorDiv(-A, B); }

} // namespace

DeltaWindow DeltaWindow::through(size_t Kernel, size_t Stride, size_t Pad,
                                 size_t OH, size_t OW) const {
  if (empty())
    return {};
  const long K = static_cast<long>(Kernel), S = static_cast<long>(Stride),
             P = static_cast<long>(Pad);
  // Output o reads input [o*S - P, o*S - P + K), which meets [Lo, Hi)
  // exactly for ceil((Lo + P - K + 1) / S) <= o <= floor((Hi - 1 + P) / S).
  const auto Reach = [&](long Lo, long Hi, size_t Out, long &OLo, long &OHi) {
    OLo = std::max(0L, ceilDiv(Lo + P - K + 1, S));
    OHi = std::min(static_cast<long>(Out), floorDiv(Hi - 1 + P, S) + 1);
  };
  DeltaWindow W;
  Reach(R0, R1, OH, W.R0, W.R1);
  Reach(C0, C1, OW, W.C0, W.C1);
  return W.empty() ? DeltaWindow() : W;
}

DeltaWindow DeltaWindow::unite(const DeltaWindow &Other) const {
  if (empty())
    return Other;
  if (Other.empty())
    return *this;
  return {std::min(R0, Other.R0), std::max(R1, Other.R1),
          std::min(C0, Other.C0), std::max(C1, Other.C1)};
}

size_t DeltaPass::advance(size_t Kernel, size_t Stride, size_t Pad,
                          size_t OH, size_t OW) {
  const DeltaWindow Whole{0, static_cast<long>(OH), 0, static_cast<long>(OW)};
  size_t Dirty = 0;
  bool AllWhole = true;
  for (DeltaWindow &W : Windows) {
    W = W.through(Kernel, Stride, Pad, OH, OW);
    if (2 * W.area() > OH * OW)
      W = Whole;
    AllWhole = AllWhole && W.area() == OH * OW;
    Dirty += W.area();
  }
  Saturated = Saturated || AllWhole;
  return Dirty;
}

void DeltaPass::unite(const DeltaPass &Other) {
  assert(Windows.size() == Other.Windows.size() && "branch batch mismatch");
  Saturated = Saturated || Other.Saturated;
  for (size_t I = 0; I != Windows.size(); ++I)
    Windows[I] = Windows[I].unite(Other.Windows[I]);
}

Tensor oppsla::tileReference(const Tensor &Ref, size_t N) {
  assert(Ref.rank() >= 2 && Ref.dim(0) == 1 && "reference is one item");
  std::vector<size_t> Dims = Ref.shape().dims();
  Dims[0] = N;
  Tensor Out{Shape(std::move(Dims))};
  const size_t Item = Ref.numel();
  for (size_t B = 0; B != N; ++B)
    std::memcpy(Out.data() + B * Item, Ref.data(), Item * sizeof(float));
  return Out;
}

uint64_t oppsla::paramGeneration() {
  return ParamGeneration.load(std::memory_order_relaxed);
}

void oppsla::bumpParamGeneration() {
  ParamGeneration.fetch_add(1, std::memory_order_relaxed);
}

Layer::~Layer() = default;

Tensor Layer::forwardDelta(const Tensor &In, DeltaPass &Pass,
                           const Tensor &Ref) {
  (void)Ref;
  Pass.Saturated = true;
  return forward(In, /*Train=*/false);
}

void Layer::collectParams(const std::string &Prefix,
                          std::vector<ParamRef> &Params) {
  // Parameterless layers contribute nothing.
  (void)Prefix;
  (void)Params;
}

void Layer::collectBuffers(
    const std::string &Prefix,
    std::vector<std::pair<std::string, Tensor *>> &Buffers) {
  (void)Prefix;
  (void)Buffers;
}

void oppsla::zeroGrads(const std::vector<ParamRef> &Params) {
  for (const ParamRef &P : Params)
    P.Grad->zero();
}
