//===- tests/nn/FusedForwardTest.cpp - Fused-kernel parity tests --------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Parity between the default fast kernels (packed SGEMM with the fused
// bias/BatchNorm/ReLU epilogue, driven by Sequential's fusion plan) and
// the --naive-kernels scalar reference path. The contract is BIT-identity
// (DESIGN.md §12): both paths run the same fma reduction chain per output
// element and the same epilogue op order, so every comparison below is
// EXPECT_EQ at adversarial shapes — K not a multiple of the row block,
// OW below the vector width, Pad > 0, batch 1 vs 32 — and across every
// zoo architecture. The fast path runs the direct kernel (full forwards on
// narrow maps, every delta forward) or im2col + the packed GEMM (full
// forwards on wide maps) and the naive path runs im2col + matmul, so these
// tests also check the direct kernel's padded patches and lane groups
// (full and delta forwards, at changing input sizes) against an
// independent lowering. The fast path keeps its packed weights, folded
// BatchNorm affine and delta reference from one forward to the next; the
// write tests at the end check that every way of writing a parameter or
// buffer rebuilds the first two and drops the third.
//
//===----------------------------------------------------------------------===//

#include "nn/Activations.h"
#include "nn/BatchNorm2d.h"
#include "nn/Blocks.h"
#include "nn/Conv2d.h"
#include "nn/Linear.h"
#include "nn/Loss.h"
#include "nn/Misc.h"
#include "nn/ModelZoo.h"
#include "nn/Optimizer.h"
#include "nn/Pooling.h"
#include "nn/Sequential.h"
#include "support/Rng.h"
#include "tensor/Gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

using namespace oppsla;

namespace {

/// Runs \p Model on \p In twice — fast kernels, then --naive-kernels —
/// and asserts the outputs are bit-identical.
void expectKernelParity(Sequential &Model, const Tensor &In) {
  kernels::setNaive(false);
  const Tensor Fast = Model.forward(In, /*Train=*/false);
  kernels::setNaive(true);
  const Tensor Naive = Model.forward(In, /*Train=*/false);
  kernels::setNaive(false);
  ASSERT_EQ(Fast.shape(), Naive.shape());
  for (size_t I = 0; I != Fast.numel(); ++I)
    ASSERT_EQ(Fast[I], Naive[I]) << "at flat index " << I;
}

/// Gives the BatchNorm layers non-trivial running statistics so the fused
/// affine actually scales and shifts (fresh layers have mean 0, var 1).
void perturbRunningStats(Sequential &Model, uint64_t Seed) {
  Rng R(Seed);
  for (auto &[Name, Buf] : Model.buffers())
    for (float &V : Buf->vec())
      V = Name.find("running_var") != std::string::npos
              ? static_cast<float>(R.uniform(0.2, 2.0))
              : static_cast<float>(R.normal(0.0, 0.5));
}

Tensor randomInput(Shape S, uint64_t Seed) {
  Rng R(Seed);
  return Tensor::randn(std::move(S), R);
}

/// The geometry of one conv -> BatchNorm -> ReLU run.
struct ConvCase {
  size_t InC, OutC, Kernel, Stride, Pad, H, W, Batch;
};

// K = InC*Kernel*Kernel not a multiple of MR=6 (27, 25, 8), OW below
// NR=16, 1x1 and 2x2 maps, H != W, stride 3, 3x3 with pad 2, InC 1 and 7,
// batches 1, 2, 7, 9 and 32, and OutC at the edges of the direct kernel's
// 16-lane groups. Full forwards 8 or more columns wide (3 for a 1x1
// kernel) take im2col + the GEMM; the delta forward runs the direct kernel
// at every width.
const ConvCase AdversarialCases[] = {
    {3, 7, 3, 1, 1, 5, 5, 1},    // tiny plane, M tail of 1
    {3, 7, 3, 1, 1, 5, 5, 32},   // same, large batch
    {1, 16, 5, 2, 2, 7, 7, 4},   // 5x5 kernel, stride 2, pad 2
    {2, 6, 2, 1, 0, 9, 9, 3},    // even kernel, no pad
    {3, 13, 3, 2, 1, 16, 16, 2}, // strided, M = 13
    {3, 8, 3, 1, 1, 1, 1, 2},    // 1x1 map: every tap but the center pads
    {7, 6, 1, 1, 0, 1, 1, 9},    // 1x1 map, 1x1 kernel
    {24, 24, 3, 1, 1, 2, 2, 7},  // 2x2 map, a saturated zoo layer's shape
    {1, 5, 3, 1, 2, 2, 2, 9},    // 3x3 pad 2 on 2x2: output 4x4
    {7, 9, 3, 3, 1, 5, 11, 2},   // stride 3, H != W
    {1, 4, 3, 3, 0, 10, 4, 7},   // stride 3 without padding, H > W
    {3, 6, 3, 1, 2, 6, 3, 2},    // 3x3 pad 2, H > W
    {7, 13, 2, 2, 0, 4, 6, 9},   // even kernel, stride 2, H < W
    {3, 6, 3, 1, 1, 32, 32, 2},  // the small-scale VGG stem: OW 32
    {3, 1, 3, 1, 1, 5, 5, 3},    // OutC 1: one live lane of a group
    {4, 17, 3, 1, 1, 4, 4, 2},   // a full group, then one live lane
    {5, 32, 3, 2, 1, 6, 6, 3},   // two full 16-lane groups
    {2, 33, 3, 1, 1, 3, 3, 2},   // a third group, one live lane
    {3, 40, 5, 1, 2, 4, 4, 2},   // 16 + 16 + 8 live lanes
    {8, 16, 1, 2, 0, 7, 7, 3},   // 1x1 stride-2: delta reads input in place
    {8, 16, 1, 2, 0, 4, 4, 3},   // same, 2-wide output: full reads in place
    {6, 9, 1, 1, 0, 5, 3, 2},    // the narrowest 1x1 output that takes the GEMM
};

std::unique_ptr<Sequential> convBnReluModel(const ConvCase &C) {
  Rng R(100 + C.OutC);
  auto Model = std::make_unique<Sequential>();
  Model->emplace<Conv2d>(C.InC, C.OutC, C.Kernel, C.Stride, C.Pad, R,
                         /*HasBias=*/false);
  Model->emplace<BatchNorm2d>(C.OutC);
  Model->emplace<ReLU>();
  perturbRunningStats(*Model, 200 + C.OutC);
  return Model;
}

std::string describe(const ConvCase &C) {
  return "InC=" + std::to_string(C.InC) + " OutC=" + std::to_string(C.OutC) +
         " K=" + std::to_string(C.Kernel) + " S=" + std::to_string(C.Stride) +
         " P=" + std::to_string(C.Pad) + " " + std::to_string(C.H) + "x" +
         std::to_string(C.W) + " batch=" + std::to_string(C.Batch);
}

/// One-pixel windows at the four corners, the four edge midpoints and
/// the center of an H x W map, then a whole first row and a 2x2 block in
/// the bottom-right corner.
std::vector<DeltaWindow> borderWindows(size_t H, size_t W) {
  const long R = static_cast<long>(H), C = static_cast<long>(W);
  const auto Px = [](long Row, long Col) {
    return DeltaWindow{Row, Row + 1, Col, Col + 1};
  };
  return {Px(0, 0),         Px(0, C - 1),     Px(R - 1, 0),
          Px(R - 1, C - 1), Px(0, C / 2),     Px(R / 2, 0),
          Px(R - 1, C / 2), Px(R / 2, C - 1), Px(R / 2, C / 2),
          {0, 1, 0, C},     {std::max(0L, R - 2), R, std::max(0L, C - 2), C}};
}

/// {Windows.size(), C, H, W}: item B is \p Ref ({1, C, H, W}) with fresh
/// values in every channel inside Windows[B].
Tensor nearBatch(const Tensor &Ref, const std::vector<DeltaWindow> &Windows,
                 uint64_t Seed) {
  Rng R(Seed);
  const size_t C = Ref.dim(1), H = Ref.dim(2), W = Ref.dim(3);
  const size_t Item = C * H * W;
  Tensor Out({Windows.size(), C, H, W});
  for (size_t B = 0; B != Windows.size(); ++B) {
    float *Dst = Out.data() + B * Item;
    std::memcpy(Dst, Ref.data(), Item * sizeof(float));
    const DeltaWindow &Win = Windows[B];
    for (size_t Ch = 0; Ch != C; ++Ch)
      for (long I = Win.R0; I < Win.R1; ++I)
        for (long J = Win.C0; J < Win.C1; ++J)
          Dst[(Ch * H + static_cast<size_t>(I)) * W + static_cast<size_t>(J)] =
              static_cast<float>(R.normal(0.0, 1.0));
  }
  return Out;
}

/// Records \p Ref as \p Model's delta reference (a capturing pass), runs
/// \p Near as a delta pass over \p Windows, and memcmps the result against
/// the --naive-kernels full forward of \p Near. Returns whether the pass
/// was still unsaturated after the last layer, i.e. every conv recomputed
/// only its windows.
bool expectDeltaParity(Sequential &Model, const Tensor &Ref,
                       const Tensor &Near,
                       const std::vector<DeltaWindow> &Windows) {
  kernels::setNaive(false);
  DeltaPass Capture;
  Capture.Capture = Capture.Saturated = true;
  Capture.Windows.resize(1);
  Model.forwardDelta(Ref, Capture, Tensor());
  DeltaPass Pass;
  Pass.Windows = Windows;
  const Tensor Delta = Model.forwardDelta(Near, Pass, Tensor());
  kernels::setNaive(true);
  const Tensor Naive = Model.forward(Near, /*Train=*/false);
  kernels::setNaive(false);
  EXPECT_EQ(Delta.shape(), Naive.shape());
  EXPECT_TRUE(Delta.numel() == Naive.numel() &&
              std::memcmp(Delta.data(), Naive.data(),
                          Delta.numel() * sizeof(float)) == 0)
      << "delta forward differs from the naive forward";
  return !Pass.Saturated;
}

} // namespace

TEST(FusedForward, ConvBnReluAdversarialShapes) {
  for (const ConvCase &C : AdversarialCases) {
    auto Model = convBnReluModel(C);
    const Tensor In = randomInput({C.Batch, C.InC, C.H, C.W}, 300);
    SCOPED_TRACE(describe(C));
    expectKernelParity(*Model, In);
  }
}

TEST(FusedForward, DeltaAtAdversarialShapes) {
  // Each case's conv -> BN -> ReLU is followed by a 3x3 pad-1 conv -> BN
  // on its output map, so windows also pass through a second table.
  size_t Unsaturated = 0;
  for (const ConvCase &C : AdversarialCases) {
    auto Model = convBnReluModel(C);
    Rng R(400 + C.OutC);
    Model->emplace<Conv2d>(C.OutC, 4, 3, 1, 1, R, /*HasBias=*/true);
    Model->emplace<BatchNorm2d>(4);
    perturbRunningStats(*Model, 500 + C.OutC);
    const Tensor Ref = randomInput({1, C.InC, C.H, C.W}, 600);
    const std::vector<DeltaWindow> Border = borderWindows(C.H, C.W);
    // Item B of pass P takes border window (P + B) mod |Border|, so every
    // window lands on every batch position of the case.
    for (size_t P = 0; P != Border.size(); ++P) {
      std::vector<DeltaWindow> Windows(C.Batch);
      for (size_t B = 0; B != C.Batch; ++B)
        Windows[B] = Border[(P + B) % Border.size()];
      SCOPED_TRACE(describe(C) + " pass " + std::to_string(P));
      Unsaturated += expectDeltaParity(*Model, Ref,
                                       nearBatch(Ref, Windows, 700 + P),
                                       Windows);
    }
  }
  EXPECT_GT(Unsaturated, 0u) << "no pass took the windowed direct kernel";
}

TEST(FusedForward, OneConvAtAlternatingInputSizes) {
  // One layer reuses its patch and packed-weight scratch across input
  // geometries. 4x6 and 6x4 have the same plane size but different row
  // strides. At 2x9 the fused conv's full forward is wide enough to take
  // im2col, so only its delta forward runs the direct kernel there.
  Rng R(81);
  Sequential Fused;
  Fused.emplace<Conv2d>(3, 7, 3, 1, 1, R, /*HasBias=*/false);
  Fused.emplace<BatchNorm2d>(7);
  Fused.emplace<ReLU>();
  perturbRunningStats(Fused, 82);
  Sequential Plain; // a bare biased conv: Conv2d::forward's fast path
  Plain.emplace<Conv2d>(3, 5, 3, 2, 1, R, /*HasBias=*/true);
  const std::pair<size_t, size_t> Sizes[] = {{5, 5}, {4, 6}, {6, 4}, {5, 5},
                                             {2, 9}, {4, 6}, {1, 1}, {6, 4}};
  for (size_t I = 0; I != std::size(Sizes); ++I) {
    const auto [H, W] = Sizes[I];
    SCOPED_TRACE(std::to_string(H) + "x" + std::to_string(W));
    const Tensor In = randomInput({2, 3, H, W}, 90 + I);
    expectKernelParity(Fused, In);
    expectKernelParity(Plain, In);
    // The delta path runs the direct kernel on windows.
    const Tensor Ref = randomInput({1, 3, H, W}, 110 + I);
    const std::vector<DeltaWindow> Windows{
        {0, 1, 0, 1},
        {static_cast<long>(H) - 1, static_cast<long>(H),
         static_cast<long>(W) - 1, static_cast<long>(W)}};
    expectDeltaParity(Fused, Ref, nearBatch(Ref, Windows, 120 + I), Windows);
  }
}

TEST(FusedForward, PaddingTapsAreNotSkipped) {
  // A 3x3 pad-1 conv -> BN on 1-row maps: taps with Ki != 1 read the
  // padding rows only. A +Inf weight on one of them makes its output
  // channel Inf * 0 = NaN everywhere in the naive path, so a kernel that
  // skipped padding taps would write finite values there. NaNs defeat
  // ASSERT_EQ: the outputs are memcmp'd, NaN bytes included. (No ReLU: it
  // would map the NaNs to 0.)
  for (const size_t W : {1, 6}) {
    SCOPED_TRACE("1x" + std::to_string(W));
    Rng R(33);
    Sequential Model;
    Conv2d &Conv = Model.emplace<Conv2d>(2, 5, 3, 1, 1, R, /*HasBias=*/true);
    Model.emplace<BatchNorm2d>(5);
    perturbRunningStats(Model, 37);
    Conv.weight()[2 * 18 + 9 + 1] = INFINITY; // channel 2, tap (1, 0, 1)
    const Tensor Ref = randomInput({1, 2, 1, W}, 34);
    const Tensor In = randomInput({3, 2, 1, W}, 35);
    kernels::setNaive(false);
    const Tensor Fast = Model.forward(In, /*Train=*/false);
    kernels::setNaive(true);
    const Tensor Naive = Model.forward(In, /*Train=*/false);
    kernels::setNaive(false);
    ASSERT_EQ(Fast.shape(), Naive.shape());
    ASSERT_TRUE(std::isnan(Naive[2 * W]) && !std::isnan(Naive[0]))
        << "the Inf tap must poison channel 2 only";
    EXPECT_EQ(std::memcmp(Fast.data(), Naive.data(),
                          Fast.numel() * sizeof(float)),
              0)
        << "full forward differs from the naive forward";
    if (W == 1)
      continue; // a 1x1 map saturates at once: no window to recompute
    // One-pixel windows at the left edge, middle and right edge.
    const std::vector<DeltaWindow> Windows{
        {0, 1, 0, 1}, {0, 1, 3, 4}, {0, 1, 5, 6}};
    EXPECT_TRUE(
        expectDeltaParity(Model, Ref, nearBatch(Ref, Windows, 36), Windows))
        << "the pass saturated: no window took the direct kernel";
  }
}

TEST(FusedForward, BiasedConvWithoutBnOrRelu) {
  // A bare biased conv takes the fast GEMM path with only the bias stage
  // of the epilogue enabled.
  Rng R(9);
  Sequential Model;
  Model.emplace<Conv2d>(3, 10, 3, 1, 1, R, /*HasBias=*/true);
  expectKernelParity(Model, randomInput({2, 3, 8, 8}, 10));
}

TEST(FusedForward, ConvReluWithoutBn) {
  Rng R(11);
  Sequential Model;
  Model.emplace<Conv2d>(3, 5, 3, 1, 1, R, /*HasBias=*/true);
  Model.emplace<ReLU>();
  expectKernelParity(Model, randomInput({3, 3, 6, 6}, 12));
}

TEST(FusedForward, ResidualBlockWithProjection) {
  // Exercises the conv-bn-relu + conv-bn body and the 1x1 conv-bn
  // projection (stride 2), all through nested Sequential fusion plans.
  Rng R(13);
  Sequential Model;
  Model.emplace<ResidualBlock>(3, 8, /*Stride=*/2, R);
  perturbRunningStats(Model, 14);
  expectKernelParity(Model, randomInput({2, 3, 8, 8}, 15));
}

TEST(FusedForward, BatchOneMatchesBatch32Rows) {
  // The fused path must stay batch-invariant: image 0's scores are the
  // same whether it is forwarded alone or as row 0 of a batch of 32.
  Rng R(17);
  auto Model = buildModel(Arch::MiniResNet, /*NumClasses=*/4,
                          /*InputSide=*/8, R);
  perturbRunningStats(*Model, 18);
  const Tensor Batch = randomInput({32, 3, 8, 8}, 19);
  Tensor One({1, 3, 8, 8});
  for (size_t I = 0; I != One.numel(); ++I)
    One[I] = Batch[I];
  const Tensor OutBatch = Model->forward(Batch, /*Train=*/false);
  const Tensor OutOne = Model->forward(One, /*Train=*/false);
  ASSERT_EQ(OutBatch.dim(0), 32u);
  ASSERT_EQ(OutOne.dim(0), 1u);
  const size_t Row = OutBatch.numel() / 32;
  for (size_t I = 0; I != Row; ++I)
    ASSERT_EQ(OutOne[I], OutBatch[I]) << "at " << I;
}

TEST(FusedForward, AllZooArchitectures) {
  for (Arch A : {Arch::MiniVGG, Arch::MiniResNet, Arch::MiniGoogLeNet,
                 Arch::MiniDenseNet, Arch::MiniResNet50}) {
    const size_t Side = A == Arch::MiniResNet50 ? 16 : 8;
    Rng R(40 + static_cast<int>(A));
    auto Model = buildModel(A, /*NumClasses=*/10, Side, R);
    perturbRunningStats(*Model, 50 + static_cast<int>(A));
    SCOPED_TRACE(archName(A));
    expectKernelParity(*Model, randomInput({3, 3, Side, Side}, 60));
  }
}

TEST(FusedForward, TrainingForwardIgnoresFusion) {
  // Train-mode forwards must keep the reference path (backward needs the
  // cached im2col matrix), independent of the kernel toggle.
  Rng R(71);
  Sequential Model;
  Model.emplace<Conv2d>(2, 4, 3, 1, 1, R, /*HasBias=*/false);
  Model.emplace<BatchNorm2d>(4);
  Model.emplace<ReLU>();
  const Tensor In = randomInput({2, 2, 6, 6}, 72);
  kernels::setNaive(false);
  const Tensor FastTrain = Model.forward(In, /*Train=*/true);
  Rng R2(71);
  Sequential Model2;
  Model2.emplace<Conv2d>(2, 4, 3, 1, 1, R2, /*HasBias=*/false);
  Model2.emplace<BatchNorm2d>(4);
  Model2.emplace<ReLU>();
  kernels::setNaive(true);
  const Tensor NaiveTrain = Model2.forward(In, /*Train=*/true);
  kernels::setNaive(false);
  for (size_t I = 0; I != FastTrain.numel(); ++I)
    ASSERT_EQ(FastTrain[I], NaiveTrain[I]) << "at " << I;
}

namespace {

/// The model of the parameter-write tests and the layers a write reaches
/// into: every piece of inference state the fast path keeps between
/// forwards.
struct WriteCase {
  Sequential Model;
  Conv2d *WideConv = nullptr;   ///< 8x8 output: im2col + the packed GEMM
  BatchNorm2d *FusedBn = nullptr;
  BatchNorm2d *PlainBn = nullptr; ///< after a pool: BatchNorm2d::forward
  Conv2d *NarrowConv = nullptr;   ///< 4x4 output: the direct kernel
  Linear *Head = nullptr;

  WriteCase() {
    Rng R(91);
    WideConv = &Model.emplace<Conv2d>(3, 8, 3, 1, 1, R, /*HasBias=*/false);
    FusedBn = &Model.emplace<BatchNorm2d>(8);
    Model.emplace<ReLU>();
    Model.emplace<MaxPool2d>(2);
    PlainBn = &Model.emplace<BatchNorm2d>(8);
    NarrowConv = &Model.emplace<Conv2d>(8, 16, 3, 1, 1, R);
    Model.emplace<BatchNorm2d>(16);
    Model.emplace<ReLU>();
    Model.emplace<Flatten>();
    Head = &Model.emplace<Linear>(16 * 4 * 4, 5, R);
    perturbRunningStats(Model, 92);
  }
};

Tensor writeCaseInput() { return randomInput({2, 3, 8, 8}, 93); }

bool sameBytes(const Tensor &A, const Tensor &B) {
  return A.shape() == B.shape() &&
         std::memcmp(A.data(), B.data(), A.numel() * sizeof(float)) == 0;
}

/// Runs a capturing delta pass (a fast full forward that also records the
/// delta reference), \p Write, and a fast forward. Expects the write to
/// drop the reference, and the second forward to be the --naive-kernels
/// forward's bytes and to differ from the first: whatever the first
/// forward packed or folded was rebuilt.
void expectRebuiltAfter(WriteCase &C, const std::function<void()> &Write) {
  const Tensor In = writeCaseInput();
  kernels::setNaive(false);
  DeltaPass Capture;
  Capture.Capture = Capture.Saturated = true;
  Capture.Windows.resize(In.dim(0));
  const Tensor Before = C.Model.forwardDelta(In, Capture, Tensor());
  ASSERT_TRUE(C.Model.hasReference());
  Write();
  EXPECT_FALSE(C.Model.hasReference()) << "the write kept the reference";
  const Tensor After = C.Model.forward(In, /*Train=*/false);
  kernels::setNaive(true);
  const Tensor Naive = C.Model.forward(In, /*Train=*/false);
  kernels::setNaive(false);
  EXPECT_TRUE(sameBytes(After, Naive))
      << "the fast forward after the write differs from the naive one";
  EXPECT_FALSE(sameBytes(Before, After)) << "the write changed nothing";
}

void scale(Tensor &T, float By) {
  for (float &V : T.vec())
    V *= By;
}

} // namespace

TEST(FusedForward, ParameterWritesRebuildPacksAndDropTheReference) {
  using Write = std::function<void(WriteCase &)>;
  const std::pair<const char *, Write> Writes[] = {
      {"GEMM conv weight()",
       [](WriteCase &C) { scale(C.WideConv->weight(), -1.5f); }},
      {"direct conv weight()",
       [](WriteCase &C) { scale(C.NarrowConv->weight(), -1.5f); }},
      {"conv bias()", [](WriteCase &C) { C.NarrowConv->bias().fill(0.75f); }},
      {"linear weight()",
       [](WriteCase &C) { scale(C.Head->weight(), -1.5f); }},
      {"linear bias()", [](WriteCase &C) { C.Head->bias().fill(0.75f); }},
      {"fused runningVar()",
       [](WriteCase &C) { scale(C.FusedBn->runningVar(), 3.0f); }},
      {"unfused runningVar()",
       [](WriteCase &C) { scale(C.PlainBn->runningVar(), 3.0f); }},
      {"unfused runningMean()",
       [](WriteCase &C) { C.PlainBn->runningMean().fill(0.5f); }},
      {"gamma through parameters()",
       [](WriteCase &C) {
         for (const ParamRef &P : C.Model.parameters())
           if (P.Name.find("gamma") != std::string::npos)
             scale(*P.Value, -2.0f);
       }},
      {"running_mean through buffers()",
       [](WriteCase &C) {
         for (auto &[Name, Buf] : C.Model.buffers())
           if (Name.find("running_mean") != std::string::npos)
             Buf->fill(-0.5f);
       }},
      {"BatchNorm Train forward",
       [](WriteCase &C) {
         // The layer alone, not through the Sequential: its own Train
         // forward updates the running statistics the fold reads.
         C.PlainBn->forward(randomInput({4, 8, 4, 4}, 94), /*Train=*/true);
       }},
  };
  for (const auto &[What, Apply] : Writes) {
    SCOPED_TRACE(What);
    WriteCase C;
    expectRebuiltAfter(C, [&] { Apply(C); });
  }
}

TEST(FusedForward, OptimizerStepsRebuildPacksAndDropTheReference) {
  // Each step follows a Train forward; a fast forward between the two
  // packs the weights the step then writes through its ParamRefs.
  for (const bool UseAdam : {false, true}) {
    SCOPED_TRACE(UseAdam ? "Adam" : "Sgd");
    WriteCase C;
    std::unique_ptr<Optimizer> Opt;
    if (UseAdam)
      Opt = std::make_unique<Adam>(C.Model.parameters(), 0.05f);
    else
      Opt = std::make_unique<Sgd>(C.Model.parameters(), 0.05f);
    CrossEntropy Loss;
    Opt->zeroGrad();
    Loss.forward(C.Model.forward(writeCaseInput(), /*Train=*/true), {0, 3});
    C.Model.backward(Loss.backward());
    expectRebuiltAfter(C, [&] { Opt->step(); });
  }
}
