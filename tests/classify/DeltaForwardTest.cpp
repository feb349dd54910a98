//===- tests/classify/DeltaForwardTest.cpp - delta == full, bitwise ---------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// NNClassifier forwards images within a few pixels of its reference image
// incrementally: each layer recomputes only the output window the changed
// pixels reach and copies the reference's outputs elsewhere (DESIGN.md
// §16). The contract is bit-identity with the full forward, so every
// comparison below is a memcmp against a twin model that always runs the
// full fast path — for every zoo architecture, changed pixels at the
// corners, edges and center, k = 0..4 changed pixels, batch sizes 1 to 32,
// mixed batches and reference switches, and after Train forwards and
// loadModel. The telemetry counters prove the delta path actually ran.
//
//===----------------------------------------------------------------------===//

#include "classify/NNClassifier.h"
#include "nn/Layer.h"
#include "nn/Loss.h"
#include "nn/ModelZoo.h"
#include "nn/Serialize.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "tensor/Gemm.h"
#include "tensor/TensorOps.h"

#include "TestUtil.h"
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <gtest/gtest.h>
#include <thread>

using namespace oppsla;
using test::randomImage;

namespace {

constexpr size_t Classes = 5;

struct ArchCase {
  Arch A;
  size_t Side;
};

const ArchCase Cases[] = {
    {Arch::MiniVGG, 8},        {Arch::MiniVGG, 16},
    {Arch::MiniResNet, 8},     {Arch::MiniResNet, 16},
    {Arch::MiniGoogLeNet, 8},  {Arch::MiniGoogLeNet, 16},
    {Arch::MiniDenseNet, 8},   {Arch::MiniDenseNet, 16},
    {Arch::MiniResNet50, 16},  {Arch::Mlp, 8},
};

uint64_t deltaImages() {
  return telemetry::counter("nn.forward.delta_images").value();
}
uint64_t fullImages() {
  return telemetry::counter("nn.forward.full_images").value();
}

/// A model with non-trivial BatchNorm running statistics, so the fused
/// affine really scales and shifts. Equal seeds give equal models.
std::unique_ptr<Sequential> makeModel(const ArchCase &C) {
  Rng R(0xde17a + static_cast<uint64_t>(C.A));
  std::unique_ptr<Sequential> M = buildModel(C.A, Classes, C.Side, R);
  Rng S(0x57a75);
  for (auto &[Name, Buf] : M->buffers())
    for (float &V : Buf->vec())
      V = Name.find("running_var") != std::string::npos
              ? static_cast<float>(S.uniform(0.2, 2.0))
              : static_cast<float>(S.normal(0.0, 0.5));
  return M;
}

/// Softmax scores of a full fast-kernel forward: a bare Sequential never
/// takes the delta path.
std::vector<float> fullScores(Sequential &Twin, const Image &Img) {
  Tensor Probs = Twin.forward(Img.toTensor(), /*Train=*/false)
                     .reshaped({1, Classes});
  softmaxInPlace(Probs);
  return Probs.vec();
}

bool bitIdentical(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0;
}

/// \p Base with the pixels at \p At replaced by values drawn from \p Seed.
Image withPixels(const Image &Base,
                 const std::vector<std::pair<size_t, size_t>> &At,
                 uint64_t Seed) {
  Rng R(Seed);
  Image Out = Base;
  for (const auto &[Row, Col] : At)
    Out.setPixel(Row, Col, Pixel{R.uniformF(), R.uniformF(), R.uniformF()});
  return Out;
}

/// \p K distinct random pixel positions of a Side x Side image.
std::vector<std::pair<size_t, size_t>> randomPositions(size_t Side, size_t K,
                                                       Rng &R) {
  std::vector<std::pair<size_t, size_t>> At;
  while (At.size() != K) {
    const std::pair<size_t, size_t> P{R.index(Side), R.index(Side)};
    if (std::find(At.begin(), At.end(), P) == At.end())
      At.push_back(P);
  }
  return At;
}

class DeltaForwardTest : public ::testing::TestWithParam<ArchCase> {
protected:
  void SetUp() override {
    kernels::setNaive(false);
    auto Model = makeModel(GetParam());
    Owned = Model.get();
    N = std::make_unique<NNClassifier>(std::move(Model), Classes, "delta");
    Twin = makeModel(GetParam());
    Side = GetParam().Side;
    Base = randomImage(Side, Side, 0xba5e);
  }

  /// Queries \p Img through the classifier and expects the twin's bytes.
  void expectScores(const Image &Img, const std::string &What) {
    EXPECT_TRUE(bitIdentical(N->scores(Img), fullScores(*Twin, Img))) << What;
  }

  /// Queries \p Imgs as one batch and expects the twin's bytes per item.
  void expectBatch(const std::vector<Image> &Imgs, const std::string &What) {
    const auto Got = N->scoresBatch(std::span<const Image>(Imgs));
    ASSERT_EQ(Got.size(), Imgs.size());
    for (size_t I = 0; I != Imgs.size(); ++I)
      EXPECT_TRUE(bitIdentical(Got[I], fullScores(*Twin, Imgs[I])))
          << What << " item " << I;
  }

  Sequential *Owned = nullptr; ///< the classifier's model
  std::unique_ptr<NNClassifier> N;
  std::unique_ptr<Sequential> Twin;
  size_t Side = 0;
  Image Base;
};

std::string caseName(const ::testing::TestParamInfo<ArchCase> &Info) {
  return std::string(archName(Info.param.A)) + "_" +
         std::to_string(Info.param.Side);
}

} // namespace

TEST_P(DeltaForwardTest, CornersEdgesAndCenter) {
  const size_t Full0 = fullImages();
  expectScores(Base, "clean image");
  EXPECT_EQ(fullImages(), Full0 + 1) << "the clean image is the reference";

  const size_t L = Side - 1, M = Side / 2;
  const std::pair<size_t, size_t> Positions[] = {
      {0, 0}, {0, L}, {L, 0}, {L, L}, // corners
      {0, M}, {M, 0}, {L, M}, {M, L}, // edge midpoints
      {M, M},                         // center
  };
  const size_t Delta0 = deltaImages();
  for (size_t I = 0; I != std::size(Positions); ++I) {
    const auto [Row, Col] = Positions[I];
    expectScores(withPixels(Base, {{Row, Col}}, 100 + I),
                 "pixel (" + std::to_string(Row) + ", " +
                     std::to_string(Col) + ")");
  }
  EXPECT_EQ(deltaImages(), Delta0 + std::size(Positions));
  EXPECT_EQ(fullImages(), Full0 + 1);
}

TEST_P(DeltaForwardTest, OneToFourChangedPixels) {
  expectScores(Base, "clean image");
  const size_t Delta0 = deltaImages(), Full0 = fullImages();
  Rng R(0x4ea1);
  size_t Queries = 0;
  for (size_t K = 1; K <= NNClassifier::MaxDeltaPixels; ++K) {
    for (size_t Trial = 0; Trial != 3; ++Trial, ++Queries)
      expectScores(withPixels(Base, randomPositions(Side, K, R), Queries),
                   "k = " + std::to_string(K));
  }
  // Four scattered pixels: the bounding window covers the whole image.
  const size_t L = Side - 1;
  expectScores(withPixels(Base, {{0, 0}, {0, L}, {L, 0}, {L, L}}, 99),
               "four corners");
  EXPECT_EQ(deltaImages(), Delta0 + Queries + 1);
  EXPECT_EQ(fullImages(), Full0);

  // One pixel past the limit is forwarded in full and becomes the
  // reference.
  const Image Five = withPixels(Base, randomPositions(Side, 5, R), 7);
  expectScores(Five, "k = 5");
  EXPECT_EQ(fullImages(), Full0 + 1);
  expectScores(withPixels(Five, {{1, 1}}, 8), "next to the new reference");
  EXPECT_EQ(deltaImages(), Delta0 + Queries + 2);
}

TEST_P(DeltaForwardTest, BatchSizes) {
  expectScores(Base, "clean image");
  Rng R(0xba7c);
  for (const size_t BatchSize : {1u, 2u, 7u, 32u}) {
    std::vector<Image> Imgs;
    for (size_t I = 0; I != BatchSize; ++I)
      Imgs.push_back(withPixels(
          Base, randomPositions(Side, 1 + I % NNClassifier::MaxDeltaPixels, R),
          1000 * BatchSize + I));
    const size_t Delta0 = deltaImages(), Full0 = fullImages();
    expectBatch(Imgs, "batch " + std::to_string(BatchSize));
    EXPECT_EQ(deltaImages(), Delta0 + BatchSize);
    EXPECT_EQ(fullImages(), Full0);
  }
}

TEST_P(DeltaForwardTest, MixedBatch) {
  expectScores(Base, "clean image");
  const Image FarA = randomImage(Side, Side, 0xfa0);
  const Image FarB = randomImage(Side, Side, 0xfb0);
  // Near the reference, then FarA (the new reference), FarB (far from
  // both) and two images near FarA.
  const std::vector<Image> Imgs{
      withPixels(Base, {{0, 0}}, 1),
      FarA,
      withPixels(Base, {{1, 2}, {3, 0}}, 2),
      FarB,
      withPixels(FarA, {{Side / 2, Side / 2}}, 3),
      withPixels(Base, {{Side - 1, 1}}, 4),
      withPixels(FarA, {{0, Side - 1}, {Side - 1, 0}}, 5),
  };
  const size_t Delta0 = deltaImages(), Full0 = fullImages();
  expectBatch(Imgs, "mixed batch");
  EXPECT_EQ(deltaImages(), Delta0 + 5);
  EXPECT_EQ(fullImages(), Full0 + 2);

  // FarA is the reference now.
  expectScores(withPixels(FarA, {{1, 1}}, 6), "after the batch");
  EXPECT_EQ(deltaImages(), Delta0 + 6);
  EXPECT_EQ(fullImages(), Full0 + 2);
}

TEST_P(DeltaForwardTest, SwitchingReferences) {
  const Image Other = randomImage(Side, Side, 0x07e7);
  Rng R(0x5717);
  const size_t Delta0 = deltaImages(), Full0 = fullImages();
  for (size_t Round = 0; Round != 3; ++Round) {
    for (const Image *B : {static_cast<const Image *>(&Base), &Other}) {
      expectScores(*B, "base");
      std::vector<Image> Imgs;
      for (size_t I = 0; I != 5; ++I)
        Imgs.push_back(withPixels(*B, randomPositions(Side, 1, R), I));
      expectBatch(Imgs, "variants after a switch");
    }
  }
  EXPECT_EQ(deltaImages(), Delta0 + 30);
  EXPECT_EQ(fullImages(), Full0 + 6);

  // A variant of the old base is far from the current one: it becomes the
  // reference itself, and its neighbours follow as deltas.
  const Image Variant = withPixels(Base, {{2, 3}}, 9);
  expectScores(Variant, "variant of the previous base");
  expectScores(withPixels(Variant, {{3, 2}}, 10), "near that variant");
  EXPECT_EQ(fullImages(), Full0 + 7);
  EXPECT_EQ(deltaImages(), Delta0 + 31);
}

TEST_P(DeltaForwardTest, UnchangedImageAndOneChannel) {
  expectScores(Base, "clean image");
  const size_t Delta0 = deltaImages();
  expectScores(Base, "k = 0");
  expectBatch({Base, Base, withPixels(Base, {{0, 1}}, 1)}, "k = 0 batch");
  // A change in one channel alone still marks the pixel as changed.
  Image Blue = Base;
  Pixel P = Blue.pixel(Side / 2, 1);
  P.B = 1.0f - P.B;
  Blue.setPixel(Side / 2, 1, P);
  expectScores(Blue, "blue channel only");
  EXPECT_EQ(deltaImages(), Delta0 + 5);
}

TEST_P(DeltaForwardTest, NaiveKernelsNeverTakeIt) {
  expectScores(Base, "clean image");
  const size_t Delta0 = deltaImages(), Full0 = fullImages();
  kernels::setNaive(true);
  // The scalar reference path is bit-identical to the fast full path.
  const Image Variant = withPixels(Base, {{1, 1}}, 1);
  const std::vector<float> Naive = N->scores(Variant);
  kernels::setNaive(false);
  EXPECT_TRUE(bitIdentical(Naive, fullScores(*Twin, Variant)));
  EXPECT_EQ(deltaImages(), Delta0);
  EXPECT_EQ(fullImages(), Full0 + 1);

  // The reference survives the naive forward.
  expectScores(Variant, "fast again");
  EXPECT_EQ(deltaImages(), Delta0 + 1);
}

TEST_P(DeltaForwardTest, TrainForwardsNeverTakeItAndDropTheReference) {
  expectScores(Base, "clean image");
  ASSERT_TRUE(Owned->hasReference());
  const size_t Delta0 = deltaImages(), Full0 = fullImages();

  // One identical training step on both models.
  const Tensor X = Base.toTensor();
  for (Sequential *M : {Owned, Twin.get()}) {
    CrossEntropy Loss;
    Loss.forward(M->forward(X, /*Train=*/true), {0});
    M->backward(Loss.backward());
  }
  EXPECT_FALSE(Owned->hasReference());
  EXPECT_EQ(deltaImages(), Delta0);
  EXPECT_EQ(fullImages(), Full0);

  // Training changed the running statistics, so the next image is
  // forwarded in full and becomes the reference again.
  expectScores(withPixels(Base, {{0, 2}}, 1), "after training");
  EXPECT_EQ(fullImages(), Full0 + 1);
  expectScores(withPixels(Base, {{2, 0}}, 2), "delta after training");
  EXPECT_EQ(deltaImages(), Delta0 + 1);
}

TEST_P(DeltaForwardTest, LoadModelDropsTheReference) {
  expectScores(Base, "clean image");
  ASSERT_TRUE(Owned->hasReference());

  // Other weights into both models: the reference was computed with the
  // old ones.
  Rng R(0x10ad);
  const std::unique_ptr<Sequential> Other =
      buildModel(GetParam().A, Classes, Side, R);
  const std::string Path =
      (std::filesystem::temp_directory_path() /
       ("oppsla_delta_load_" + std::string(archName(GetParam().A)) + "_" +
        std::to_string(Side) + ".bin"))
          .string();
  ASSERT_TRUE(saveModel(*Other, Path));
  ASSERT_TRUE(loadModel(*Owned, Path));
  ASSERT_TRUE(loadModel(*Twin, Path));
  std::remove(Path.c_str());
  EXPECT_FALSE(Owned->hasReference());

  const size_t Delta0 = deltaImages(), Full0 = fullImages();
  expectScores(withPixels(Base, {{1, 1}}, 1), "after loadModel");
  EXPECT_EQ(fullImages(), Full0 + 1) << "recaptured with the new weights";
  expectScores(withPixels(Base, {{1, 2}}, 2), "delta after loadModel");
  EXPECT_EQ(deltaImages(), Delta0 + 1);
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, DeltaForwardTest,
                         ::testing::ValuesIn(Cases), caseName);

TEST(DeltaForward, ClonesOnAnotherThreadChangeNoByte) {
  // The parameter generation is process-wide: another thread cloning its
  // own classifier moves it at any point of this thread's forwards. Each
  // move may cost a repack and a new reference, never a byte.
  kernels::setNaive(false);
  const ArchCase C{Arch::MiniResNet, 8};
  NNClassifier N(makeModel(C), Classes, "delta");
  NNClassifier Other(makeModel(C), Classes, "other");
  Other.setModelBuilder([C] { return makeModel(C); });
  const std::unique_ptr<Sequential> Twin = makeModel(C);

  // Near and far images of two bases, so calls both capture and delta.
  const Image BaseA = randomImage(C.Side, C.Side, 0xc10a);
  const Image BaseB = randomImage(C.Side, C.Side, 0xc10b);
  Rng R(0xc10c);
  std::vector<Image> Imgs;
  for (size_t I = 0; I != 12; ++I)
    Imgs.push_back(withPixels(I % 3 == 2 ? BaseB : BaseA,
                              randomPositions(C.Side, 1 + I % 4, R), I));
  std::vector<std::vector<float>> Expected;
  for (const Image &Img : Imgs)
    Expected.push_back(fullScores(*Twin, Img));

  std::atomic<bool> Done{false};
  std::thread Cloner([&] {
    while (!Done.load())
      EXPECT_NE(Other.clone(), nullptr);
  });
  size_t Mismatches = 0;
  for (size_t Round = 0; Round != 40; ++Round) {
    const auto Got = N.scoresBatch(std::span<const Image>(Imgs));
    for (size_t I = 0; I != Imgs.size(); ++I)
      Mismatches += !bitIdentical(Got[I], Expected[I]);
  }
  Done.store(true);
  Cloner.join();
  EXPECT_EQ(Mismatches, 0u);
}

TEST(DeltaWindow, ThroughClampsAtBorders) {
  // A corner pixel through a 3x3, stride 1, pad 1 conv on 8x8.
  const DeltaWindow Corner{0, 1, 0, 1};
  const DeltaWindow C3 = Corner.through(3, 1, 1, 8, 8);
  EXPECT_EQ(C3.R0, 0);
  EXPECT_EQ(C3.R1, 2);
  EXPECT_EQ(C3.C0, 0);
  EXPECT_EQ(C3.C1, 2);
  // The far corner through a 3x3, stride 2, pad 1 conv: 8 -> 4.
  const DeltaWindow Far = DeltaWindow{7, 8, 7, 8}.through(3, 2, 1, 4, 4);
  EXPECT_EQ(Far.R0, 3);
  EXPECT_EQ(Far.R1, 4);
  // A center pixel through a 5x5, pad 2 conv reaches two rows each way.
  const DeltaWindow Mid = DeltaWindow{4, 5, 4, 5}.through(5, 1, 2, 8, 8);
  EXPECT_EQ(Mid.R0, 2);
  EXPECT_EQ(Mid.R1, 7);
  // A 2x2 pool: pixel 3 lands in output 1.
  const DeltaWindow Pool = DeltaWindow{3, 4, 2, 4}.through(2, 2, 0, 4, 4);
  EXPECT_EQ(Pool.R0, 1);
  EXPECT_EQ(Pool.R1, 2);
  EXPECT_EQ(Pool.C0, 1);
  EXPECT_EQ(Pool.C1, 2);
  // A row no pooling window reads (odd input side) and an empty window
  // both reach nothing.
  EXPECT_TRUE(DeltaWindow({6, 7, 0, 1}).through(2, 2, 0, 3, 3).empty());
  EXPECT_TRUE(DeltaWindow().through(3, 1, 1, 8, 8).empty());
}

TEST(DeltaWindow, AdvanceSaturatesPastHalfTheMap) {
  DeltaPass P;
  P.Windows = {{0, 1, 0, 1}, {1, 2, 1, 2}};
  // 4x4 output of a 3x3 pad-1 conv: 2x2 = 4 and 3x3 = 9 of 16 positions.
  EXPECT_EQ(P.advance(3, 1, 1, 4, 4), 4u + 16u);
  EXPECT_FALSE(P.Saturated) << "the corner window stays partial";
  EXPECT_EQ(P.Windows[1].area(), 16u) << "9 of 16 widens to the whole map";
  P.advance(3, 1, 1, 4, 4);
  EXPECT_TRUE(P.Saturated);
}
