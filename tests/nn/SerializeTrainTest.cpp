//===- tests/nn/SerializeTrainTest.cpp - Serialization & training -------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classify/Training.h"
#include "nn/ModelZoo.h"
#include "nn/Serialize.h"
#include "support/Rng.h"
#include "tensor/Gemm.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

using namespace oppsla;

namespace {

std::string tempPath(const char *Name) {
  return (std::filesystem::temp_directory_path() / Name).string();
}

/// Returns the inference output of \p Net on a fixed input.
Tensor probe(Sequential &Net, size_t Side) {
  Rng R(77);
  const Tensor In = Tensor::rand({1, 3, Side, Side}, R);
  return Net.forward(In, false);
}

bool sameBytes(const Tensor &A, const Tensor &B) {
  return A.shape() == B.shape() &&
         std::memcmp(A.data(), B.data(), A.numel() * sizeof(float)) == 0;
}

/// The --naive-kernels probe of \p Net: the reference for a fast forward
/// that must not have kept anything packed from older weights.
Tensor naiveProbe(Sequential &Net, size_t Side) {
  kernels::setNaive(true);
  Tensor Out = probe(Net, Side);
  kernels::setNaive(false);
  return Out;
}

/// Two classes, bright images against dark ones: trivially separable.
Dataset brightDark(size_t Side, size_t Count) {
  Dataset Data;
  Data.NumClasses = 2;
  Rng R(5);
  for (size_t I = 0; I != Count; ++I) {
    const bool Bright = I % 2 == 0;
    Image Img(Side, Side);
    for (float &V : Img.raw())
      V = static_cast<float>((Bright ? 0.7 : 0.2) + R.uniform(-0.1, 0.1));
    Data.Images.push_back(Img);
    Data.Labels.push_back(Bright ? 1 : 0);
  }
  return Data;
}

} // namespace

TEST(Serialize, RoundTripPreservesBehavior) {
  Rng R1(1), R2(2);
  auto A = buildModel(Arch::MiniVGG, 10, 16, R1);
  auto B = buildModel(Arch::MiniVGG, 10, 16, R2); // different init
  const std::string Path = tempPath("oppsla_roundtrip.bin");
  ASSERT_TRUE(saveModel(*A, Path));
  ASSERT_TRUE(loadModel(*B, Path));
  const Tensor OutA = probe(*A, 16);
  const Tensor OutB = probe(*B, 16);
  for (size_t I = 0; I != OutA.numel(); ++I)
    EXPECT_EQ(OutA[I], OutB[I]);
  std::remove(Path.c_str());
}

TEST(Serialize, LoadIntoAModelThatAlreadyRanRebuildsItsPacks) {
  Rng R1(1), R2(2);
  auto A = buildModel(Arch::MiniVGG, 10, 16, R1);
  auto B = buildModel(Arch::MiniVGG, 10, 16, R2);
  const Tensor Before = probe(*A, 16); // packs A's own weights
  const std::string Path = tempPath("oppsla_load_repack.bin");
  ASSERT_TRUE(saveModel(*B, Path));
  ASSERT_TRUE(loadModel(*A, Path));
  std::remove(Path.c_str());
  const Tensor After = probe(*A, 16);
  EXPECT_TRUE(sameBytes(After, naiveProbe(*A, 16)));
  EXPECT_TRUE(sameBytes(After, probe(*B, 16)));
  EXPECT_FALSE(sameBytes(Before, After));
}

TEST(Serialize, RejectsArchitectureMismatch) {
  Rng R1(1), R2(2);
  auto A = buildModel(Arch::MiniVGG, 10, 16, R1);
  auto B = buildModel(Arch::MiniResNet, 10, 16, R2);
  const std::string Path = tempPath("oppsla_mismatch.bin");
  ASSERT_TRUE(saveModel(*A, Path));
  EXPECT_FALSE(loadModel(*B, Path));
  std::remove(Path.c_str());
}

TEST(Serialize, MissingFileFailsGracefully) {
  Rng R(1);
  auto A = buildModel(Arch::Mlp, 4, 8, R);
  EXPECT_FALSE(loadModel(*A, tempPath("oppsla_definitely_absent.bin")));
}

TEST(Serialize, RejectsTruncatedFile) {
  Rng R(1);
  auto A = buildModel(Arch::Mlp, 4, 8, R);
  const std::string Path = tempPath("oppsla_truncated.bin");
  ASSERT_TRUE(saveModel(*A, Path));
  std::filesystem::resize_file(Path, 10);
  EXPECT_FALSE(loadModel(*A, Path));
  std::remove(Path.c_str());
}

TEST(Training, LearnsSeparableToyTask) {
  const Dataset Data = brightDark(8, 60);
  Rng MR(6);
  auto Net = buildModel(Arch::Mlp, 2, 8, MR);
  TrainConfig Config;
  Config.Epochs = 30;
  Config.Lr = 0.05f;
  Config.LabelSmoothing = 0.0f;
  Rng TR(7);
  const TrainResult Res = trainClassifier(*Net, Data, Config, TR);
  EXPECT_GT(Res.TrainAccuracy, 0.95f);
  EXPECT_LT(Res.FinalLoss, 0.4f);
  EXPECT_GT(evalAccuracy(*Net, Data), 0.95f);
}

TEST(Training, FastForwardsBetweenEpochsMatchNaive) {
  // evalAccuracy's fast forwards pack the weights and fold the BatchNorm
  // statistics of the first epoch; the second epoch moves both, so the
  // fast logits must follow it.
  const Dataset Data = brightDark(8, 16);
  Rng MR(8);
  auto Net = buildModel(Arch::MiniVGG, 2, 8, MR);
  TrainConfig Config;
  Config.Epochs = 1;
  Config.BatchSize = 8;
  Rng TR(9);
  trainClassifier(*Net, Data, Config, TR);
  evalAccuracy(*Net, Data);
  const Tensor FirstEpoch = probe(*Net, 8);
  trainClassifier(*Net, Data, Config, TR);
  const Tensor Fast = probe(*Net, 8);
  EXPECT_TRUE(sameBytes(Fast, naiveProbe(*Net, 8)));
  EXPECT_FALSE(sameBytes(FirstEpoch, Fast)) << "the second epoch moved nothing";
}

TEST(Training, VictimSpecCacheStemIsDescriptive) {
  VictimSpec Spec;
  Spec.Task = TaskKind::CifarLike;
  Spec.Architecture = Arch::MiniResNet;
  Spec.Seed = 9;
  Spec.TrainImagesPerClass = 42;
  Spec.NumClasses = 10;
  Spec.Train.Epochs = 3;
  const std::string Stem = Spec.cacheStem();
  EXPECT_NE(Stem.find("MiniResNet"), std::string::npos);
  EXPECT_NE(Stem.find("cifar-like"), std::string::npos);
  EXPECT_NE(Stem.find("s9"), std::string::npos);
  EXPECT_NE(Stem.find("n42"), std::string::npos);
}

TEST(Training, MakeVictimUsesDiskCache) {
  // Point the cache at a temp dir; second call must load, not retrain.
  const std::string Dir = tempPath("oppsla_victim_cache");
  std::filesystem::remove_all(Dir);
  ASSERT_EQ(setenv("OPPSLA_CACHE_DIR", Dir.c_str(), 1), 0);

  VictimSpec Spec;
  Spec.Task = TaskKind::CifarLike;
  Spec.Architecture = Arch::Mlp;
  Spec.Side = 16;
  Spec.NumClasses = 4;
  Spec.TrainImagesPerClass = 5;
  Spec.Train.Epochs = 1;

  auto First = makeVictim(Spec);
  ASSERT_NE(First, nullptr);
  auto Second = makeVictim(Spec);
  ASSERT_NE(Second, nullptr);

  // Identical behavior proves the cache was honored.
  const Image Probe = [] {
    Image Img(16, 16);
    for (float &V : Img.raw())
      V = 0.3f;
    return Img;
  }();
  const auto S1 = First->scores(Probe);
  const auto S2 = Second->scores(Probe);
  ASSERT_EQ(S1.size(), S2.size());
  for (size_t I = 0; I != S1.size(); ++I)
    EXPECT_EQ(S1[I], S2[I]);

  unsetenv("OPPSLA_CACHE_DIR");
  std::filesystem::remove_all(Dir);
}
