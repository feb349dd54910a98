//===- tests/data/AugmentTest.cpp - Training-time augmentation ------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "data/Augment.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace oppsla;
using namespace oppsla::test;

TEST(Augment, FlipHorizontalMirrors) {
  Image Img(2, 3);
  Img.setPixel(0, 0, Pixel{1, 0, 0});
  Img.setPixel(0, 2, Pixel{0, 0, 1});
  const Image Out = flipHorizontal(Img);
  EXPECT_FLOAT_EQ(Out.pixel(0, 0).B, 1.0f);
  EXPECT_FLOAT_EQ(Out.pixel(0, 2).R, 1.0f);
  EXPECT_FLOAT_EQ(Out.pixel(0, 1).R, Img.pixel(0, 1).R);
}

TEST(Augment, DoubleFlipIsIdentity) {
  const Image Img = gradientImage(5, 7);
  const Image Twice = flipHorizontal(flipHorizontal(Img));
  EXPECT_EQ(Twice.raw(), Img.raw());
}

TEST(Augment, TranslateShiftsContent) {
  Image Img(3, 3);
  Img.setPixel(1, 1, Pixel{1, 1, 1});
  const Image Out = translate(Img, 1, 0);
  EXPECT_FLOAT_EQ(Out.pixel(2, 1).R, 1.0f);
  EXPECT_FLOAT_EQ(Out.pixel(1, 1).R, 0.0f);
}

TEST(Augment, TranslateClampsEdges) {
  Image Img(2, 2);
  Img.setPixel(0, 0, Pixel{1, 0, 0});
  Img.setPixel(0, 1, Pixel{0, 1, 0});
  Img.setPixel(1, 0, Pixel{0, 0, 1});
  Img.setPixel(1, 1, Pixel{1, 1, 1});
  // Shift down by 1: the vacated top row replicates the original top row.
  const Image Out = translate(Img, 1, 0);
  EXPECT_FLOAT_EQ(Out.pixel(0, 0).R, 1.0f);
  EXPECT_FLOAT_EQ(Out.pixel(1, 0).R, 1.0f);
}

TEST(Augment, ZeroTranslateIsIdentity) {
  const Image Img = gradientImage(4, 4);
  EXPECT_EQ(translate(Img, 0, 0).raw(), Img.raw());
}

TEST(Augment, CutoutZeroesAPatch) {
  Image Img(8, 8);
  for (float &V : Img.raw())
    V = 1.0f;
  Rng R(3);
  cutout(Img, 3, R);
  size_t Zeros = 0;
  for (float V : Img.raw())
    Zeros += V == 0.0f;
  EXPECT_GT(Zeros, 0u);
  EXPECT_LE(Zeros, 3u * 3u * 3u);
  EXPECT_EQ(Zeros % 3, 0u) << "whole pixels are zeroed";
}

TEST(Augment, FullPolicyKeepsRangeAndShape) {
  AugmentConfig Config;
  Config.CutoutPatch = 2;
  Rng R(5);
  const Image Img = gradientImage(8, 8);
  for (int I = 0; I != 50; ++I) {
    const Image Out = augment(Img, Config, R);
    ASSERT_EQ(Out.height(), 8u);
    ASSERT_EQ(Out.width(), 8u);
    for (float V : Out.raw()) {
      ASSERT_GE(V, 0.0f);
      ASSERT_LE(V, 1.0f);
    }
  }
}

TEST(Augment, DeterministicGivenRngState) {
  AugmentConfig Config;
  Rng R1(9), R2(9);
  const Image Img = gradientImage(6, 6);
  EXPECT_EQ(augment(Img, Config, R1).raw(), augment(Img, Config, R2).raw());
}
