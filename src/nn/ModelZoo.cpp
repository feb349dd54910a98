//===- nn/ModelZoo.cpp - Victim classifier architectures --------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/ModelZoo.h"

#include "nn/Activations.h"
#include "nn/BatchNorm2d.h"
#include "nn/Blocks.h"
#include "nn/Conv2d.h"
#include "nn/Linear.h"
#include "nn/Misc.h"
#include "nn/Pooling.h"
#include "support/Rng.h"

using namespace oppsla;

const char *oppsla::archName(Arch A) {
  switch (A) {
  case Arch::MiniVGG:
    return "MiniVGG";
  case Arch::MiniResNet:
    return "MiniResNet";
  case Arch::MiniGoogLeNet:
    return "MiniGoogLeNet";
  case Arch::MiniDenseNet:
    return "MiniDenseNet";
  case Arch::MiniResNet50:
    return "MiniResNet50";
  case Arch::Mlp:
    return "Mlp";
  }
  return "unknown";
}

Arch oppsla::archFromName(const std::string &Name) {
  if (Name == "MiniVGG" || Name == "vgg")
    return Arch::MiniVGG;
  if (Name == "MiniResNet" || Name == "resnet")
    return Arch::MiniResNet;
  if (Name == "MiniGoogLeNet" || Name == "googlenet")
    return Arch::MiniGoogLeNet;
  if (Name == "MiniDenseNet" || Name == "densenet")
    return Arch::MiniDenseNet;
  if (Name == "MiniResNet50" || Name == "resnet50")
    return Arch::MiniResNet50;
  return Arch::Mlp;
}

namespace {

/// Output side of a stride-2, kernel-3, pad-1 conv.
size_t convS2(size_t Side) { return (Side + 2 - 3) / 2 + 1; }
/// Output side of a window-2 pool.
size_t pool2(size_t Side) { return (Side - 2) / 2 + 1; }

std::unique_ptr<Sequential> buildMiniVGG(size_t NumClasses, size_t Side,
                                         Rng &R) {
  auto Net = std::make_unique<Sequential>();
  // VGG trait: homogeneous 3x3 conv-bn-relu stacks between downsamples,
  // finished by a fully connected classifier head. The first conv keeps
  // full resolution (like the original VGG) so a single pixel feeds nine
  // first-layer windows.
  Net->add(convBnRelu(3, 6, 3, 1, 1, R));
  size_t S = Side;
  Net->add(convBnRelu(6, 12, 3, 2, 1, R));
  S = convS2(S);
  Net->emplace<MaxPool2d>(2);
  S = pool2(S);
  Net->add(convBnRelu(12, 24, 3, 1, 1, R));
  Net->emplace<MaxPool2d>(2);
  S = pool2(S);
  Net->add(convBnRelu(24, 32, 3, 1, 1, R));
  Net->emplace<Flatten>();
  Net->emplace<Linear>(32 * S * S, NumClasses, R);
  return Net;
}

std::unique_ptr<Sequential> buildMiniResNet(size_t NumClasses, size_t Side,
                                            Rng &R) {
  auto Net = std::make_unique<Sequential>();
  Net->add(convBnRelu(3, 8, 3, 2, 1, R));
  size_t S = convS2(Side);
  Net->emplace<ResidualBlock>(8, 16, /*Stride=*/2, R);
  S = convS2(S);
  Net->emplace<ResidualBlock>(16, 24, /*Stride=*/2, R);
  S = convS2(S);
  Net->emplace<Flatten>();
  Net->emplace<Linear>(24 * S * S, NumClasses, R);
  return Net;
}

std::unique_ptr<Sequential> buildMiniGoogLeNet(size_t NumClasses, size_t Side,
                                               Rng &R) {
  auto Net = std::make_unique<Sequential>();
  Net->add(convBnRelu(3, 8, 3, 2, 1, R));
  size_t S = convS2(Side);
  Net->emplace<MaxPool2d>(2);
  S = pool2(S);
  Net->emplace<InceptionBlock>(8, /*C1x1=*/4, /*C3x3=*/8, /*C5x5=*/4, R);
  Net->emplace<InceptionBlock>(16, /*C1x1=*/8, /*C3x3=*/12, /*C5x5=*/4, R);
  Net->emplace<MaxPool2d>(2);
  S = pool2(S);
  Net->emplace<InceptionBlock>(24, /*C1x1=*/8, /*C3x3=*/16, /*C5x5=*/8, R);
  Net->emplace<Flatten>();
  Net->emplace<Linear>(32 * S * S, NumClasses, R);
  return Net;
}

std::unique_ptr<Sequential> buildMiniDenseNet(size_t NumClasses, size_t Side,
                                              Rng &R) {
  auto Net = std::make_unique<Sequential>();
  Net->add(convBnRelu(3, 8, 3, 2, 1, R));
  size_t S = convS2(Side);
  Net->emplace<MaxPool2d>(2);
  S = pool2(S);
  Net->emplace<DenseLayer>(8, /*Growth=*/8, R);  // -> 16 channels
  Net->emplace<DenseLayer>(16, /*Growth=*/8, R); // -> 24 channels
  Net->add(convBnRelu(24, 16, 1, 1, 0, R));      // transition
  Net->emplace<AvgPool2d>(2);
  S = pool2(S);
  Net->emplace<DenseLayer>(16, /*Growth=*/8, R); // -> 24 channels
  Net->emplace<Flatten>();
  Net->emplace<Linear>(24 * S * S, NumClasses, R);
  return Net;
}

std::unique_ptr<Sequential> buildMiniResNet50(size_t NumClasses, size_t Side,
                                              Rng &R) {
  auto Net = std::make_unique<Sequential>();
  Net->add(convBnRelu(3, 8, 3, 2, 1, R));
  size_t S = convS2(Side);
  Net->emplace<MaxPool2d>(2);
  S = pool2(S);
  Net->emplace<ResidualBlock>(8, 16, /*Stride=*/2, R);
  S = convS2(S);
  Net->emplace<ResidualBlock>(16, 16, /*Stride=*/1, R);
  Net->emplace<ResidualBlock>(16, 32, /*Stride=*/2, R);
  S = convS2(S);
  Net->emplace<Flatten>();
  Net->emplace<Linear>(32 * S * S, NumClasses, R);
  return Net;
}

std::unique_ptr<Sequential> buildMlp(size_t NumClasses, size_t Side,
                                     Rng &R) {
  auto Net = std::make_unique<Sequential>();
  Net->emplace<Flatten>();
  Net->emplace<Linear>(Side * Side * 3, 32, R);
  Net->emplace<ReLU>();
  Net->emplace<Linear>(32, NumClasses, R);
  return Net;
}

} // namespace

std::unique_ptr<Sequential> oppsla::buildModel(Arch A, size_t NumClasses,
                                               size_t InputSide, Rng &R) {
  assert(InputSide >= (A == Arch::MiniResNet50 ? 16u : 8u) &&
         "input side too small for the downsampling");
  switch (A) {
  case Arch::MiniVGG:
    return buildMiniVGG(NumClasses, InputSide, R);
  case Arch::MiniResNet:
    return buildMiniResNet(NumClasses, InputSide, R);
  case Arch::MiniGoogLeNet:
    return buildMiniGoogLeNet(NumClasses, InputSide, R);
  case Arch::MiniDenseNet:
    return buildMiniDenseNet(NumClasses, InputSide, R);
  case Arch::MiniResNet50:
    return buildMiniResNet50(NumClasses, InputSide, R);
  case Arch::Mlp:
    return buildMlp(NumClasses, InputSide, R);
  }
  return nullptr;
}
