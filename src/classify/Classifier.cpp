//===- classify/Classifier.cpp - Black-box classifier interface --------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classify/Classifier.h"

#include <algorithm>
#include <cassert>

using namespace oppsla;

Classifier::~Classifier() = default;

std::vector<std::vector<float>> Classifier::scoresBatch(
    std::span<const Image> Imgs) {
  std::vector<std::vector<float>> Out;
  Out.reserve(Imgs.size());
  for (const Image &Img : Imgs)
    Out.push_back(scores(Img));
  return Out;
}

size_t Classifier::predict(const Image &Img) {
  return argmaxScore(scores(Img));
}

size_t oppsla::argmaxScore(const std::vector<float> &Scores) {
  assert(!Scores.empty() && "argmax of empty score vector");
  size_t Best = 0;
  for (size_t I = 1; I != Scores.size(); ++I)
    if (Scores[I] > Scores[Best])
      Best = I;
  return Best;
}

double oppsla::untargetedMargin(const std::vector<float> &Scores,
                                size_t TrueClass) {
  assert(TrueClass < Scores.size() && "true class out of range");
  double BestOther = -1.0;
  for (size_t I = 0; I != Scores.size(); ++I) {
    if (I == TrueClass)
      continue;
    BestOther = std::max(BestOther, static_cast<double>(Scores[I]));
  }
  return static_cast<double>(Scores[TrueClass]) - BestOther;
}

std::vector<std::unique_ptr<Classifier>>
oppsla::workerClones(const Classifier &C, size_t Workers) {
  std::vector<std::unique_ptr<Classifier>> Clones;
  for (size_t Slot = 1; Slot < Workers; ++Slot) {
    std::unique_ptr<Classifier> Clone = C.clone();
    if (!Clone)
      return {};
    Clones.push_back(std::move(Clone));
  }
  return Clones;
}
