//===- classify/NNClassifier.cpp - nn::Sequential adapter --------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classify/NNClassifier.h"

#include "support/Metrics.h"
#include "tensor/Gemm.h"
#include "tensor/TensorOps.h"

#include <cstring>
#include <numeric>

using namespace oppsla;

NNClassifier::NNClassifier(std::unique_ptr<Sequential> Model,
                           size_t NumClasses, std::string Name)
    : Model(std::move(Model)), Classes(NumClasses),
      ModelName(std::move(Name)) {
  assert(this->Model && "null model");
}

std::unique_ptr<Classifier> NNClassifier::clone() const {
  if (!Builder)
    return nullptr;
  std::unique_ptr<Sequential> Fresh = Builder();
  assert(Fresh && "model builder returned null");

  // parameters()/buffers() are non-const traversals and move the parameter
  // generation, but write nothing; the source stays logically untouched.
  Sequential &Src = *Model;
  const std::vector<ParamRef> SrcParams = Src.parameters();
  const std::vector<ParamRef> DstParams = Fresh->parameters();
  assert(SrcParams.size() == DstParams.size() &&
         "builder architecture mismatch");
  for (size_t I = 0; I != SrcParams.size(); ++I) {
    assert(SrcParams[I].Name == DstParams[I].Name &&
           "builder architecture mismatch");
    *DstParams[I].Value = *SrcParams[I].Value;
  }
  const auto SrcBufs = Src.buffers();
  const auto DstBufs = Fresh->buffers();
  assert(SrcBufs.size() == DstBufs.size() && "builder buffer mismatch");
  for (size_t I = 0; I != SrcBufs.size(); ++I) {
    assert(SrcBufs[I].first == DstBufs[I].first && "builder buffer mismatch");
    *DstBufs[I].second = *SrcBufs[I].second;
  }

  auto Out =
      std::make_unique<NNClassifier>(std::move(Fresh), Classes, ModelName);
  Out->setModelBuilder(Builder);
  return Out;
}

namespace {

telemetry::Counter &deltaImagesCounter() {
  static telemetry::Counter &C =
      telemetry::counter("nn.forward.delta_images");
  return C;
}

telemetry::Counter &fullImagesCounter() {
  static telemetry::Counter &C = telemetry::counter("nn.forward.full_images");
  return C;
}

/// Sorts Imgs[I] for I in \p Idx by their distance to \p Ref: an image of
/// Ref's shape with at most NNClassifier::MaxDeltaPixels pixels whose bytes
/// differ goes to \p Near, with the window bounding those pixels appended
/// to \p Windows; any other image goes to \p Far. Rows are compared whole
/// first; only a row that differs is compared pixel by pixel.
void partition(std::span<const Image> Imgs, std::span<const size_t> Idx,
               const Image &Ref, std::vector<size_t> &Near,
               std::vector<DeltaWindow> &Windows, std::vector<size_t> &Far) {
  for (size_t I : Idx) {
    const Image &Img = Imgs[I];
    bool Close = !Ref.empty() && Img.height() == Ref.height() &&
                 Img.width() == Ref.width();
    DeltaWindow Win;
    size_t Changed = 0;
    const size_t RowFloats = 3 * Img.width();
    for (size_t Row = 0; Close && Row != Img.height(); ++Row) {
      const float *A = Img.raw().data() + Row * RowFloats;
      const float *B = Ref.raw().data() + Row * RowFloats;
      if (std::memcmp(A, B, RowFloats * sizeof(float)) == 0)
        continue;
      for (size_t Col = 0; Close && Col != Img.width(); ++Col) {
        if (std::memcmp(A + 3 * Col, B + 3 * Col, 3 * sizeof(float)) == 0)
          continue;
        Close = ++Changed <= NNClassifier::MaxDeltaPixels;
        const long R = static_cast<long>(Row), C = static_cast<long>(Col);
        Win = Win.unite({R, R + 1, C, C + 1});
      }
    }
    if (Close) {
      Near.push_back(I);
      Windows.push_back(Win);
    } else {
      Far.push_back(I);
    }
  }
}

} // namespace

void NNClassifier::forwardSubset(std::span<const Image> Imgs,
                                 const std::vector<size_t> &Idx,
                                 DeltaPass *Pass,
                                 std::vector<std::vector<float>> &Out) {
  if (Idx.empty())
    return;
  const size_t N = Idx.size();
  const size_t H = Imgs[Idx[0]].height(), W = Imgs[Idx[0]].width();
  InputScratch.ensureShape({N, 3, H, W});
  for (size_t I = 0; I != N; ++I) {
    assert(Imgs[Idx[I]].height() == H && Imgs[Idx[I]].width() == W &&
           "mixed image shapes in one batch");
    Imgs[Idx[I]].writeToTensorBatch(InputScratch, I);
  }

  Tensor Logits = Pass ? Model->forwardDelta(InputScratch, *Pass, Tensor())
                       : Model->forward(InputScratch, /*Train=*/false);
  assert(Logits.numel() == N * Classes && "model output size mismatch");
  Tensor Probs = Logits.reshaped({N, Classes});
  softmaxInPlace(Probs);
  const float *Src = Probs.data();
  for (size_t I = 0; I != N; ++I)
    Out[Idx[I]].assign(Src + I * Classes, Src + (I + 1) * Classes);
}

std::vector<std::vector<float>> NNClassifier::scoresBatch(
    std::span<const Image> Imgs) {
  std::vector<std::vector<float>> Out(Imgs.size());
  std::vector<size_t> All(Imgs.size());
  std::iota(All.begin(), All.end(), size_t{0});
  if (kernels::naive()) {
    // The scalar reference path stays a plain full forward.
    forwardSubset(Imgs, All, nullptr, Out);
    fullImagesCounter().inc(All.size());
    return Out;
  }
  if (!Model->hasReference())
    Reference = Image(); // none captured yet, or the parameters moved since

  DeltaPass Near;
  std::vector<size_t> NearIdx, Far;
  partition(Imgs, All, Reference, NearIdx, Near.Windows, Far);
  forwardSubset(Imgs, NearIdx, &Near, Out);
  deltaImagesCounter().inc(NearIdx.size());
  if (Far.empty())
    return Out;

  // The first far image becomes the reference: it and the images still far
  // from it run one capturing full forward, the rest follow as deltas.
  Reference = Imgs[Far[0]];
  DeltaPass Next, Capture;
  std::vector<size_t> NextIdx, Full{Far[0]};
  partition(Imgs, std::span<const size_t>(Far).subspan(1), Reference,
            NextIdx, Next.Windows, Full);
  Capture.Capture = Capture.Saturated = true;
  Capture.Windows.resize(Full.size());
  forwardSubset(Imgs, Full, &Capture, Out);
  fullImagesCounter().inc(Full.size());
  forwardSubset(Imgs, NextIdx, &Next, Out);
  deltaImagesCounter().inc(NextIdx.size());
  return Out;
}

std::vector<float> NNClassifier::scores(const Image &Img) {
  return std::move(scoresBatch(std::span<const Image>(&Img, 1))[0]);
}
