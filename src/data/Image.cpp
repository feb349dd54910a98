//===- data/Image.cpp - RGB image value type ---------------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "data/Image.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace oppsla;

float Pixel::l1Distance(const Pixel &Other) const {
  return std::fabs(R - Other.R) + std::fabs(G - Other.G) +
         std::fabs(B - Other.B);
}

float Pixel::maxChannel() const { return std::max({R, G, B}); }

float Pixel::minChannel() const { return std::min({R, G, B}); }

void Image::clamp() {
  for (float &V : Data)
    V = std::clamp(V, 0.0f, 1.0f);
}

bool Image::sameBytes(const Image &Other) const {
  return H == Other.H && W == Other.W &&
         std::memcmp(Data.data(), Other.Data.data(),
                     Data.size() * sizeof(float)) == 0;
}

uint64_t Image::contentHash() const {
  // FNV-1a over the float bit patterns, with the dimensions folded in so
  // differently-shaped images of identical bytes hash apart. Byte-exact on
  // purpose: the hash seeds attack RNG streams, which must be bit-stable.
  constexpr uint64_t Prime = 0x100000001b3ULL;
  uint64_t Hash = 0xcbf29ce484222325ULL;
  auto Mix = [&](uint64_t V) {
    for (int Shift = 0; Shift != 64; Shift += 8) {
      Hash ^= (V >> Shift) & 0xffU;
      Hash *= Prime;
    }
  };
  Mix(H);
  Mix(W);
  for (float F : Data) {
    uint32_t Bits;
    std::memcpy(&Bits, &F, sizeof(Bits));
    Hash = (Hash ^ Bits) * Prime;
  }
  return Hash;
}

Tensor Image::toTensor() const {
  Tensor T({1, 3, H, W});
  writeToTensor(T);
  return T;
}

void Image::writeToTensor(Tensor &Out) const {
  assert(Out.rank() == 4 && Out.dim(0) == 1 && Out.dim(1) == 3 &&
         Out.dim(2) == H && Out.dim(3) == W && "tensor shape mismatch");
  float *Dst = Out.data();
  const size_t Plane = H * W;
  for (size_t I = 0; I != Plane; ++I) {
    Dst[I] = Data[I * 3 + 0];
    Dst[Plane + I] = Data[I * 3 + 1];
    Dst[2 * Plane + I] = Data[I * 3 + 2];
  }
}

void Image::writeToTensorBatch(Tensor &Out, size_t Index) const {
  assert(Out.rank() == 4 && Index < Out.dim(0) && Out.dim(1) == 3 &&
         Out.dim(2) == H && Out.dim(3) == W && "tensor shape mismatch");
  const size_t Plane = H * W;
  float *Dst = Out.data() + Index * 3 * Plane;
  for (size_t I = 0; I != Plane; ++I) {
    Dst[I] = Data[I * 3 + 0];
    Dst[Plane + I] = Data[I * 3 + 1];
    Dst[2 * Plane + I] = Data[I * 3 + 2];
  }
}

Image Image::fromTensor(const Tensor &T) {
  [[maybe_unused]] size_t C;
  size_t H, W;
  const float *Src = T.data();
  if (T.rank() == 4) {
    assert(T.dim(0) == 1 && "fromTensor expects batch size 1");
    C = T.dim(1);
    H = T.dim(2);
    W = T.dim(3);
  } else {
    assert(T.rank() == 3 && "fromTensor expects rank 3 or 4");
    C = T.dim(0);
    H = T.dim(1);
    W = T.dim(2);
  }
  assert(C == 3 && "fromTensor expects 3 channels");
  Image Img(H, W);
  const size_t Plane = H * W;
  for (size_t I = 0; I != Plane; ++I) {
    Img.raw()[I * 3 + 0] = Src[I];
    Img.raw()[I * 3 + 1] = Src[Plane + I];
    Img.raw()[I * 3 + 2] = Src[2 * Plane + I];
  }
  return Img;
}

Dataset Dataset::filterByClass(size_t Label) const {
  Dataset Out;
  Out.NumClasses = NumClasses;
  for (size_t I = 0; I != Images.size(); ++I) {
    if (Labels[I] != Label)
      continue;
    Out.Images.push_back(Images[I]);
    Out.Labels.push_back(Labels[I]);
  }
  return Out;
}

void Dataset::append(const Dataset &Other) {
  assert((NumClasses == 0 || Other.NumClasses == 0 ||
          NumClasses == Other.NumClasses) &&
         "appending datasets with different class counts");
  if (NumClasses == 0)
    NumClasses = Other.NumClasses;
  Images.insert(Images.end(), Other.Images.begin(), Other.Images.end());
  Labels.insert(Labels.end(), Other.Labels.begin(), Other.Labels.end());
}
