//===- nn/Optimizer.cpp - Gradient descent optimizers ----------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/Optimizer.h"

#include <cmath>

using namespace oppsla;

Optimizer::~Optimizer() = default;

Sgd::Sgd(std::vector<ParamRef> Params, float Lr, float Momentum,
         float WeightDecay)
    : Optimizer(std::move(Params)), Lr(Lr), Momentum(Momentum),
      WeightDecay(WeightDecay) {
  Velocity.reserve(this->Params.size());
  for (const ParamRef &P : this->Params)
    Velocity.emplace_back(P.Value->shape());
}

void Sgd::step() {
  bumpParamGeneration();
  for (size_t I = 0; I != Params.size(); ++I) {
    Tensor &W = *Params[I].Value;
    const Tensor &G = *Params[I].Grad;
    Tensor &Vel = Velocity[I];
    float *Wd = W.data();
    const float *Gd = G.data();
    float *Vd = Vel.data();
    for (size_t J = 0, E = W.numel(); J != E; ++J) {
      const float Grad = Gd[J] + WeightDecay * Wd[J];
      Vd[J] = Momentum * Vd[J] + Grad;
      Wd[J] -= Lr * Vd[J];
    }
  }
}

Adam::Adam(std::vector<ParamRef> Params, float Lr, float Beta1, float Beta2,
           float Eps, float WeightDecay)
    : Optimizer(std::move(Params)), Lr(Lr), Beta1(Beta1), Beta2(Beta2),
      Eps(Eps), WeightDecay(WeightDecay) {
  M.reserve(this->Params.size());
  V.reserve(this->Params.size());
  for (const ParamRef &P : this->Params) {
    M.emplace_back(P.Value->shape());
    V.emplace_back(P.Value->shape());
  }
}

void Adam::step() {
  bumpParamGeneration();
  ++T;
  const float Bc1 = 1.0f - std::pow(Beta1, static_cast<float>(T));
  const float Bc2 = 1.0f - std::pow(Beta2, static_cast<float>(T));
  for (size_t I = 0; I != Params.size(); ++I) {
    Tensor &W = *Params[I].Value;
    const Tensor &G = *Params[I].Grad;
    float *Wd = W.data();
    const float *Gd = G.data();
    float *Md = M[I].data();
    float *Vd = V[I].data();
    for (size_t J = 0, E = W.numel(); J != E; ++J) {
      const float Grad = Gd[J] + WeightDecay * Wd[J];
      Md[J] = Beta1 * Md[J] + (1.0f - Beta1) * Grad;
      Vd[J] = Beta2 * Vd[J] + (1.0f - Beta2) * Grad * Grad;
      const float MHat = Md[J] / Bc1;
      const float VHat = Vd[J] / Bc2;
      Wd[J] -= Lr * MHat / (std::sqrt(VHat) + Eps);
    }
  }
}
