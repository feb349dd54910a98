//===- nn/Optimizer.h - Gradient descent optimizers ------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_OPTIMIZER_H
#define OPPSLA_NN_OPTIMIZER_H

#include "nn/Layer.h"

namespace oppsla {

/// Abstract optimizer over a fixed parameter list.
class Optimizer {
public:
  explicit Optimizer(std::vector<ParamRef> Params)
      : Params(std::move(Params)) {}
  virtual ~Optimizer();

  /// Applies one update using the accumulated gradients. Every step moves
  /// the parameter generation (nn/Layer.h): it writes through the ParamRefs
  /// handed out when the optimizer was built.
  virtual void step() = 0;

  /// Clears all gradients.
  void zeroGrad() { zeroGrads(Params); }

  const std::vector<ParamRef> &params() const { return Params; }

protected:
  std::vector<ParamRef> Params;
};

/// SGD with classical momentum and decoupled weight decay.
class Sgd : public Optimizer {
public:
  Sgd(std::vector<ParamRef> Params, float Lr, float Momentum = 0.9f,
      float WeightDecay = 0.0f);

  void step() override;
  void setLr(float NewLr) { Lr = NewLr; }
  float lr() const { return Lr; }

private:
  float Lr, Momentum, WeightDecay;
  std::vector<Tensor> Velocity;
};

/// Adam with bias correction.
class Adam : public Optimizer {
public:
  Adam(std::vector<ParamRef> Params, float Lr, float Beta1 = 0.9f,
       float Beta2 = 0.999f, float Eps = 1e-8f, float WeightDecay = 0.0f);

  void step() override;
  void setLr(float NewLr) { Lr = NewLr; }
  float lr() const { return Lr; }

private:
  float Lr, Beta1, Beta2, Eps, WeightDecay;
  size_t T = 0;
  std::vector<Tensor> M, V;
};

} // namespace oppsla

#endif // OPPSLA_NN_OPTIMIZER_H
