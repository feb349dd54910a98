//===- attacks/SuOPA.h - Su et al. one pixel attack (DE) --------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// From-scratch reimplementation of Su et al.'s One Pixel Attack ("SuOPA"
/// in the paper): differential evolution over candidate solutions
/// (row, col, r, g, b) with real-valued colors anywhere in [0,1]^3 (not
/// just RGB-cube corners) and fitness = the true class's confidence.
/// The population is evaluated once per generation, so the minimum query
/// count equals the population size (400, as the paper notes).
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_ATTACKS_SUOPA_H
#define OPPSLA_ATTACKS_SUOPA_H

#include "attacks/Attack.h"
#include "support/Rng.h"

namespace oppsla {

/// Tunables of the differential evolution.
struct SuOPAConfig {
  uint64_t Seed = 0x50faULL;
  size_t PopulationSize = 400; ///< Su et al.'s default
  double F = 0.5;              ///< DE differential weight
  size_t MaxGenerations = 100; ///< stop even if budget remains
};

/// Su et al. (2017) one pixel attack.
class SuOPA : public Attack {
public:
  explicit SuOPA(SuOPAConfig Config = SuOPAConfig()) : Config(Config) {}

  std::string name() const override { return "SuOPA"; }

  std::unique_ptr<Attack> clone() const override {
    return std::make_unique<SuOPA>(Config);
  }

protected:
  uint64_t seed() const override { return Config.Seed; }

  AttackResult runAttack(Classifier &N, const Image &X, size_t TrueClass,
                         uint64_t QueryBudget, Rng &R) override;

private:
  SuOPAConfig Config;
};

} // namespace oppsla

#endif // OPPSLA_ATTACKS_SUOPA_H
