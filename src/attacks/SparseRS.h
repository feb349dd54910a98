//===- attacks/SparseRS.h - Sparse-RS one pixel baseline --------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// From-scratch reimplementation of the one pixel case of Sparse-RS
/// (Croce et al., AAAI 2022), the paper's main baseline: random search
/// over (pixel location, RGB-cube corner) pairs that accepts a candidate
/// whenever it does not increase the untargeted margin, with an
/// alpha-schedule that shifts proposals from global location resampling
/// toward local color refinement as the budget is consumed.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_ATTACKS_SPARSERS_H
#define OPPSLA_ATTACKS_SPARSERS_H

#include "attacks/Attack.h"
#include "support/Rng.h"

namespace oppsla {

/// Tunables of the Sparse-RS one pixel attack.
struct SparseRSConfig {
  uint64_t Seed = 0x5125ULL;
  /// Nominal iteration horizon used by the proposal schedule (the actual
  /// stop is the caller's query budget).
  uint64_t ScheduleHorizon = 10000;
  /// Probability floor for proposing a brand new location.
  double MinLocationProb = 0.1;
};

/// One pixel Sparse-RS.
class SparseRS : public Attack {
public:
  explicit SparseRS(SparseRSConfig Config = SparseRSConfig())
      : Config(Config) {}

  std::string name() const override { return "Sparse-RS"; }

  std::unique_ptr<Attack> clone() const override {
    return std::make_unique<SparseRS>(Config);
  }

protected:
  uint64_t seed() const override { return Config.Seed; }

  AttackResult runAttack(Classifier &N, const Image &X, size_t TrueClass,
                         uint64_t QueryBudget, Rng &R) override;

private:
  SparseRSConfig Config;
};

} // namespace oppsla

#endif // OPPSLA_ATTACKS_SPARSERS_H
