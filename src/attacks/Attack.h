//===- attacks/Attack.h - Black-box attack interface ------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common interface for all one pixel attacks compared in the paper's
/// evaluation: OPPSLA's adversarial programs (SketchAttack), Sparse-RS
/// (query-minimizing random search) and SuOPA (Su et al.'s differential
/// evolution). Attacks are stateful only through their RNG; attack() may be
/// called repeatedly on different images.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_ATTACKS_ATTACK_H
#define OPPSLA_ATTACKS_ATTACK_H

#include "classify/Classifier.h"
#include "core/Pair.h"
#include "support/Rng.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

namespace oppsla {

/// Outcome of one attack on one image.
struct AttackResult {
  bool Success = false;
  /// Queries posed to the classifier (including any initial clean-image
  /// query the attack makes).
  uint64_t Queries = 0;
  /// Perturbed pixel location (valid when Success).
  PixelLoc Loc;
  /// Perturbation value written at Loc (valid when Success). Corner-based
  /// attacks always use an RGB-cube corner; SuOPA may use any value.
  Pixel Perturbation;
  /// The clean image was already misclassified; counted as neither success
  /// nor failure by the evaluation harness.
  bool AlreadyMisclassified = false;
};

/// Abstract black-box one pixel attack.
class Attack {
public:
  static constexpr uint64_t Unlimited =
      std::numeric_limits<uint64_t>::max();

  virtual ~Attack();

  /// Attacks \p X (true class \p TrueClass) against \p N with at most
  /// \p QueryBudget queries.
  ///
  /// Each call owns its randomness: a fresh Rng seeded with
  /// Rng::deriveRunSeed(seed(), X.contentHash()) is handed to runAttack(),
  /// so the outcome is a pure function of (attack seed, image) — rerunning
  /// the same attack object, reordering a sweep, or subsetting a test set
  /// never changes any image's result, and concurrent runs on one attack's
  /// clones are bit-identical to serial ones.
  ///
  /// Every run is a telemetry span: the queries-per-attack and attack-
  /// duration histograms are always recorded, and when the trace sink is
  /// open an attack_begin/attack_end event pair tagged with the attack
  /// name, ambient image id (telemetry::traceImage()), and outcome is
  /// emitted around the run.
  AttackResult attack(Classifier &N, const Image &X, size_t TrueClass,
                      uint64_t QueryBudget = Unlimited);

  /// Display name used in tables ("OPPSLA", "Sparse-RS", "SuOPA", ...).
  virtual std::string name() const = 0;

  /// An independent copy with identical configuration (and therefore
  /// identical per-run RNG streams). Parallel sweep workers clone the
  /// attack they were handed instead of sharing it across threads.
  virtual std::unique_ptr<Attack> clone() const = 0;

protected:
  /// The configured base seed of this attack's randomness; deterministic
  /// attacks keep the default. Mixed per run with the image content hash
  /// (see attack()).
  virtual uint64_t seed() const { return 0; }

  /// The attack implementation; always invoked through attack(), which
  /// supplies \p R freshly derived for this (seed, image) pair.
  virtual AttackResult runAttack(Classifier &N, const Image &X,
                                 size_t TrueClass, uint64_t QueryBudget,
                                 Rng &R) = 0;
};

} // namespace oppsla

#endif // OPPSLA_ATTACKS_ATTACK_H
