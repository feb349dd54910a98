//===- attacks/Attack.cpp - Black-box attack interface -----------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "attacks/Attack.h"

#include "support/Metrics.h"
#include "support/Profiler.h"
#include "support/Trace.h"

using namespace oppsla;

Attack::~Attack() = default;

AttackResult Attack::attack(Classifier &N, const Image &X, size_t TrueClass,
                            uint64_t QueryBudget) {
  const int64_t ImageId = telemetry::traceImage();
  if (telemetry::traceEnabled())
    telemetry::traceEvent(
        "attack_begin",
        {{"attack", name()},
         {"image", ImageId},
         {"true_class", TrueClass},
         {"budget", QueryBudget == Unlimited
                        ? int64_t{-1}
                        : static_cast<int64_t>(QueryBudget)}});

  telemetry::ScopedTimer Timer;
  // Per-run RNG isolation: the stream depends only on the attack's
  // configured seed and the image itself, never on previous runs.
  Rng RunRng = Rng::forRun(seed(), X.contentHash());
  AttackResult R;
  {
    // The root profiler span for one attacked image, named after the
    // concrete attack (interned only when profiling is on).
    telemetry::ProfileScope Span(
        telemetry::profilingEnabled()
            ? telemetry::internProfileName("attack:" + name())
            : nullptr);
    R = runAttack(N, X, TrueClass, QueryBudget, RunRng);
  }
  const double Seconds = Timer.seconds();

  // Queries-per-attack is the paper's central metric; its distribution and
  // the wall-clock span are always recorded (registry updates are cheap).
  static telemetry::Histogram &QueriesHist = telemetry::histogram(
      "attack.queries", telemetry::exponentialBuckets(1.0, 2.0, 16));
  static telemetry::Histogram &SecondsHist = telemetry::histogram(
      "attack.seconds", telemetry::exponentialBuckets(1e-5, 4.0, 12));
  QueriesHist.observe(static_cast<double>(R.Queries));
  SecondsHist.observe(Seconds);
  const char *Outcome = R.AlreadyMisclassified ? "discarded"
                        : R.Success            ? "success"
                                               : "failure";
  telemetry::counter(std::string("attack.outcome.") + Outcome).inc();

  if (telemetry::traceEnabled())
    telemetry::traceEvent(
        "attack_end",
        {{"attack", name()},
         {"image", ImageId},
         {"outcome", Outcome},
         {"queries", R.Queries},
         {"duration_us", static_cast<uint64_t>(Seconds * 1e6)}});
  return R;
}
