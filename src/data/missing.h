#ifndef PRISTI_DATA_MISSING_H_
#define PRISTI_DATA_MISSING_H_

// Evaluation missing-pattern injectors (paper Section IV-D, Fig. 4) and
// training-time mask strategies (Section III-A / IV-D).
//
// Conventions: masks are 1 = present. Given a dataset's `observed_mask`
// (T, N), an injector returns an `eval_mask` (T, N) marking the entries that
// are withheld from the model and later scored — always a subset of the
// observed entries, exactly as the paper evaluates "only on the manually
// masked parts".

#include <string>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace pristi::data {

using tensor::Tensor;

enum class MissingPattern {
  kPoint,             // randomly mask 25% of observations
  kBlock,             // 5% random + per-sensor outages of 1-4 h w.p. 0.15%
  kSimulatedFailure,  // AQI-style structured failures (~24.6% of observed)
};

const char* MissingPatternName(MissingPattern pattern);
// Parses "point" | "block" | "failure" (or "simulated_failure", the name
// MissingPatternName returns); returns false, leaving *out untouched, on
// unknown names.
bool ParseMissingPattern(const std::string& name, MissingPattern* out);

struct BlockMissingOptions {
  double point_rate = 0.05;     // "randomly masking 5% of the observed data"
  double block_prob = 0.0015;   // per sensor, per step: start an outage
  int64_t min_len = 12;         // 1 hour at 5-min sampling
  int64_t max_len = 48;         // 4 hours
};

// ---- Evaluation injectors --------------------------------------------------
// Each returns eval_mask (1 = withheld & scored), a subset of observed_mask.
Tensor InjectPointMissing(const Tensor& observed_mask, double rate, Rng& rng);
Tensor InjectBlockMissing(const Tensor& observed_mask,
                          const BlockMissingOptions& options, Rng& rng);
// Mimics AQI-36's simulated-failure protocol (from ST-MVL): long outages
// plus scattered points, targeting `rate` of the observed entries (paper:
// 24.6%). Real geo-sensory failures are SPATIALLY CORRELATED — a regional
// outage takes down a station and its neighbours together — so when
// `distances` (N, N) is provided, each outage fails a geographic cluster of
// stations over the same interval.
Tensor InjectSimulatedFailure(const Tensor& observed_mask, double rate,
                              Rng& rng, const Tensor* distances = nullptr);
// Masks every observation of the listed sensors (the paper's RQ5 study).
Tensor InjectSensorFailure(const Tensor& observed_mask,
                           const std::vector<int64_t>& nodes);

// MNAR (missing-not-at-random) injection, an extension beyond the paper's
// MCAR protocols: the withholding probability grows with the entry's value
// (standardized per node), modelling sensors that saturate or fail under
// extreme readings. `severity` = 0 reduces to point missing; ~1.5 strongly
// biases toward peaks. Targets `rate` of the observed entries overall.
Tensor InjectValueDependentMissing(const Tensor& values,
                                   const Tensor& observed_mask, double rate,
                                   double severity, Rng& rng);

// Dispatches on the enum with the paper's default parameters per pattern.
// `distances` enables clustered simulated failures (see above).
Tensor InjectPattern(const Tensor& observed_mask, MissingPattern pattern,
                     Rng& rng, const Tensor* distances = nullptr);

// ---- Training mask strategies ----------------------------------------------
// Operate on a single training window's observed mask, shaped (N, L), and
// return the training TARGET mask (entries to noise and reconstruct),
// a subset of the window's observed entries.

enum class MaskStrategy {
  kPoint,   // mask m% of observed, m ~ U[0, 100]
  kBlock,   // per-node sequences of length [L/2, L] w.p. <= 15%, + 5% points
  kHybrid,  // 50% point; else block
  kHybridHistorical,  // 50% point; else an historical pattern if provided
};

// The strategy a model is trained with for an evaluation pattern: point ->
// kPoint, block -> kHybrid, simulated failure -> kHybridHistorical.
MaskStrategy TrainingMaskStrategy(MissingPattern pattern);

// `historical_pattern`, when non-null, must be an (N, L) observed mask from
// another sample; its MISSING entries become this sample's targets (the
// paper's "historical missing pattern" option inside the hybrid strategy).
Tensor ApplyMaskStrategy(const Tensor& window_observed, MaskStrategy strategy,
                         Rng& rng, const Tensor* historical_pattern = nullptr);

// ---- Mask algebra -----------------------------------------------------------
// Elementwise a AND (NOT b): what remains observed after withholding b.
Tensor MaskMinus(const Tensor& a, const Tensor& b);
// Fraction of 1-entries.
double MaskRate(const Tensor& mask);
// Fraction of a's 1-entries also set in b.
double MaskOverlap(const Tensor& a, const Tensor& b);

}  // namespace pristi::data

#endif  // PRISTI_DATA_MISSING_H_
