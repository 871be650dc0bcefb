#ifndef PRISTI_BASELINES_IMPUTER_H_
#define PRISTI_BASELINES_IMPUTER_H_

// Common interface for every imputation method in the benchmark suite
// (Table III): statistics, classic ML, matrix factorization, RNN-based deep
// models and (via the eval-layer adapter) the diffusion models.

#include <string>
#include <vector>

#include "common/rng.h"
#include "data/windows.h"
#include "diffusion/ddpm.h"
#include "tensor/tensor.h"

namespace pristi::baselines {

using tensor::Tensor;

class Imputer {
 public:
  virtual ~Imputer() = default;

  virtual std::string name() const = 0;

  // Fits on the task's training range. Only `model_observed_mask` entries
  // are visible; withheld (eval) entries must never be read.
  virtual void Fit(const data::ImputationTask& task, Rng& rng) = 0;

  // Deterministic imputation of one normalized window: returns (N, L) with
  // an estimate at every entry (observed entries may be passed through).
  virtual Tensor Impute(const data::Sample& sample, Rng& rng) = 0;

  // Probabilistic imputation: `num_samples` draws of the window and their
  // per-entry median, computed once by whoever drew them. The default wraps
  // the deterministic output (a point mass, whose median is the point),
  // which is the correct degenerate distribution for deterministic methods
  // when computing CRPS.
  virtual diffusion::ImputationResult ImputeSamples(const data::Sample& sample,
                                                    int64_t num_samples,
                                                    Rng& rng) {
    diffusion::ImputationResult out;
    out.median = Impute(sample, rng);
    out.samples.assign(static_cast<size_t>(num_samples), out.median);
    return out;
  }
};

}  // namespace pristi::baselines

#endif  // PRISTI_BASELINES_IMPUTER_H_
