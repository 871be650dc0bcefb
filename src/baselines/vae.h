#ifndef PRISTI_BASELINES_VAE_H_
#define PRISTI_BASELINES_VAE_H_

// VAE-based probabilistic imputation baselines:
//   * VrinImputer  — VRIN-lite: a recurrent encoder produces a global latent
//     whose decoder reconstructs the window; imputation uncertainty comes
//     from latent sampling.
//   * GpVaeImputer — GP-VAE-lite: per-step latents with a temporal
//     smoothness prior (the stationary kernel of GP-VAE reduced to a random
//     walk penalty), decoded step-wise.
//
// Each Fit is one callback of ForEachTrainingBatch (window_batches.h), which
// owns the batch size, the extra input masking and the learning rate.

#include <memory>

#include "baselines/imputer.h"

namespace pristi::baselines {

struct VaeOptions {
  int64_t hidden = 32;
  int64_t latent = 8;
  int64_t epochs = 30;
};

class VrinImputer : public Imputer {
 public:
  VrinImputer(int64_t num_nodes, int64_t window_len, VaeOptions options,
              Rng& rng);
  std::string name() const override { return "V-RIN"; }
  void Fit(const data::ImputationTask& task, Rng& rng) override;
  Tensor Impute(const data::Sample& sample, Rng& rng) override;
  diffusion::ImputationResult ImputeSamples(const data::Sample& sample,
                                            int64_t num_samples,
                                            Rng& rng) override;

 private:
  struct Net;
  VaeOptions options_;
  std::shared_ptr<Net> net_;
};

class GpVaeImputer : public Imputer {
 public:
  GpVaeImputer(int64_t num_nodes, VaeOptions options, Rng& rng);
  std::string name() const override { return "GP-VAE"; }
  void Fit(const data::ImputationTask& task, Rng& rng) override;
  Tensor Impute(const data::Sample& sample, Rng& rng) override;
  diffusion::ImputationResult ImputeSamples(const data::Sample& sample,
                                            int64_t num_samples,
                                            Rng& rng) override;

 private:
  struct Net;
  VaeOptions options_;
  std::shared_ptr<Net> net_;
};

}  // namespace pristi::baselines

#endif  // PRISTI_BASELINES_VAE_H_
