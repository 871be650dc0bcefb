#ifndef PRISTI_BASELINES_RNN_H_
#define PRISTI_BASELINES_RNN_H_

// Deep autoregressive baselines:
//   * BritsImputer — bidirectional recurrent imputation (BRITS-like): a GRU
//     per direction predicts each step's values from history, missing inputs
//     are replaced by the model's own predictions, and the two directions
//     are averaged.
//   * GrinImputer  — graph recurrent imputation (GRIN-like): node-wise GRUs
//     with spatial message passing on inputs and hidden states, giving the
//     model the geographic inductive bias (and the ability to reconstruct
//     fully unobserved sensors, paper RQ5).
//   * RgainImputer — rGAIN-lite: the bidirectional recurrent generator
//     trained with an additional per-entry adversarial discriminator.
//
// Each Fit is one callback of ForEachTrainingBatch (window_batches.h), which
// owns the batch size, the extra input masking and the learning rate.

#include <memory>

#include "baselines/imputer.h"

namespace pristi::baselines {

struct RecurrentOptions {
  int64_t hidden = 32;
  int64_t epochs = 25;
};

class BritsImputer : public Imputer {
 public:
  BritsImputer(int64_t num_nodes, RecurrentOptions options, Rng& rng);
  std::string name() const override { return "BRITS"; }
  void Fit(const data::ImputationTask& task, Rng& rng) override;
  Tensor Impute(const data::Sample& sample, Rng& rng) override;

 private:
  struct Net;
  RecurrentOptions options_;
  std::shared_ptr<Net> net_;
};

// GRIN-like: node-wise recurrence with spatial message passing.
class GrinImputer : public Imputer {
 public:
  GrinImputer(int64_t num_nodes, const Tensor& adjacency,
              RecurrentOptions options, Rng& rng);
  std::string name() const override { return "GRIN"; }
  void Fit(const data::ImputationTask& task, Rng& rng) override;
  Tensor Impute(const data::Sample& sample, Rng& rng) override;

 private:
  struct Net;
  RecurrentOptions options_;
  std::shared_ptr<Net> net_;
};

// rGAIN-lite: BRITS-style generator + per-entry discriminator.
class RgainImputer : public Imputer {
 public:
  RgainImputer(int64_t num_nodes, RecurrentOptions options, Rng& rng);
  std::string name() const override { return "rGAIN"; }
  void Fit(const data::ImputationTask& task, Rng& rng) override;
  Tensor Impute(const data::Sample& sample, Rng& rng) override;

 private:
  struct Net;
  RecurrentOptions options_;
  std::shared_ptr<Net> net_;
};

}  // namespace pristi::baselines

#endif  // PRISTI_BASELINES_RNN_H_
