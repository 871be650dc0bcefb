#ifndef PRISTI_METRICS_METRICS_H_
#define PRISTI_METRICS_METRICS_H_

// Evaluation metrics from Section IV-C: masked MAE / MSE / RMSE for
// deterministic imputation, and CRPS (Eq. 10-12) for probabilistic
// imputation, computed from empirical samples at the paper's discretized
// quantile levels (0.05 steps).

#include <vector>

#include "tensor/tensor.h"

namespace pristi::metrics {

using tensor::Tensor;

// Streaming accumulator over (prediction, truth, mask) windows so a whole
// test split aggregates into one number, weighted by entry count.
class ErrorAccumulator {
 public:
  void Add(const Tensor& prediction, const Tensor& truth, const Tensor& mask);

  double Mae() const;
  double Mse() const;
  double Rmse() const;
  int64_t count() const { return count_; }

 private:
  double abs_sum_ = 0.0;
  double sq_sum_ = 0.0;
  int64_t count_ = 0;
};

// CRPS of a single scalar against an empirical sample set, via the
// discretized quantile-loss sum of Eq. 11 (quantile levels 0.05..0.95).
double CrpsFromSamples(std::vector<float> samples, float truth);

// Accumulates CRPS over masked entries of whole windows (Eq. 12): the mean
// of per-entry CRPS values.
class CrpsAccumulator {
 public:
  // `samples` are generated imputations of one window, each same-shaped as
  // `truth`; only `mask` entries contribute.
  void Add(const std::vector<Tensor>& samples, const Tensor& truth,
           const Tensor& mask);

  // Plain mean of per-entry CRPS (Eq. 12 read literally).
  double Crps() const;
  // CRPS normalized by the mean magnitude of the targets — the convention
  // of CSDI's published implementation, and the scale at which the paper's
  // Table IV numbers (e.g. ~0.10 on AQI-36 where MAE ~ 9) are reported.
  double NormalizedCrps() const;
  int64_t count() const { return count_; }

 private:
  double crps_sum_ = 0.0;
  double abs_truth_sum_ = 0.0;
  int64_t count_ = 0;
};

}  // namespace pristi::metrics

#endif  // PRISTI_METRICS_METRICS_H_
