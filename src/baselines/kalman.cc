#include "baselines/kalman.h"

#include <vector>

#include "common/check.h"

namespace pristi::baselines {

void KalmanImputer::Fit(const data::ImputationTask&, Rng&) {}

std::vector<float> KalmanImputer::SmoothSeries(
    const std::vector<float>& values, const std::vector<bool>& observed,
    double process_var, double obs_var) {
  size_t length = values.size();
  PRISTI_CHECK_EQ(length, observed.size());
  std::vector<double> mean_filt(length), var_filt(length);
  std::vector<double> mean_pred(length), var_pred(length);

  // Forward filter. Diffuse-ish prior around the first observation (or 0).
  double mean = 0.0;
  double var = 10.0;
  for (size_t step = 0; step < length; ++step) {
    // Predict (random walk).
    if (step > 0) var += process_var;
    mean_pred[step] = mean;
    var_pred[step] = var;
    // Update when observed.
    if (observed[step]) {
      double gain = var / (var + obs_var);
      mean += gain * (values[step] - mean);
      var *= (1.0 - gain);
    }
    mean_filt[step] = mean;
    var_filt[step] = var;
  }

  // RTS backward smoother.
  std::vector<float> smoothed(length);
  double mean_next = mean_filt[length - 1];
  smoothed[length - 1] = static_cast<float>(mean_next);
  for (size_t step = length - 1; step-- > 0;) {
    double gain = var_filt[step] / var_pred[step + 1];
    double mean_s =
        mean_filt[step] + gain * (mean_next - mean_pred[step + 1]);
    smoothed[step] = static_cast<float>(mean_s);
    mean_next = mean_s;
  }
  return smoothed;
}

Tensor KalmanImputer::Impute(const data::Sample& sample, Rng&) {
  int64_t n = sample.values.dim(0), l = sample.values.dim(1);
  Tensor out = sample.values;
  for (int64_t node = 0; node < n; ++node) {
    std::vector<float> series(static_cast<size_t>(l));
    std::vector<bool> observed(static_cast<size_t>(l));
    bool any = false;
    for (int64_t step = 0; step < l; ++step) {
      series[static_cast<size_t>(step)] = sample.values.at({node, step});
      observed[static_cast<size_t>(step)] =
          sample.observed.at({node, step}) > 0.5f;
      any = any || observed[static_cast<size_t>(step)];
    }
    if (!any) {
      for (int64_t step = 0; step < l; ++step) out.at({node, step}) = 0.0f;
      continue;
    }
    std::vector<float> smoothed =
        SmoothSeries(series, observed, process_var_, obs_var_);
    for (int64_t step = 0; step < l; ++step) {
      if (sample.observed.at({node, step}) < 0.5f) {
        out.at({node, step}) = smoothed[static_cast<size_t>(step)];
      }
    }
  }
  return out;
}

}  // namespace pristi::baselines
