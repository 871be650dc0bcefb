#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pristi::metrics {

void ErrorAccumulator::Add(const Tensor& prediction, const Tensor& truth,
                           const Tensor& mask) {
  PRISTI_CHECK(tensor::ShapesEqual(prediction.shape(), truth.shape()));
  PRISTI_CHECK(tensor::ShapesEqual(prediction.shape(), mask.shape()));
  for (int64_t i = 0; i < mask.numel(); ++i) {
    if (mask[i] < 0.5f) continue;
    double diff = static_cast<double>(prediction[i]) - truth[i];
    abs_sum_ += std::fabs(diff);
    sq_sum_ += diff * diff;
    ++count_;
  }
}

double ErrorAccumulator::Mae() const {
  return count_ > 0 ? abs_sum_ / count_ : 0.0;
}

double ErrorAccumulator::Mse() const {
  return count_ > 0 ? sq_sum_ / count_ : 0.0;
}

double ErrorAccumulator::Rmse() const { return std::sqrt(Mse()); }

double CrpsFromSamples(std::vector<float> samples, float truth) {
  PRISTI_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  auto quantile = [&](double level) {
    double pos = level * (static_cast<double>(samples.size()) - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
  };
  // Eq. 11: sum of 2 * quantile losses at levels 0.05, 0.10, ..., 0.95.
  double total = 0.0;
  for (int i = 1; i <= 19; ++i) {
    double alpha = 0.05 * i;
    double q = quantile(alpha);
    double indicator = truth < q ? 1.0 : 0.0;
    double loss = (alpha - indicator) * (truth - q);
    total += 2.0 * loss;
  }
  return total / 19.0;
}

void CrpsAccumulator::Add(const std::vector<Tensor>& samples,
                          const Tensor& truth, const Tensor& mask) {
  PRISTI_CHECK(!samples.empty());
  PRISTI_CHECK(tensor::ShapesEqual(truth.shape(), mask.shape()));
  for (const Tensor& s : samples) {
    PRISTI_CHECK(tensor::ShapesEqual(s.shape(), truth.shape()));
  }
  std::vector<float> entry(samples.size());
  for (int64_t i = 0; i < mask.numel(); ++i) {
    if (mask[i] < 0.5f) continue;
    for (size_t k = 0; k < samples.size(); ++k) entry[k] = samples[k][i];
    crps_sum_ += CrpsFromSamples(entry, truth[i]);
    abs_truth_sum_ += std::fabs(truth[i]);
    ++count_;
  }
}

double CrpsAccumulator::Crps() const {
  return count_ > 0 ? crps_sum_ / count_ : 0.0;
}

double CrpsAccumulator::NormalizedCrps() const {
  return abs_truth_sum_ > 0.0 ? crps_sum_ / abs_truth_sum_ : 0.0;
}

}  // namespace pristi::metrics
