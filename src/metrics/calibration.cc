#include "metrics/calibration.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pristi::metrics {

CalibrationAccumulator::CalibrationAccumulator(double level) : level_(level) {
  PRISTI_CHECK_GT(level, 0.0);
  PRISTI_CHECK_LT(level, 1.0);
}

namespace {

float EmpiricalQuantile(std::vector<float>& sorted_values, double q) {
  double pos = q * (static_cast<double>(sorted_values.size()) - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted_values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<float>(sorted_values[lo] * (1.0 - frac) +
                            sorted_values[hi] * frac);
}

}  // namespace

void CalibrationAccumulator::Add(const std::vector<Tensor>& samples,
                                 const Tensor& truth, const Tensor& mask) {
  PRISTI_CHECK(!samples.empty());
  PRISTI_CHECK(tensor::ShapesEqual(truth.shape(), mask.shape()));
  double lo_q = (1.0 - level_) / 2.0;
  double hi_q = 1.0 - lo_q;
  std::vector<float> entry(samples.size());
  for (int64_t i = 0; i < mask.numel(); ++i) {
    if (mask[i] < 0.5f) continue;
    for (size_t k = 0; k < samples.size(); ++k) entry[k] = samples[k][i];
    std::sort(entry.begin(), entry.end());
    float lo = EmpiricalQuantile(entry, lo_q);
    float hi = EmpiricalQuantile(entry, hi_q);
    if (truth[i] >= lo && truth[i] <= hi) ++covered_;
    width_sum_ += hi - lo;
    ++count_;
  }
}

CalibrationResult CalibrationAccumulator::Result() const {
  CalibrationResult result;
  result.count = count_;
  if (count_ > 0) {
    result.coverage = static_cast<double>(covered_) / count_;
    result.mean_width = width_sum_ / count_;
  }
  return result;
}

}  // namespace pristi::metrics
