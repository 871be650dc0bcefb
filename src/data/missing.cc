#include "data/missing.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/logging.h"

namespace pristi::data {

const char* MissingPatternName(MissingPattern pattern) {
  switch (pattern) {
    case MissingPattern::kPoint:
      return "point";
    case MissingPattern::kBlock:
      return "block";
    case MissingPattern::kSimulatedFailure:
      return "simulated_failure";
  }
  return "unknown";
}

bool ParseMissingPattern(const std::string& name, MissingPattern* out) {
  if (name == "point") {
    *out = MissingPattern::kPoint;
    return true;
  }
  if (name == "block") {
    *out = MissingPattern::kBlock;
    return true;
  }
  if (name == "failure" || name == "simulated_failure") {
    *out = MissingPattern::kSimulatedFailure;
    return true;
  }
  return false;
}

Tensor InjectPointMissing(const Tensor& observed_mask, double rate,
                          Rng& rng) {
  PRISTI_CHECK_GE(rate, 0.0);
  PRISTI_CHECK_LE(rate, 1.0);
  Tensor eval_mask = Tensor::Zeros(observed_mask.shape());
  for (int64_t i = 0; i < observed_mask.numel(); ++i) {
    if (observed_mask[i] > 0.5f && rng.Bernoulli(rate)) eval_mask[i] = 1.0f;
  }
  return eval_mask;
}

Tensor InjectBlockMissing(const Tensor& observed_mask,
                          const BlockMissingOptions& options, Rng& rng) {
  PRISTI_CHECK_EQ(observed_mask.ndim(), 2);
  int64_t t_steps = observed_mask.dim(0);
  int64_t n = observed_mask.dim(1);
  Tensor eval_mask = InjectPointMissing(observed_mask, options.point_rate,
                                        rng);
  for (int64_t node = 0; node < n; ++node) {
    for (int64_t t = 0; t < t_steps; ++t) {
      if (!rng.Bernoulli(options.block_prob)) continue;
      int64_t len = rng.UniformInt(options.min_len, options.max_len);
      for (int64_t s = t; s < std::min(t + len, t_steps); ++s) {
        if (observed_mask.at({s, node}) > 0.5f) {
          eval_mask.at({s, node}) = 1.0f;
        }
      }
      t += len;  // do not immediately restart inside the same outage
    }
  }
  return eval_mask;
}

Tensor InjectSimulatedFailure(const Tensor& observed_mask, double rate,
                              Rng& rng, const Tensor* distances) {
  PRISTI_CHECK_EQ(observed_mask.ndim(), 2);
  int64_t t_steps = observed_mask.dim(0);
  int64_t n = observed_mask.dim(1);
  int64_t observed_total = 0;
  for (int64_t i = 0; i < observed_mask.numel(); ++i) {
    observed_total += observed_mask[i] > 0.5f ? 1 : 0;
  }
  int64_t target = static_cast<int64_t>(observed_total * rate);
  Tensor eval_mask = Tensor::Zeros(observed_mask.shape());
  int64_t current = 0;
  // Two-thirds of the failure mass as sensor outages, the rest as points —
  // mirrors the structured missing distribution of real AQI feeds.
  int64_t block_target = target * 2 / 3;
  int64_t guard = 0;
  while (current < block_target && guard++ < 100000) {
    int64_t center = rng.UniformInt(0, n - 1);
    // Regional outage: the center plus its nearest neighbours fail together
    // when geography is available (real geo-sensory missing is spatially
    // correlated); otherwise a single sensor fails.
    std::vector<int64_t> failed = {center};
    if (distances != nullptr) {
      int64_t cluster = rng.UniformInt(0, std::max<int64_t>(n / 4, 1));
      std::vector<std::pair<float, int64_t>> by_distance;
      for (int64_t other = 0; other < n; ++other) {
        if (other == center) continue;
        by_distance.emplace_back(distances->at({center, other}), other);
      }
      std::sort(by_distance.begin(), by_distance.end());
      for (int64_t i = 0; i < cluster &&
                          i < static_cast<int64_t>(by_distance.size());
           ++i) {
        failed.push_back(by_distance[static_cast<size_t>(i)].second);
      }
    }
    int64_t len = rng.UniformInt(6, 48);
    int64_t start = rng.UniformInt(0, std::max<int64_t>(t_steps - len, 0));
    for (int64_t node : failed) {
      for (int64_t t = start; t < std::min(start + len, t_steps); ++t) {
        if (observed_mask.at({t, node}) > 0.5f &&
            eval_mask.at({t, node}) < 0.5f) {
          eval_mask.at({t, node}) = 1.0f;
          ++current;
        }
      }
    }
  }
  double point_prob = static_cast<double>(target - current) /
                      std::max<int64_t>(observed_total - current, 1);
  if (point_prob > 0) {
    for (int64_t i = 0; i < observed_mask.numel(); ++i) {
      if (observed_mask[i] > 0.5f && eval_mask[i] < 0.5f &&
          rng.Bernoulli(point_prob)) {
        eval_mask[i] = 1.0f;
      }
    }
  }
  return eval_mask;
}

Tensor InjectSensorFailure(const Tensor& observed_mask,
                           const std::vector<int64_t>& nodes) {
  PRISTI_CHECK_EQ(observed_mask.ndim(), 2);
  int64_t t_steps = observed_mask.dim(0);
  int64_t n = observed_mask.dim(1);
  Tensor eval_mask = Tensor::Zeros(observed_mask.shape());
  for (int64_t node : nodes) {
    PRISTI_CHECK_GE(node, 0);
    PRISTI_CHECK_LT(node, n);
    for (int64_t t = 0; t < t_steps; ++t) {
      if (observed_mask.at({t, node}) > 0.5f) {
        eval_mask.at({t, node}) = 1.0f;
      }
    }
  }
  return eval_mask;
}

Tensor InjectValueDependentMissing(const Tensor& values,
                                   const Tensor& observed_mask, double rate,
                                   double severity, Rng& rng) {
  PRISTI_CHECK(tensor::ShapesEqual(values.shape(), observed_mask.shape()));
  PRISTI_CHECK_EQ(values.ndim(), 2);
  int64_t t_steps = values.dim(0), n = values.dim(1);
  // Standardize per node over observed entries.
  std::vector<double> mean(static_cast<size_t>(n), 0.0),
      stddev(static_cast<size_t>(n), 1.0);
  for (int64_t node = 0; node < n; ++node) {
    double sum = 0.0;
    int64_t count = 0;
    for (int64_t t = 0; t < t_steps; ++t) {
      if (observed_mask.at({t, node}) > 0.5f) {
        sum += values.at({t, node});
        ++count;
      }
    }
    if (count == 0) continue;
    double mu = sum / count;
    double var = 0.0;
    for (int64_t t = 0; t < t_steps; ++t) {
      if (observed_mask.at({t, node}) > 0.5f) {
        double d = values.at({t, node}) - mu;
        var += d * d;
      }
    }
    mean[static_cast<size_t>(node)] = mu;
    stddev[static_cast<size_t>(node)] =
        std::sqrt(std::max(var / count, 1e-8));
  }
  // Unnormalized weights exp(severity * z), then scale so the expected
  // withheld fraction hits `rate`.
  double weight_sum = 0.0;
  int64_t observed_total = 0;
  Tensor weights(values.shape());
  for (int64_t t = 0; t < t_steps; ++t) {
    for (int64_t node = 0; node < n; ++node) {
      if (observed_mask.at({t, node}) < 0.5f) continue;
      double z = (values.at({t, node}) - mean[static_cast<size_t>(node)]) /
                 stddev[static_cast<size_t>(node)];
      double w = std::exp(severity * z);
      weights.at({t, node}) = static_cast<float>(w);
      weight_sum += w;
      ++observed_total;
    }
  }
  double scale = rate * observed_total / std::max(weight_sum, 1e-12);
  Tensor eval_mask = Tensor::Zeros(values.shape());
  for (int64_t t = 0; t < t_steps; ++t) {
    for (int64_t node = 0; node < n; ++node) {
      if (observed_mask.at({t, node}) < 0.5f) continue;
      double p = std::min(0.95, scale * weights.at({t, node}));
      if (rng.Bernoulli(p)) eval_mask.at({t, node}) = 1.0f;
    }
  }
  return eval_mask;
}

Tensor InjectPattern(const Tensor& observed_mask, MissingPattern pattern,
                     Rng& rng, const Tensor* distances) {
  switch (pattern) {
    case MissingPattern::kPoint:
      return InjectPointMissing(observed_mask, 0.25, rng);
    case MissingPattern::kBlock:
      return InjectBlockMissing(observed_mask, BlockMissingOptions{}, rng);
    case MissingPattern::kSimulatedFailure:
      return InjectSimulatedFailure(observed_mask, 0.246, rng, distances);
  }
  PRISTI_LOG_FATAL << "unknown missing pattern";
  return Tensor();
}

namespace {

// Point strategy: mask m% of observed entries, m ~ U[0, 1].
Tensor PointStrategyMask(const Tensor& window_observed, Rng& rng) {
  double m = rng.Uniform(0.0, 1.0);
  Tensor target = Tensor::Zeros(window_observed.shape());
  for (int64_t i = 0; i < window_observed.numel(); ++i) {
    if (window_observed[i] > 0.5f && rng.Bernoulli(m)) target[i] = 1.0f;
  }
  return target;
}

// Block strategy: per node, a sequence of length [L/2, L] with probability
// up to 15%, plus 5% of observed entries as points.
Tensor BlockStrategyMask(const Tensor& window_observed, Rng& rng) {
  int64_t n = window_observed.dim(0);
  int64_t l = window_observed.dim(1);
  Tensor target = Tensor::Zeros(window_observed.shape());
  double node_prob = rng.Uniform(0.0, 0.15);
  for (int64_t node = 0; node < n; ++node) {
    if (!rng.Bernoulli(node_prob)) continue;
    int64_t len = rng.UniformInt(l / 2, l);
    int64_t start = rng.UniformInt(0, std::max<int64_t>(l - len, 0));
    for (int64_t t = start; t < std::min(start + len, l); ++t) {
      if (window_observed.at({node, t}) > 0.5f) {
        target.at({node, t}) = 1.0f;
      }
    }
  }
  for (int64_t i = 0; i < window_observed.numel(); ++i) {
    if (window_observed[i] > 0.5f && rng.Bernoulli(0.05)) target[i] = 1.0f;
  }
  return target;
}

// Historical strategy: another sample's missing entries become targets.
Tensor HistoricalStrategyMask(const Tensor& window_observed,
                              const Tensor& historical_pattern) {
  PRISTI_CHECK(tensor::ShapesEqual(window_observed.shape(),
                            historical_pattern.shape()));
  Tensor target = Tensor::Zeros(window_observed.shape());
  for (int64_t i = 0; i < window_observed.numel(); ++i) {
    if (window_observed[i] > 0.5f && historical_pattern[i] < 0.5f) {
      target[i] = 1.0f;
    }
  }
  return target;
}

}  // namespace

MaskStrategy TrainingMaskStrategy(MissingPattern pattern) {
  switch (pattern) {
    case MissingPattern::kPoint:
      return MaskStrategy::kPoint;
    case MissingPattern::kBlock:
      return MaskStrategy::kHybrid;
    case MissingPattern::kSimulatedFailure:
      return MaskStrategy::kHybridHistorical;
  }
  PRISTI_LOG_FATAL << "unknown missing pattern";
  return MaskStrategy::kPoint;
}

Tensor ApplyMaskStrategy(const Tensor& window_observed, MaskStrategy strategy,
                         Rng& rng, const Tensor* historical_pattern) {
  PRISTI_CHECK_EQ(window_observed.ndim(), 2) << "expected (N, L) window mask";
  switch (strategy) {
    case MaskStrategy::kPoint:
      return PointStrategyMask(window_observed, rng);
    case MaskStrategy::kBlock:
      return BlockStrategyMask(window_observed, rng);
    case MaskStrategy::kHybrid:
      return rng.Bernoulli(0.5) ? PointStrategyMask(window_observed, rng)
                                : BlockStrategyMask(window_observed, rng);
    case MaskStrategy::kHybridHistorical:
      if (rng.Bernoulli(0.5)) return PointStrategyMask(window_observed, rng);
      if (historical_pattern != nullptr) {
        return HistoricalStrategyMask(window_observed, *historical_pattern);
      }
      return BlockStrategyMask(window_observed, rng);
  }
  PRISTI_LOG_FATAL << "unknown mask strategy";
  return Tensor();
}

Tensor MaskMinus(const Tensor& a, const Tensor& b) {
  PRISTI_CHECK(tensor::ShapesEqual(a.shape(), b.shape()));
  Tensor out(a.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    out[i] = (a[i] > 0.5f && b[i] < 0.5f) ? 1.0f : 0.0f;
  }
  return out;
}

double MaskRate(const Tensor& mask) {
  if (mask.numel() == 0) return 0.0;
  int64_t ones = 0;
  for (int64_t i = 0; i < mask.numel(); ++i) ones += mask[i] > 0.5f ? 1 : 0;
  return static_cast<double>(ones) / mask.numel();
}

double MaskOverlap(const Tensor& a, const Tensor& b) {
  PRISTI_CHECK(tensor::ShapesEqual(a.shape(), b.shape()));
  int64_t a_ones = 0, both = 0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (a[i] > 0.5f) {
      ++a_ones;
      if (b[i] > 0.5f) ++both;
    }
  }
  return a_ones == 0 ? 0.0 : static_cast<double>(both) / a_ones;
}

}  // namespace pristi::data
