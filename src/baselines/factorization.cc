#include "baselines/factorization.h"

#include <vector>

#include "baselines/linalg.h"

namespace pristi::baselines {

namespace t = ::pristi::tensor;

void TrmfImputer::Fit(const data::ImputationTask&, Rng&) {}

Tensor TrmfImputer::FactorizeWindow(const Tensor& values, const Tensor& mask,
                                    const FactorizationOptions& options,
                                    Rng& rng) {
  int64_t n = values.dim(0), l = values.dim(1);
  int64_t r = options.rank;
  Tensor w = Tensor::Randn({n, r}, rng);
  w.ScaleInPlace(0.1f);
  Tensor f = Tensor::Randn({r, l}, rng);
  f.ScaleInPlace(0.1f);

  for (int64_t iter = 0; iter < options.iterations; ++iter) {
    // --- Update node factors w_i: (F M_i F^T + ridge I) w_i = F M_i x_i.
    for (int64_t node = 0; node < n; ++node) {
      std::vector<double> gram(static_cast<size_t>(r * r), 0.0);
      std::vector<double> rhs(static_cast<size_t>(r), 0.0);
      for (int64_t step = 0; step < l; ++step) {
        if (mask.at({node, step}) < 0.5f) continue;
        double x = values.at({node, step});
        for (int64_t a = 0; a < r; ++a) {
          double fa = f.at({a, step});
          rhs[static_cast<size_t>(a)] += fa * x;
          for (int64_t b = 0; b < r; ++b) {
            gram[static_cast<size_t>(a * r + b)] += fa * f.at({b, step});
          }
        }
      }
      for (int64_t a = 0; a < r; ++a) {
        gram[static_cast<size_t>(a * r + a)] += options.ridge;
      }
      std::vector<double> sol = SolveSpd(std::move(gram), std::move(rhs), r);
      for (int64_t a = 0; a < r; ++a) {
        w.at({node, a}) = static_cast<float>(sol[static_cast<size_t>(a)]);
      }
    }
    // --- Update time factors f_t with the temporal coupling (Gauss-Seidel
    // sweep; neighbours enter through the AR penalty).
    for (int64_t step = 0; step < l; ++step) {
      int64_t neighbours =
          (step > 0 ? 1 : 0) + (step + 1 < l ? 1 : 0);
      std::vector<double> gram(static_cast<size_t>(r * r), 0.0);
      std::vector<double> rhs(static_cast<size_t>(r), 0.0);
      for (int64_t node = 0; node < n; ++node) {
        if (mask.at({node, step}) < 0.5f) continue;
        double x = values.at({node, step});
        for (int64_t a = 0; a < r; ++a) {
          double wa = w.at({node, a});
          rhs[static_cast<size_t>(a)] += wa * x;
          for (int64_t b = 0; b < r; ++b) {
            gram[static_cast<size_t>(a * r + b)] += wa * w.at({node, b});
          }
        }
      }
      for (int64_t a = 0; a < r; ++a) {
        gram[static_cast<size_t>(a * r + a)] +=
            options.ridge + options.temporal_reg * neighbours;
        if (step > 0) {
          rhs[static_cast<size_t>(a)] +=
              options.temporal_reg * f.at({a, step - 1});
        }
        if (step + 1 < l) {
          rhs[static_cast<size_t>(a)] +=
              options.temporal_reg * f.at({a, step + 1});
        }
      }
      std::vector<double> sol = SolveSpd(std::move(gram), std::move(rhs), r);
      for (int64_t a = 0; a < r; ++a) {
        f.at({a, step}) = static_cast<float>(sol[static_cast<size_t>(a)]);
      }
    }
  }
  return t::MatMul(w, f);
}

Tensor TrmfImputer::Impute(const data::Sample& sample, Rng& rng) {
  Tensor reconstruction =
      FactorizeWindow(sample.values, sample.observed, options_, rng);
  Tensor out = sample.values;
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (sample.observed[i] < 0.5f) out[i] = reconstruction[i];
  }
  return out;
}

// ---------------------------------------------------------------------------
// BATF-lite
// ---------------------------------------------------------------------------

void BatfImputer::Fit(const data::ImputationTask&, Rng&) {}

Tensor BatfImputer::Impute(const data::Sample& sample, Rng& rng) {
  int64_t n = sample.values.dim(0), l = sample.values.dim(1);
  // Estimate global mean, node biases and time biases from observed entries
  // (two alternating passes suffice for this additive model).
  double mu = 0.0;
  int64_t count = 0;
  for (int64_t i = 0; i < sample.values.numel(); ++i) {
    if (sample.observed[i] > 0.5f) {
      mu += sample.values[i];
      ++count;
    }
  }
  mu = count > 0 ? mu / count : 0.0;
  std::vector<double> node_bias(static_cast<size_t>(n), 0.0);
  std::vector<double> time_bias(static_cast<size_t>(l), 0.0);
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t node = 0; node < n; ++node) {
      double sum = 0.0;
      int64_t c = 0;
      for (int64_t step = 0; step < l; ++step) {
        if (sample.observed.at({node, step}) > 0.5f) {
          sum += sample.values.at({node, step}) - mu -
                 time_bias[static_cast<size_t>(step)];
          ++c;
        }
      }
      node_bias[static_cast<size_t>(node)] = c > 0 ? sum / c : 0.0;
    }
    for (int64_t step = 0; step < l; ++step) {
      double sum = 0.0;
      int64_t c = 0;
      for (int64_t node = 0; node < n; ++node) {
        if (sample.observed.at({node, step}) > 0.5f) {
          sum += sample.values.at({node, step}) - mu -
                 node_bias[static_cast<size_t>(node)];
          ++c;
        }
      }
      time_bias[static_cast<size_t>(step)] = c > 0 ? sum / c : 0.0;
    }
  }
  // Low-rank residual factorization.
  Tensor residual = sample.values;
  for (int64_t node = 0; node < n; ++node) {
    for (int64_t step = 0; step < l; ++step) {
      residual.at({node, step}) -= static_cast<float>(
          mu + node_bias[static_cast<size_t>(node)] +
          time_bias[static_cast<size_t>(step)]);
    }
  }
  Tensor low_rank =
      TrmfImputer::FactorizeWindow(residual, sample.observed, options_, rng);
  Tensor out = sample.values;
  for (int64_t node = 0; node < n; ++node) {
    for (int64_t step = 0; step < l; ++step) {
      if (sample.observed.at({node, step}) < 0.5f) {
        out.at({node, step}) = static_cast<float>(
            mu + node_bias[static_cast<size_t>(node)] +
            time_bias[static_cast<size_t>(step)] +
            low_rank.at({node, step}));
      }
    }
  }
  return out;
}

}  // namespace pristi::baselines
