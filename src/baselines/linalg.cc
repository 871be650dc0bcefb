#include "baselines/linalg.h"

#include <cmath>

#include "common/check.h"

namespace pristi::baselines {

std::vector<double> SolveSpd(std::vector<double> a, std::vector<double> b,
                             int64_t n) {
  PRISTI_CHECK_EQ(static_cast<int64_t>(a.size()), n * n);
  PRISTI_CHECK_EQ(static_cast<int64_t>(b.size()), n);
  // In-place Cholesky: A = L L^T (lower triangle of `a` becomes L).
  for (int64_t j = 0; j < n; ++j) {
    double diag = a[static_cast<size_t>(j * n + j)];
    for (int64_t k = 0; k < j; ++k) {
      double v = a[static_cast<size_t>(j * n + k)];
      diag -= v * v;
    }
    PRISTI_CHECK_GT(diag, 0.0) << "matrix not positive definite at pivot " << j;
    double ljj = std::sqrt(diag);
    a[static_cast<size_t>(j * n + j)] = ljj;
    for (int64_t i = j + 1; i < n; ++i) {
      double sum = a[static_cast<size_t>(i * n + j)];
      for (int64_t k = 0; k < j; ++k) {
        sum -= a[static_cast<size_t>(i * n + k)] *
               a[static_cast<size_t>(j * n + k)];
      }
      a[static_cast<size_t>(i * n + j)] = sum / ljj;
    }
  }
  // Forward solve L y = b.
  for (int64_t i = 0; i < n; ++i) {
    double sum = b[static_cast<size_t>(i)];
    for (int64_t k = 0; k < i; ++k) {
      sum -= a[static_cast<size_t>(i * n + k)] * b[static_cast<size_t>(k)];
    }
    b[static_cast<size_t>(i)] = sum / a[static_cast<size_t>(i * n + i)];
  }
  // Backward solve L^T x = y.
  for (int64_t i = n; i-- > 0;) {
    double sum = b[static_cast<size_t>(i)];
    for (int64_t k = i + 1; k < n; ++k) {
      sum -= a[static_cast<size_t>(k * n + i)] * b[static_cast<size_t>(k)];
    }
    b[static_cast<size_t>(i)] = sum / a[static_cast<size_t>(i * n + i)];
  }
  return b;
}

Tensor RidgeFit(const Tensor& x, const Tensor& y, double lambda) {
  PRISTI_CHECK_EQ(x.ndim(), 2);
  PRISTI_CHECK_EQ(y.ndim(), 2);
  int64_t rows = x.dim(0), features = x.dim(1), targets = y.dim(1);
  PRISTI_CHECK_EQ(rows, y.dim(0));
  PRISTI_CHECK_GT(rows, 0);
  // Gram matrix X^T X + lambda I (double precision accumulate).
  std::vector<double> gram(static_cast<size_t>(features * features), 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x.data() + r * features;
    for (int64_t i = 0; i < features; ++i) {
      double xi = row[i];
      if (xi == 0.0) continue;
      for (int64_t j = 0; j < features; ++j) {
        gram[static_cast<size_t>(i * features + j)] += xi * row[j];
      }
    }
  }
  for (int64_t i = 0; i < features; ++i) {
    gram[static_cast<size_t>(i * features + i)] += lambda;
  }
  Tensor w(tensor::Shape{features, targets});
  for (int64_t target = 0; target < targets; ++target) {
    std::vector<double> rhs(static_cast<size_t>(features), 0.0);
    for (int64_t r = 0; r < rows; ++r) {
      double yv = y.at({r, target});
      if (yv == 0.0) continue;
      const float* row = x.data() + r * features;
      for (int64_t i = 0; i < features; ++i) {
        rhs[static_cast<size_t>(i)] += row[i] * yv;
      }
    }
    std::vector<double> solution = SolveSpd(gram, std::move(rhs), features);
    for (int64_t i = 0; i < features; ++i) {
      w.at({i, target}) = static_cast<float>(solution[static_cast<size_t>(i)]);
    }
  }
  return w;
}

}  // namespace pristi::baselines
