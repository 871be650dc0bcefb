#include "baselines/regression.h"

#include "baselines/linalg.h"
#include "common/check.h"

namespace pristi::baselines {

namespace t = ::pristi::tensor;

namespace {

// The training range, normalized and completed by per-node linear
// interpolation, as a (T_train, N) matrix.
Tensor CompletedTrainingMatrix(const data::ImputationTask& task) {
  int64_t t_train = task.train_end;
  Tensor values = task.normalizer.Apply(
      t::SliceAxis(task.dataset.values, 0, 0, t_train), /*node_major=*/false);
  Tensor mask = t::SliceAxis(task.model_observed_mask, 0, 0, t_train);
  // LinearInterpolate expects node-major (N, L).
  Tensor filled = data::LinearInterpolate(t::TransposeLast2(values),
                                          t::TransposeLast2(mask));
  return t::TransposeLast2(filled);
}

}  // namespace

// ---------------------------------------------------------------------------
// VAR(1)
// ---------------------------------------------------------------------------

void VarImputer::Fit(const data::ImputationTask& task, Rng&) {
  Tensor train = CompletedTrainingMatrix(task);
  int64_t t_train = train.dim(0), n = train.dim(1);
  PRISTI_CHECK_GT(t_train, 2);
  // Rows: [x_t, 1] -> x_{t+1}.
  Tensor x(t::Shape{t_train - 1, n + 1});
  Tensor y(t::Shape{t_train - 1, n});
  for (int64_t step = 0; step + 1 < t_train; ++step) {
    for (int64_t node = 0; node < n; ++node) {
      x.at({step, node}) = train.at({step, node});
      y.at({step, node}) = train.at({step + 1, node});
    }
    x.at({step, n}) = 1.0f;
  }
  weights_ = RidgeFit(x, y, ridge_);
}

Tensor VarImputer::Impute(const data::Sample& sample, Rng&) {
  PRISTI_CHECK_GT(weights_.numel(), 0) << "Fit() must run first";
  int64_t n = sample.values.dim(0), l = sample.values.dim(1);
  // Start from the interpolation completion, then replace missing entries by
  // one-step predictions from the (partially imputed) previous step.
  Tensor filled = data::LinearInterpolate(sample.values, sample.observed);
  Tensor out = sample.values;
  for (int64_t step = 0; step < l; ++step) {
    for (int64_t node = 0; node < n; ++node) {
      if (sample.observed.at({node, step}) > 0.5f) continue;
      if (step == 0) {
        out.at({node, step}) = filled.at({node, step});
        continue;
      }
      double pred = weights_.at({n, node});  // intercept
      for (int64_t other = 0; other < n; ++other) {
        float prev = sample.observed.at({other, step - 1}) > 0.5f
                         ? sample.values.at({other, step - 1})
                         : out.at({other, step - 1});
        pred += weights_.at({other, node}) * prev;
      }
      out.at({node, step}) = static_cast<float>(pred);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// MICE
// ---------------------------------------------------------------------------

void MiceImputer::Fit(const data::ImputationTask& task, Rng&) {
  Tensor train = CompletedTrainingMatrix(task);
  int64_t t_train = train.dim(0), n = train.dim(1);
  weights_ = Tensor(t::Shape{n, n});
  intercepts_ = Tensor(t::Shape{n});
  // One ridge regression per node on all the others (+ intercept).
  for (int64_t node = 0; node < n; ++node) {
    Tensor x(t::Shape{t_train, n});  // others + intercept column at `node`
    Tensor y(t::Shape{t_train, 1});
    for (int64_t step = 0; step < t_train; ++step) {
      for (int64_t other = 0; other < n; ++other) {
        x.at({step, other}) =
            other == node ? 1.0f : train.at({step, other});
      }
      y.at({step, 0}) = train.at({step, node});
    }
    Tensor w = RidgeFit(x, y, ridge_);
    for (int64_t other = 0; other < n; ++other) {
      weights_.at({node, other}) = other == node ? 0.0f : w.at({other, 0});
    }
    intercepts_[node] = w.at({node, 0});
  }
}

Tensor MiceImputer::Impute(const data::Sample& sample, Rng&) {
  PRISTI_CHECK_GT(weights_.numel(), 0) << "Fit() must run first";
  int64_t n = sample.values.dim(0), l = sample.values.dim(1);
  Tensor current = data::LinearInterpolate(sample.values, sample.observed);
  for (int64_t round = 0; round < rounds_; ++round) {
    for (int64_t node = 0; node < n; ++node) {
      for (int64_t step = 0; step < l; ++step) {
        if (sample.observed.at({node, step}) > 0.5f) continue;
        double pred = intercepts_[node];
        for (int64_t other = 0; other < n; ++other) {
          pred += weights_.at({node, other}) * current.at({other, step});
        }
        current.at({node, step}) = static_cast<float>(pred);
      }
    }
  }
  return current;
}

}  // namespace pristi::baselines
