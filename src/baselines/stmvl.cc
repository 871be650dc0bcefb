#include "baselines/stmvl.h"

#include <cmath>

#include "baselines/linalg.h"
#include "common/check.h"

namespace pristi::baselines {

namespace t = ::pristi::tensor;

void StmvlImputer::Fit(const data::ImputationTask& task, Rng&) {
  // Inverse-distance spatial weights.
  int64_t n = task.dataset.num_nodes;
  inv_dist_ = Tensor({n, n});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (i == j) continue;
      double d = task.dataset.graph.distances.at({i, j});
      inv_dist_.at({i, j}) =
          static_cast<float>(1.0 / std::pow(std::max(d, 1e-3), idw_power_));
    }
  }
  // Fit blend weights on training windows: predict observed entries from
  // the views computed with that entry held out.
  std::vector<float> rows_x;
  std::vector<float> rows_y;
  int64_t count = 0;
  Rng unused(0);
  for (const data::Sample& sample : data::ExtractSamples(task, "train")) {
    int64_t len = sample.values.dim(1);
    for (int64_t node = 0; node < n && count < 4000; ++node) {
      for (int64_t step = 0; step < len && count < 4000; ++step) {
        if (sample.observed.at({node, step}) < 0.5f) continue;
        data::Sample holdout = sample;
        holdout.observed.at({node, step}) = 0.0f;
        float idw = 0, ses = 0;
        if (!ViewFeatures(holdout, inv_dist_, node, step, &idw, &ses)) {
          continue;
        }
        rows_x.push_back(idw);
        rows_x.push_back(ses);
        rows_x.push_back(1.0f);
        rows_y.push_back(sample.values.at({node, step}));
        ++count;
      }
    }
  }
  PRISTI_CHECK_GT(count, 10) << "not enough training entries for ST-MVL";
  Tensor x({count, 3}, std::move(rows_x));
  Tensor y({count, 1}, std::move(rows_y));
  weights_ = RidgeFit(x, y, 1e-3);
}

bool StmvlImputer::ViewFeatures(const data::Sample& sample,
                                const Tensor& inv_dist, int64_t node,
                                int64_t step, float* idw, float* ses) const {
  int64_t n = sample.values.dim(0), len = sample.values.dim(1);
  // IDW view: spatial neighbours at the same step.
  double idw_num = 0, idw_den = 0;
  for (int64_t other = 0; other < n; ++other) {
    if (other == node || sample.observed.at({other, step}) < 0.5f) continue;
    double w = inv_dist.at({node, other});
    idw_num += w * sample.values.at({other, step});
    idw_den += w;
  }
  // SES view: exponentially decayed nearby observations of the same node,
  // looking both directions in time.
  double ses_num = 0, ses_den = 0;
  for (int64_t other = 0; other < len; ++other) {
    if (other == step || sample.observed.at({node, other}) < 0.5f) continue;
    double w = std::pow(ses_decay_, std::llabs(other - step));
    ses_num += w * sample.values.at({node, other});
    ses_den += w;
  }
  if (idw_den <= 0 && ses_den <= 0) return false;
  // Fall back to the other view (or 0) when one view has no support.
  *idw = idw_den > 0 ? static_cast<float>(idw_num / idw_den)
                     : (ses_den > 0 ? static_cast<float>(ses_num / ses_den)
                                    : 0.0f);
  *ses = ses_den > 0 ? static_cast<float>(ses_num / ses_den) : *idw;
  return true;
}

Tensor StmvlImputer::Impute(const data::Sample& sample, Rng&) {
  PRISTI_CHECK_GT(weights_.numel(), 0) << "Fit() must run first";
  Tensor out = sample.values;
  int64_t n = out.dim(0), len = out.dim(1);
  for (int64_t node = 0; node < n; ++node) {
    for (int64_t step = 0; step < len; ++step) {
      if (sample.observed.at({node, step}) > 0.5f) continue;
      float idw = 0, ses = 0;
      if (!ViewFeatures(sample, inv_dist_, node, step, &idw, &ses)) {
        out.at({node, step}) = 0.0f;  // node mean in normalized space
        continue;
      }
      out.at({node, step}) = weights_.at({0, 0}) * idw +
                             weights_.at({1, 0}) * ses + weights_.at({2, 0});
    }
  }
  return out;
}

}  // namespace pristi::baselines
