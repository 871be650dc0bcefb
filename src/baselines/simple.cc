#include "baselines/simple.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace pristi::baselines {

namespace {

// Per-node mean of normalized values over the training range; ~0 by
// construction of the normalizer but computed honestly (the normalizer is
// fitted on the same mask, so this guards against drift if that changes).
std::vector<float> TrainNodeMeans(const data::ImputationTask& task) {
  int64_t n = task.dataset.num_nodes;
  std::vector<double> sums(static_cast<size_t>(n), 0.0);
  std::vector<int64_t> counts(static_cast<size_t>(n), 0);
  Tensor normalized =
      task.normalizer.Apply(task.dataset.values, /*node_major=*/false);
  for (int64_t step = 0; step < task.train_end; ++step) {
    for (int64_t node = 0; node < n; ++node) {
      if (task.model_observed_mask.at({step, node}) > 0.5f) {
        sums[static_cast<size_t>(node)] += normalized.at({step, node});
        ++counts[static_cast<size_t>(node)];
      }
    }
  }
  std::vector<float> means(static_cast<size_t>(n), 0.0f);
  for (int64_t node = 0; node < n; ++node) {
    if (counts[static_cast<size_t>(node)] > 0) {
      means[static_cast<size_t>(node)] = static_cast<float>(
          sums[static_cast<size_t>(node)] / counts[static_cast<size_t>(node)]);
    }
  }
  return means;
}

// Copies observations through and fills the rest from `fill`.
Tensor FillMissing(const data::Sample& sample,
                   const std::function<float(int64_t, int64_t)>& fill) {
  Tensor out = sample.values;
  int64_t n = out.dim(0), l = out.dim(1);
  for (int64_t node = 0; node < n; ++node) {
    for (int64_t step = 0; step < l; ++step) {
      if (sample.observed.at({node, step}) < 0.5f) {
        out.at({node, step}) = fill(node, step);
      }
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// MEAN
// ---------------------------------------------------------------------------

void MeanImputer::Fit(const data::ImputationTask& task, Rng&) {
  node_means_ = TrainNodeMeans(task);
}

Tensor MeanImputer::Impute(const data::Sample& sample, Rng&) {
  PRISTI_CHECK(!node_means_.empty()) << "Fit() must run first";
  return FillMissing(sample, [&](int64_t node, int64_t) {
    return node_means_[static_cast<size_t>(node)];
  });
}

// ---------------------------------------------------------------------------
// DA
// ---------------------------------------------------------------------------

void DailyAverageImputer::Fit(const data::ImputationTask& task, Rng&) {
  steps_per_day_ = task.dataset.steps_per_day;
  int64_t n = task.dataset.num_nodes;
  node_means_ = TrainNodeMeans(task);
  Tensor sums = Tensor::Zeros({steps_per_day_, n});
  Tensor counts = Tensor::Zeros({steps_per_day_, n});
  Tensor normalized =
      task.normalizer.Apply(task.dataset.values, /*node_major=*/false);
  for (int64_t step = 0; step < task.train_end; ++step) {
    int64_t tod = step % steps_per_day_;
    for (int64_t node = 0; node < n; ++node) {
      if (task.model_observed_mask.at({step, node}) > 0.5f) {
        sums.at({tod, node}) += normalized.at({step, node});
        counts.at({tod, node}) += 1.0f;
      }
    }
  }
  profile_ = Tensor({steps_per_day_, n});
  for (int64_t tod = 0; tod < steps_per_day_; ++tod) {
    for (int64_t node = 0; node < n; ++node) {
      profile_.at({tod, node}) =
          counts.at({tod, node}) > 0.0f
              ? sums.at({tod, node}) / counts.at({tod, node})
              : node_means_[static_cast<size_t>(node)];
    }
  }
}

Tensor DailyAverageImputer::Impute(const data::Sample& sample, Rng&) {
  PRISTI_CHECK_GT(steps_per_day_, 0) << "Fit() must run first";
  return FillMissing(sample, [&](int64_t node, int64_t step) {
    int64_t tod = (sample.start + step) % steps_per_day_;
    return profile_.at({tod, node});
  });
}

// ---------------------------------------------------------------------------
// KNN
// ---------------------------------------------------------------------------

void KnnImputer::Fit(const data::ImputationTask& task, Rng&) {
  int64_t n = task.dataset.num_nodes;
  node_means_ = TrainNodeMeans(task);
  neighbours_.assign(static_cast<size_t>(n), {});
  const Tensor& adjacency = task.dataset.graph.adjacency;
  for (int64_t node = 0; node < n; ++node) {
    std::vector<std::pair<int64_t, float>> candidates;
    for (int64_t other = 0; other < n; ++other) {
      if (other == node) continue;
      float weight = adjacency.at({node, other});
      if (weight > 0.0f) candidates.emplace_back(other, weight);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    if (static_cast<int64_t>(candidates.size()) > k_) {
      candidates.resize(static_cast<size_t>(k_));
    }
    neighbours_[static_cast<size_t>(node)] = std::move(candidates);
  }
}

Tensor KnnImputer::Impute(const data::Sample& sample, Rng&) {
  PRISTI_CHECK(!neighbours_.empty()) << "Fit() must run first";
  return FillMissing(sample, [&](int64_t node, int64_t step) {
    double weighted = 0.0, weight_sum = 0.0;
    for (const auto& [other, weight] : neighbours_[static_cast<size_t>(node)]) {
      if (sample.observed.at({other, step}) > 0.5f) {
        weighted += weight * sample.values.at({other, step});
        weight_sum += weight;
      }
    }
    if (weight_sum <= 0.0) return node_means_[static_cast<size_t>(node)];
    return static_cast<float>(weighted / weight_sum);
  });
}

// ---------------------------------------------------------------------------
// Lin-ITP
// ---------------------------------------------------------------------------

void LinearInterpImputer::Fit(const data::ImputationTask&, Rng&) {}

Tensor LinearInterpImputer::Impute(const data::Sample& sample, Rng&) {
  return data::LinearInterpolate(sample.values, sample.observed);
}

}  // namespace pristi::baselines
