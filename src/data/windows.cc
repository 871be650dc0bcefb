#include "data/windows.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "common/logging.h"

namespace pristi::data {

Normalizer Normalizer::Fit(const Tensor& values, const Tensor& mask,
                           int64_t train_begin, int64_t train_end) {
  PRISTI_CHECK_EQ(values.ndim(), 2);
  PRISTI_CHECK(tensor::ShapesEqual(values.shape(), mask.shape()));
  PRISTI_CHECK_LE(train_end, values.dim(0));
  PRISTI_CHECK_LT(train_begin, train_end);
  int64_t n = values.dim(1);
  Normalizer norm;
  norm.means_.assign(static_cast<size_t>(n), 0.0);
  norm.stds_.assign(static_cast<size_t>(n), 1.0);
  for (int64_t node = 0; node < n; ++node) {
    double sum = 0.0;
    int64_t count = 0;
    for (int64_t t = train_begin; t < train_end; ++t) {
      if (mask.at({t, node}) > 0.5f) {
        sum += values.at({t, node});
        ++count;
      }
    }
    if (count == 0) continue;  // keep identity transform
    double mean = sum / count;
    double var = 0.0;
    for (int64_t t = train_begin; t < train_end; ++t) {
      if (mask.at({t, node}) > 0.5f) {
        double d = values.at({t, node}) - mean;
        var += d * d;
      }
    }
    var /= count;
    norm.means_[static_cast<size_t>(node)] = mean;
    norm.stds_[static_cast<size_t>(node)] = std::sqrt(std::max(var, 1e-8));
  }
  return norm;
}

namespace {

Tensor AffinePerNode(const Tensor& values, bool node_major,
                     const std::vector<double>& means,
                     const std::vector<double>& stds, bool invert) {
  PRISTI_CHECK_EQ(values.ndim(), 2);
  int64_t n = node_major ? values.dim(0) : values.dim(1);
  PRISTI_CHECK_EQ(static_cast<size_t>(n), means.size());
  Tensor out(values.shape());
  int64_t rows = values.dim(0), cols = values.dim(1);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      size_t node = static_cast<size_t>(node_major ? r : c);
      double v = values.at({r, c});
      double y = invert ? v * stds[node] + means[node]
                        : (v - means[node]) / stds[node];
      out.at({r, c}) = static_cast<float>(y);
    }
  }
  return out;
}

}  // namespace

Tensor Normalizer::Apply(const Tensor& values, bool node_major) const {
  return AffinePerNode(values, node_major, means_, stds_, /*invert=*/false);
}

Tensor Normalizer::Invert(const Tensor& values, bool node_major) const {
  return AffinePerNode(values, node_major, means_, stds_, /*invert=*/true);
}

Tensor LinearInterpolate(const Tensor& values, const Tensor& mask) {
  PRISTI_CHECK_EQ(values.ndim(), 2);
  PRISTI_CHECK(tensor::ShapesEqual(values.shape(), mask.shape()));
  int64_t n = values.dim(0), l = values.dim(1);
  Tensor out = values;
  for (int64_t node = 0; node < n; ++node) {
    // Collect observed indices for this node.
    std::vector<int64_t> obs;
    for (int64_t t = 0; t < l; ++t) {
      if (mask.at({node, t}) > 0.5f) obs.push_back(t);
    }
    if (obs.empty()) {
      for (int64_t t = 0; t < l; ++t) out.at({node, t}) = 0.0f;
      continue;
    }
    size_t next = 0;
    for (int64_t t = 0; t < l; ++t) {
      if (mask.at({node, t}) > 0.5f) {
        if (next < obs.size() && obs[next] == t) ++next;
        continue;
      }
      // prev observed index (or none), next observed index (or none)
      int64_t right = next < obs.size() ? obs[next] : -1;
      int64_t left = next > 0 ? obs[next - 1] : -1;
      float value;
      if (left < 0) {
        value = values.at({node, right});
      } else if (right < 0) {
        value = values.at({node, left});
      } else {
        float vl = values.at({node, left});
        float vr = values.at({node, right});
        float alpha = static_cast<float>(t - left) /
                      static_cast<float>(right - left);
        value = vl + alpha * (vr - vl);
      }
      out.at({node, t}) = value;
    }
  }
  return out;
}

namespace {

// The split points MakeTask cuts a `num_steps`-long series at.
int64_t TrainEnd(const TaskOptions& options, int64_t num_steps) {
  return static_cast<int64_t>(num_steps * options.train_frac);
}
int64_t ValEnd(const TaskOptions& options, int64_t num_steps) {
  return TrainEnd(options, num_steps) +
         static_cast<int64_t>(num_steps * options.val_frac);
}

}  // namespace

Status ValidateTaskOptions(const TaskOptions& options, int64_t num_steps) {
  if (options.window_len < 1) {
    return Status::Error(ErrorCode::kInvalidRequest,
                         "window_len must be >= 1, got " +
                             std::to_string(options.window_len));
  }
  const int64_t train_end = TrainEnd(options, num_steps);
  if (train_end <= options.window_len) {
    return Status::Error(
        ErrorCode::kInvalidRequest,
        "window_len=" + std::to_string(options.window_len) +
            " must be shorter than the " + std::to_string(train_end) +
            "-step training range of the " + std::to_string(num_steps) +
            "-step series");
  }
  if (ValEnd(options, num_steps) >= num_steps) {
    return Status::Error(ErrorCode::kInvalidRequest,
                         "train and validation ranges leave no test steps");
  }
  return Status::Ok();
}

ImputationTask MakeTask(SpatioTemporalDataset dataset, MissingPattern pattern,
                        const TaskOptions& options, Rng& rng) {
  ImputationTask task;
  task.pattern = pattern;
  task.window_len = options.window_len;
  task.train_stride =
      options.stride > 0 ? options.stride : options.window_len;
  task.eval_mask = InjectPattern(dataset.observed_mask, pattern, rng,
                                 &dataset.graph.distances);
  task.model_observed_mask = MaskMinus(dataset.observed_mask, task.eval_mask);
  int64_t t_steps = dataset.num_steps;
  task.train_end = TrainEnd(options, t_steps);
  task.val_end = ValEnd(options, t_steps);
  PRISTI_CHECK_GT(task.train_end, options.window_len);
  PRISTI_CHECK_LT(task.val_end, t_steps);
  task.normalizer = Normalizer::Fit(dataset.values, task.model_observed_mask,
                                    0, task.train_end);
  task.dataset = std::move(dataset);
  return task;
}

Sample ExtractWindow(const ImputationTask& task, int64_t start) {
  int64_t l = task.window_len;
  int64_t n = task.dataset.num_nodes;
  PRISTI_CHECK_GE(start, 0);
  PRISTI_CHECK_LE(start + l, task.dataset.num_steps);
  Sample sample;
  sample.start = start;
  sample.values = Tensor(tensor::Shape{n, l});
  sample.observed = Tensor(tensor::Shape{n, l});
  sample.eval = Tensor(tensor::Shape{n, l});
  for (int64_t node = 0; node < n; ++node) {
    for (int64_t t = 0; t < l; ++t) {
      sample.values.at({node, t}) = task.dataset.values.at({start + t, node});
      sample.observed.at({node, t}) =
          task.model_observed_mask.at({start + t, node});
      sample.eval.at({node, t}) = task.eval_mask.at({start + t, node});
    }
  }
  sample.values = task.normalizer.Apply(sample.values, /*node_major=*/true);
  return sample;
}

std::vector<Sample> ExtractSamples(const ImputationTask& task,
                                   const std::string& split) {
  int64_t begin = 0, end = 0;
  if (split == "train") {
    begin = 0;
    end = task.train_end;
  } else if (split == "val") {
    begin = task.train_end;
    end = task.val_end;
  } else if (split == "test") {
    begin = task.val_end;
    end = task.dataset.num_steps;
  } else {
    PRISTI_LOG_FATAL << "unknown split: " << split;
  }
  int64_t stride = split == "train" ? task.train_stride : task.window_len;
  std::vector<Sample> samples;
  for (int64_t start = begin; start + task.window_len <= end;
       start += stride) {
    samples.push_back(ExtractWindow(task, start));
  }
  return samples;
}

}  // namespace pristi::data
