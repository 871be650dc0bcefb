#ifndef PRISTI_DATA_WINDOWS_H_
#define PRISTI_DATA_WINDOWS_H_

// Window extraction, per-node standardization, train/val/test splitting,
// linear interpolation (the paper's Interpolate(.) primitive), and the
// ImputationTask bundle that the models and benches consume.

#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/missing.h"

namespace pristi::data {

// One model-facing sample, node-major: (N, L).
struct Sample {
  Tensor values;    // (N, L) ground truth (normalized if the task says so)
  Tensor observed;  // (N, L) 1 = visible to the model
  Tensor eval;      // (N, L) 1 = withheld entries to score
  int64_t start = 0;  // start step in the source series
};

// Per-node affine standardization fitted on observed training entries only
// (fitting on test data or on withheld entries would leak).
class Normalizer {
 public:
  // values/mask: (T, N); [train_begin, train_end) marks the fit range.
  static Normalizer Fit(const Tensor& values, const Tensor& mask,
                        int64_t train_begin, int64_t train_end);

  // In: (N, L) or (T, N) selected by `node_major`.
  Tensor Apply(const Tensor& values, bool node_major) const;
  Tensor Invert(const Tensor& values, bool node_major) const;

  double mean(int64_t node) const { return means_[static_cast<size_t>(node)]; }
  double stddev(int64_t node) const { return stds_[static_cast<size_t>(node)]; }

 private:
  std::vector<double> means_;
  std::vector<double> stds_;
};

// Linear interpolation along time for each node; the paper's coarse
// conditional information X(cal). Missing runs are interpolated between the
// nearest observed neighbours, edges extend flat, fully-missing rows get 0.
// values/mask: (N, L).
Tensor LinearInterpolate(const Tensor& values, const Tensor& mask);

// A fully prepared experiment: normalized series, masks, split boundaries,
// window samples per split.
struct ImputationTask {
  SpatioTemporalDataset dataset;
  MissingPattern pattern = MissingPattern::kPoint;
  Tensor eval_mask;            // (T, N) withheld entries
  Tensor model_observed_mask;  // (T, N) observed AND NOT withheld
  Normalizer normalizer;
  int64_t window_len = 24;
  // Stride between training-window starts (val/test use non-overlapping
  // windows so each withheld entry is scored once).
  int64_t train_stride = 24;
  // Split boundaries in time steps: [0, train_end) train,
  // [train_end, val_end) validation, [val_end, T) test.
  int64_t train_end = 0;
  int64_t val_end = 0;
};

struct TaskOptions {
  int64_t window_len = 24;
  double train_frac = 0.7;
  double val_frac = 0.1;
  // Stride between window starts when enumerating samples.
  int64_t stride = 0;  // 0 -> window_len (non-overlapping)
};

// kInvalidRequest unless MakeTask can split a `num_steps`-long series with
// `options`: a positive window and a training range longer than one window,
// with the validation range ending before the series does. Front ends call
// it before MakeTask, which CHECKs the same.
Status ValidateTaskOptions(const TaskOptions& options, int64_t num_steps);

// Injects `pattern`, fits the normalizer on the training range, and bundles
// everything for the harness.
ImputationTask MakeTask(SpatioTemporalDataset dataset, MissingPattern pattern,
                        const TaskOptions& options, Rng& rng);

// Enumerate normalized samples from a split ("train" | "val" | "test").
// Sample.values are normalized; Sample.observed excludes withheld entries;
// Sample.eval marks withheld entries inside the window.
std::vector<Sample> ExtractSamples(const ImputationTask& task,
                                   const std::string& split);

// A single (N, L) window starting at `start`, normalized per the task.
Sample ExtractWindow(const ImputationTask& task, int64_t start);

}  // namespace pristi::data

#endif  // PRISTI_DATA_WINDOWS_H_
