#include "baselines/window_batches.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace pristi::baselines {

using tensor::Tensor;

namespace {

constexpr size_t kBatchSize = 8;
constexpr double kExtraMaskRate = 0.25;

// Stacks per-sample (N, L) windows into (B, N, L).
Tensor StackWindows(const std::vector<const data::Sample*>& samples,
                    bool values) {
  int64_t b = static_cast<int64_t>(samples.size());
  int64_t n = samples[0]->values.dim(0), l = samples[0]->values.dim(1);
  Tensor out({b, n, l});
  for (int64_t i = 0; i < b; ++i) {
    const Tensor& src = values ? samples[i]->values : samples[i]->observed;
    std::copy(src.data(), src.data() + n * l, out.data() + i * n * l);
  }
  return out;
}

// Randomly hides `rate` of the 1-entries of `mask`.
Tensor DropFromMask(const Tensor& mask, double rate, Rng& rng) {
  Tensor out = mask;
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (out[i] > 0.5f && rng.Bernoulli(rate)) out[i] = 0.0f;
  }
  return out;
}

}  // namespace

void ForEachTrainingBatch(
    const data::ImputationTask& task, int64_t epochs, Rng& rng,
    const std::function<void(const WindowBatch&)>& step) {
  std::vector<data::Sample> samples = data::ExtractSamples(task, "train");
  PRISTI_CHECK(!samples.empty());
  for (int64_t epoch = 0; epoch < epochs; ++epoch) {
    std::vector<int64_t> order =
        rng.Permutation(static_cast<int64_t>(samples.size()));
    for (size_t begin = 0; begin < order.size(); begin += kBatchSize) {
      size_t end = std::min(order.size(), begin + kBatchSize);
      std::vector<const data::Sample*> windows;
      for (size_t i = begin; i < end; ++i) {
        windows.push_back(&samples[static_cast<size_t>(order[i])]);
      }
      WindowBatch batch;
      batch.values = StackWindows(windows, /*values=*/true);
      batch.observed = StackWindows(windows, /*values=*/false);
      batch.input_mask = DropFromMask(batch.observed, kExtraMaskRate, rng);
      step(batch);
    }
  }
}

WindowBatch SingleWindow(const data::Sample& sample) {
  WindowBatch batch;
  batch.values = StackWindows({&sample}, /*values=*/true);
  batch.observed = StackWindows({&sample}, /*values=*/false);
  batch.input_mask = batch.observed;
  return batch;
}

Tensor MergeObserved(const data::Sample& sample, const Tensor& prediction) {
  PRISTI_CHECK_EQ(prediction.numel(), sample.values.numel());
  Tensor out = sample.values;
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (sample.observed[i] < 0.5f) out[i] = prediction[i];
  }
  return out;
}

}  // namespace pristi::baselines
