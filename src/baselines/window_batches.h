#ifndef PRISTI_BASELINES_WINDOW_BATCHES_H_
#define PRISTI_BASELINES_WINDOW_BATCHES_H_

// The learned baselines' shared minibatch policy (BRITS, GRIN, rGAIN,
// V-RIN, GP-VAE): every Fit walks the training windows in shuffled batches
// of 8, stacked to (B, N, L), with 25% of the observed entries hidden from
// the inputs so the nets learn to bridge holes rather than copy their
// inputs. Each model is trained with Adam at kLearningRate.

#include <cstdint>
#include <functional>

#include "common/rng.h"
#include "data/windows.h"
#include "tensor/tensor.h"

namespace pristi::baselines {

inline constexpr float kLearningRate = 5e-3f;

// Windows stacked along a leading batch axis, each field (B, N, L).
struct WindowBatch {
  tensor::Tensor values;
  tensor::Tensor observed;
  // What the nets may read: `observed` minus the training-time extra mask,
  // or `observed` itself at inference.
  tensor::Tensor input_mask;
};

// Runs `epochs` passes over the task's training windows: one
// rng.Permutation per epoch, then per batch (the last one shorter) the
// extra-mask draws and `step(batch)`, in that order.
void ForEachTrainingBatch(const data::ImputationTask& task, int64_t epochs,
                          Rng& rng,
                          const std::function<void(const WindowBatch&)>& step);

// One window as a batch of one, with input_mask = observed.
WindowBatch SingleWindow(const data::Sample& sample);

// The sample's values where observed, `prediction` (any shape with N·L
// entries, row-major like the sample) elsewhere; shaped like the sample.
tensor::Tensor MergeObserved(const data::Sample& sample,
                             const tensor::Tensor& prediction);

}  // namespace pristi::baselines

#endif  // PRISTI_BASELINES_WINDOW_BATCHES_H_
