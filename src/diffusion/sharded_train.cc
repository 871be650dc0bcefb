#include "diffusion/sharded_train.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "autograd/ops.h"
#include "common/check.h"
#include "common/parallel.h"

namespace pristi::diffusion {

namespace ag = ::pristi::autograd;
namespace t = ::pristi::tensor;

ShardLayout MakeShardLayout(int64_t num_leaves, int64_t num_shards) {
  PRISTI_CHECK_GE(num_leaves, 0);
  PRISTI_CHECK_GE(num_shards, 1);
  ShardLayout layout;
  layout.num_leaves = num_leaves;
  int64_t k = std::clamp<int64_t>(num_shards, 1,
                                  std::max<int64_t>(num_leaves, 1));
  layout.bounds.resize(static_cast<size_t>(k) + 1);
  for (int64_t s = 0; s <= k; ++s) {
    layout.bounds[static_cast<size_t>(s)] = s * num_leaves / k;
  }
  return layout;
}

namespace {

// Shared tree-sum skeleton: one level combines (0,1), (2,3), ...; an odd
// tail is carried up unchanged. `combine(a, b)` must fold b into a.
template <typename T, typename Combine>
T TreeFold(std::vector<T> level, Combine combine) {
  if (level.empty()) return T();
  while (level.size() > 1) {
    size_t out = 0;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      combine(level[i], level[i + 1]);
      if (out != i) level[out] = std::move(level[i]);
      ++out;
    }
    if (level.size() % 2 == 1) {
      if (out != level.size() - 1) level[out] = std::move(level.back());
      ++out;
    }
    level.resize(out);
  }
  return std::move(level.front());
}

}  // namespace

double TreeReduce(std::vector<double> values) {
  return TreeFold(std::move(values),
                  [](double& a, const double& b) { a += b; });
}

float TreeReduce(std::vector<float> values) {
  return TreeFold(std::move(values), [](float& a, const float& b) { a += b; });
}

tensor::Tensor TreeReduceGrads(std::vector<tensor::Tensor> parts) {
  return TreeFold(std::move(parts), [](Tensor& a, Tensor& b) {
    // Empty operands are identities: a leaf that never touched the
    // parameter contributes nothing, and passing the other side through
    // UNCHANGED (rather than adding it to a zero buffer) keeps the merged
    // value bitwise equal to the touched-leaves-only sum (0 + -0 would
    // flip the sign bit of a negative zero).
    if (b.numel() == 0) return;
    if (a.numel() == 0) {
      a = std::move(b);
      return;
    }
    a.AddInPlace(b);
  });
}

LeafStep BuildLeafStep(const std::vector<data::Sample>& samples,
                       int64_t index, data::MaskStrategy strategy,
                       const NoiseSchedule& schedule, int64_t step,
                       Rng& leaf_rng) {
  PRISTI_CHECK_GE(index, 0);
  PRISTI_CHECK_LT(index, static_cast<int64_t>(samples.size()));
  const data::Sample& sample = samples[static_cast<size_t>(index)];
  // Historical-pattern option: borrow another window's observed mask, drawn
  // before ApplyMaskStrategy (the sharded golden pins this draw order).
  const Tensor* historical = nullptr;
  Tensor historical_mask;
  if (strategy == data::MaskStrategy::kHybridHistorical) {
    const data::Sample& other = samples[static_cast<size_t>(
        leaf_rng.UniformInt(0, static_cast<int64_t>(samples.size()) - 1))];
    historical_mask = other.observed;
    historical = &historical_mask;
  }
  Tensor target_mask =
      data::ApplyMaskStrategy(sample.observed, strategy, leaf_rng, historical);
  Tensor cond_mask = data::MaskMinus(sample.observed, target_mask);
  int64_t n = sample.values.dim(0), l = sample.values.dim(1);
  LeafStep leaf;
  leaf.batch.cond_values = t::Mul(sample.values, cond_mask).Reshaped({1, n, l});
  leaf.batch.cond_mask = cond_mask.Reshaped({1, n, l});
  leaf.batch.interpolated =
      data::LinearInterpolate(sample.values, cond_mask).Reshaped({1, n, l});
  leaf.batch.target_mask = target_mask.Reshaped({1, n, l});
  Tensor x0 = t::Mul(sample.values, target_mask).Reshaped({1, n, l});
  Tensor eps = Tensor::Randn(x0.shape(), leaf_rng);
  leaf.noisy = t::Mul(QSample(x0, eps, schedule, step),
                      leaf.batch.target_mask);
  leaf.eps_target = t::Mul(eps, leaf.batch.target_mask);
  leaf.mask_sum = t::SumAll(leaf.batch.target_mask);
  return leaf;
}

double ShardStep(ConditionalNoisePredictor* model,
                 const std::vector<Variable>& params,
                 const tensor::Tensor& noisy, const DiffusionBatch& batch,
                 const tensor::Tensor& eps_target, int64_t step, float denom,
                 std::vector<tensor::Tensor>* capture) {
  PRISTI_CHECK(capture != nullptr);
  ag::GradCaptureScope scope(params, capture);
  Variable eps_hat = model->PredictNoise(noisy, batch, step);
  // The op chain of ag::MaskedMse, with the normalizer supplied by the
  // caller: one global denom for the whole optimizer step.
  Variable diff = ag::Sub(eps_hat, ag::Constant(eps_target));
  Variable masked = ag::Mul(ag::Square(diff), ag::Constant(batch.target_mask));
  Variable loss = ag::MulScalar(ag::SumAll(masked), 1.0f / denom);
  loss.Backward();
  return static_cast<double>(loss.value()[0]);
}

namespace {

// Applies fn(leaf) for every leaf of the layout. One shard runs on the
// calling thread with no parallel region open (inner tensor ops keep the
// pool); several shards dispatch one task per shard, inside which ops run
// inline. Bit-identical either way:
// each leaf's arithmetic is self-contained and the pool's own contract
// covers chunked-vs-inline tensor ops.
void ForEachLeaf(const ShardLayout& layout,
                 const std::function<void(int64_t)>& fn) {
  if (layout.num_shards() <= 1) {
    for (int64_t leaf = 0; leaf < layout.num_leaves; ++leaf) fn(leaf);
    return;
  }
  ParallelFor(0, layout.num_shards(), [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      for (int64_t leaf = layout.bounds[static_cast<size_t>(s)];
           leaf < layout.bounds[static_cast<size_t>(s) + 1]; ++leaf) {
        fn(leaf);
      }
    }
  });
}

}  // namespace

double RunShardedEpoch(ConditionalNoisePredictor* model,
                       const NoiseSchedule& schedule,
                       const std::vector<data::Sample>& samples,
                       const TrainOptions& options, nn::Adam* optimizer,
                       Rng& rng) {
  PRISTI_CHECK(model != nullptr);
  PRISTI_CHECK(optimizer != nullptr);
  PRISTI_CHECK_GT(options.batch_size, 0)
      << "TrainOptions::batch_size (see ValidateTrainOptions)";
  PRISTI_CHECK_GE(options.num_shards, 0)
      << "TrainOptions::num_shards: 0 = one shard per pool worker";
  const int64_t num_shards =
      options.num_shards > 0 ? options.num_shards : ParallelThreadCount();
  std::vector<Variable> params = model->Parameters();
  std::vector<int64_t> order =
      rng.Permutation(static_cast<int64_t>(samples.size()));
  double loss_sum = 0.0;
  int64_t step_count = 0;
  for (size_t batch_begin = 0; batch_begin < order.size();
       batch_begin += static_cast<size_t>(options.batch_size)) {
    size_t batch_end = std::min(
        order.size(), batch_begin + static_cast<size_t>(options.batch_size));
    int64_t num_leaves = static_cast<int64_t>(batch_end - batch_begin);
    // Epoch-RNG consumption per optimizer step is exactly two draws — the
    // diffusion step and the chain-stream root — independent of both the
    // shard count and the batch's content, which is what keeps the stream
    // position (and therefore checkpoints) shard-count-invariant.
    int64_t step =
        (options.high_t_bias > 0 && rng.Bernoulli(options.high_t_bias))
            ? rng.UniformInt(schedule.num_steps() / 2, schedule.num_steps())
            : rng.UniformInt(1, schedule.num_steps());
    std::vector<Rng> leaf_rngs = MakeChainStreams(rng, num_leaves);
    ShardLayout layout = MakeShardLayout(num_leaves, num_shards);

    // Phase 1: build every leaf's micro-batch (mask draws, interpolation,
    // noise, q-sample) from its private stream, shards in parallel.
    std::vector<LeafStep> leaves(static_cast<size_t>(num_leaves));
    ForEachLeaf(layout, [&](int64_t leaf) {
      leaves[static_cast<size_t>(leaf)] = BuildLeafStep(
          samples, order[batch_begin + static_cast<size_t>(leaf)],
          options.mask_strategy, schedule, step,
          leaf_rngs[static_cast<size_t>(leaf)]);
    });

    // The loss normalizer: one tree-reduced mask sum shared by every leaf,
    // so the step's loss is the same masked MSE a stacked batch would
    // compute.
    std::vector<float> mask_sums(static_cast<size_t>(num_leaves));
    for (int64_t i = 0; i < num_leaves; ++i) {
      mask_sums[static_cast<size_t>(i)] =
          leaves[static_cast<size_t>(i)].mask_sum;
    }
    float denom = std::max(1.0f, TreeReduce(std::move(mask_sums)));

    // Phase 2: per-leaf forward/backward, gradients captured into private
    // per-leaf buffers (GradCaptureScope inside ShardStep), shards in
    // parallel.
    std::vector<std::vector<Tensor>> leaf_grads(
        static_cast<size_t>(num_leaves),
        std::vector<Tensor>(params.size()));
    std::vector<double> leaf_losses(static_cast<size_t>(num_leaves), 0.0);
    ForEachLeaf(layout, [&](int64_t leaf) {
      const LeafStep& prepared = leaves[static_cast<size_t>(leaf)];
      leaf_losses[static_cast<size_t>(leaf)] = ShardStep(
          model, params, prepared.noisy, prepared.batch, prepared.eps_target,
          step, denom, &leaf_grads[static_cast<size_t>(leaf)]);
    });

    // Phase 3: deterministic all-reduce over the leaf axis, then one
    // optimizer step. The tree's shape depends only on num_leaves, so the
    // merged gradient is one fixed summation order at any K.
    model->ZeroGrad();
    for (size_t p = 0; p < params.size(); ++p) {
      std::vector<Tensor> column;
      column.reserve(static_cast<size_t>(num_leaves));
      for (int64_t leaf = 0; leaf < num_leaves; ++leaf) {
        column.push_back(
            std::move(leaf_grads[static_cast<size_t>(leaf)][p]));
      }
      Tensor merged = TreeReduceGrads(std::move(column));
      if (merged.numel() > 0) {
        params[p].node()->AccumulateGrad(merged);
      }
    }
    optimizer->Step();
    loss_sum += TreeReduce(std::move(leaf_losses));
    ++step_count;
  }
  return loss_sum / std::max<int64_t>(step_count, 1);
}

}  // namespace pristi::diffusion
