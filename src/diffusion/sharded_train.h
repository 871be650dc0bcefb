#ifndef PRISTI_DIFFUSION_SHARDED_TRAIN_H_
#define PRISTI_DIFFUSION_SHARDED_TRAIN_H_

// Shard-parallel training, the engine every TrainDiffusionModel epoch runs:
// the per-window ShardStep unit, the declarative shard layout, and the
// deterministic tree all-reduce that merges per-shard gradients.
//
// ## Determinism contract
//
// A training run is bit-identical at ANY shard count K >= 1 and any
// ParallelFor thread count. Three mechanisms combine to give that:
//
//   1. Per-window leaves. The unit of work is one window ("leaf"), not one
//      K-dependent slice of the batch: every leaf's forward/backward is a
//      (1, N, L) micro-batch whose arithmetic involves no other leaf, so
//      partitioning leaves across shards changes scheduling only. (The
//      pool's own contract covers the thread axis: chunked and inline
//      execution of each tensor op are bit-identical.)
//   2. Counter-seeded leaf RNG streams (MakeChainStreams): each optimizer
//      step draws the diffusion step t and then one stream root from the
//      epoch RNG — a fixed number of draws independent of K — and leaf i's
//      masking/noise draws come from stream mix(root, i).
//   3. Fixed-topology tree all-reduce. Per-leaf gradients (captured into
//      private buffers by autograd::GradCaptureScope) and per-leaf losses
//      are combined pairwise over the leaf axis: level 0 combines leaves
//      (0,1), (2,3), ...; each level halves the list until one remains. The
//      topology depends only on the leaf count, never on K or the thread
//      schedule, so the merged gradient is one fixed floating-point
//      summation order.
//
// Checkpoints fall out shard-count-invariant: a training checkpoint stores
// the epoch RNG stream and no shard count, so a run saved at K and resumed
// at K' != K stays bit-identical to the uninterrupted run at either count.

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/missing.h"
#include "data/windows.h"
#include "diffusion/ddpm.h"
#include "diffusion/schedule.h"
#include "nn/ema.h"
#include "nn/optimizer.h"

namespace pristi::diffusion {

// ---- Shard layout ----------------------------------------------------------
// The leaf -> shard assignment, declared as data (not control flow): shard s
// owns the contiguous leaf range [bounds[s], bounds[s+1]). Balanced so shard
// sizes differ by at most one leaf. The layout only steers scheduling — the
// reduction below never consults it — which is the structural reason shard
// count cannot reach the numbers.
struct ShardLayout {
  int64_t num_leaves = 0;
  std::vector<int64_t> bounds;  // size num_shards + 1, bounds[0] == 0
  int64_t num_shards() const {
    return static_cast<int64_t>(bounds.size()) - 1;
  }
};

// Builds the balanced layout; num_shards is clamped to [1, num_leaves] (an
// empty shard would be pure overhead). num_leaves == 0 yields one empty
// shard.
ShardLayout MakeShardLayout(int64_t num_leaves, int64_t num_shards);

// ---- Deterministic tree reduction ------------------------------------------
// Pairwise tree sum over the input order: (0,1), (2,3), ... per level, an
// odd tail carried up unchanged. One fixed summation order for a given
// element count — the all-reduce the gradient merge uses.
double TreeReduce(std::vector<double> values);
float TreeReduce(std::vector<float> values);

// Tree-combines per-leaf gradient buffers for one parameter. Empty tensors
// (leaves whose backward never reached the parameter) are identities: the
// other operand passes through unchanged, so a partially-touched parameter
// still sums in one fixed order. Returns an empty tensor when no leaf
// touched the parameter. Consumes `parts` (buffers are moved and added in
// place).
tensor::Tensor TreeReduceGrads(std::vector<tensor::Tensor> parts);

// ---- ShardStep -------------------------------------------------------------
// One prepared micro-batch: everything a forward/backward needs, built from
// one window by BuildLeafStep. All tensors (1, N, L).
struct LeafStep {
  DiffusionBatch batch;
  tensor::Tensor noisy;       // q-sampled target, masked
  tensor::Tensor eps_target;  // drawn noise * target_mask (the regressand)
  float mask_sum = 0.0f;      // SumAll(target_mask), for the global denom
};

// Builds one leaf's micro-batch from window `index`: the mask-strategy
// draws from `leaf_rng` (historical-pattern pick first when the strategy
// wants one, then ApplyMaskStrategy), the conditioning tensors, then the
// noise draw and q-sample at diffusion step `step`.
LeafStep BuildLeafStep(const std::vector<data::Sample>& samples,
                       int64_t index, data::MaskStrategy strategy,
                       const NoiseSchedule& schedule, int64_t step,
                       Rng& leaf_rng);

// The ShardStep unit: one forward/backward over a prepared micro-batch,
// returning the (double-widened) loss value. `denom` is the masked-entry
// normalizer of the loss: the sharded epoch passes the tree-reduced global
// mask sum, so every leaf of one optimizer step is normalized by the same
// scalar. Leaf gradients land in `capture` (one buffer per entry of
// `params`, opened as a GradCaptureScope; must be non-null) instead of the
// shared parameter nodes. The caller owns ZeroGrad/optimizer sequencing.
double ShardStep(ConditionalNoisePredictor* model,
                 const std::vector<Variable>& params,
                 const tensor::Tensor& noisy, const DiffusionBatch& batch,
                 const tensor::Tensor& eps_target, int64_t step, float denom,
                 std::vector<tensor::Tensor>* capture);

// ---- Sharded epoch ---------------------------------------------------------
// Runs one training epoch, the only one TrainDiffusionModel has: permutes
// the epoch's windows, and per optimizer step builds each batch
// window as an independent leaf, partitions leaves across shards on the
// persistent pool, merges gradients and losses through the tree reduce, and
// applies one optimizer (+ EMA) update. options.num_shards == 0 runs one
// shard per pool worker (ParallelThreadCount()). Returns the epoch's mean
// loss over optimizer steps. `ema` may be null.
double RunShardedEpoch(ConditionalNoisePredictor* model,
                       const NoiseSchedule& schedule,
                       const std::vector<data::Sample>& samples,
                       const TrainOptions& options, nn::Adam* optimizer,
                       nn::EmaWeights* ema, Rng& rng);

}  // namespace pristi::diffusion

#endif  // PRISTI_DIFFUSION_SHARDED_TRAIN_H_
