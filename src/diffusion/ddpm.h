#ifndef PRISTI_DIFFUSION_DDPM_H_
#define PRISTI_DIFFUSION_DDPM_H_

// The conditional DDPM engine shared by PriSTI and the CSDI baseline:
// forward q-sampling (Eq. 1), the epsilon-prediction training loop
// (Algorithm 1), and ancestral-sampling imputation (Algorithm 2) with
// multi-sample probabilistic output.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/windows.h"
#include "diffusion/sampler.h"
#include "diffusion/schedule.h"

namespace pristi::diffusion {

using autograd::Variable;
using tensor::Tensor;

// Values a noise predictor derives from a batch's conditioning tensors and
// its own weights alone — PriSTI's auxiliary information U and conditional
// prior H^pri, CSDI's side information — kept across the model calls of one
// reverse run so they are computed once instead of once per step. The
// layout of `tensors` belongs to `owner`, the predictor that filled it;
// the cache is opaque to everyone else.
struct StepInvariantCache {
  const void* owner = nullptr;
  std::vector<Tensor> tensors;
};

// One training/inference batch, node-major per sample. All tensors (B, N, L).
struct DiffusionBatch {
  Tensor cond_values;    // observed conditional values (zeros elsewhere)
  Tensor cond_mask;      // 1 = conditionally observed
  Tensor interpolated;   // linear interpolation of cond_values (PriSTI's X)
  Tensor target_mask;    // 1 = entries being denoised / imputed
  // Null except during one reverse run: the sampling entry points
  // (ImputeWindow, ImputeWindowsCoalesced) attach a fresh cache per
  // reverse chain run, under the ModelAccessGuard and NoGradGuard, so
  // neither the weights nor the conditioning can change while it is alive.
  // It may hold only functions of the four tensors above and the weights —
  // never anything that depends on the noisy sample or the step t.
  // Training never attaches one.
  std::shared_ptr<StepInvariantCache> step_cache;
};

// A conditional noise prediction network epsilon_theta. Implementations:
// PristiModel (src/pristi) and CsdiModel (src/baselines).
class ConditionalNoisePredictor {
 public:
  virtual ~ConditionalNoisePredictor() = default;

  // Predicts the added noise. `noisy` is (B, N, L) — the perturbed target
  // (zeros outside target_mask); `t` is the 1-based diffusion step shared by
  // the batch. Returns (B, N, L).
  //
  // An implementation may keep its step-invariant intermediates in
  // `batch.step_cache` (see UsableStepCache): only values that are
  // functions of the conditioning tensors and the weights, never anything
  // that depends on `noisy` or `t`. A call that reuses them must return
  // bit-identically what a call without the cache returns.
  virtual Variable PredictNoise(const Tensor& noisy,
                                const DiffusionBatch& batch, int64_t t) = 0;

  // Parameters for the optimizer.
  virtual std::vector<Variable> Parameters() = 0;
  virtual void ZeroGrad() = 0;
};

// The batch's step cache if `owner` may use it in this call, else null:
// there must be one, grad mode must be off (a recorded tape has to reach
// the parameters through the step-invariant ops), and it must be empty or
// already owned by `owner`. An empty cache is claimed for `owner`, so a
// second predictor seeing the same batch never reads the first one's
// values.
StepInvariantCache* UsableStepCache(const DiffusionBatch& batch,
                                    const void* owner);

// x_t = sqrt(alpha_bar_t) x_0 + sqrt(1 - alpha_bar_t) eps.
Tensor QSample(const Tensor& x0, const Tensor& eps,
               const NoiseSchedule& schedule, int64_t t);

// The paper's learning-rate schedule: the rate is multiplied by kLrDecay at
// each of these fractions of the total epochs.
inline constexpr double kLrMilestoneFracs[] = {0.75, 0.9};
inline constexpr float kLrDecay = 0.1f;
// Training checkpoints are named "<checkpoint_dir>/ckpt-<epochs>.ckpt".
inline constexpr char kCheckpointPrefix[] = "ckpt";

struct TrainOptions {
  int64_t epochs = 30;
  int64_t batch_size = 8;
  float lr = 1e-3f;
  data::MaskStrategy mask_strategy = data::MaskStrategy::kHybrid;
  // With this probability, the diffusion step is drawn from the upper half
  // [T/2, T] instead of uniformly from [1, T]. High-t steps are where the
  // model must actually learn the conditional distribution (low-t steps are
  // near-identity), so biasing them accelerates training at reduced scale.
  // 0 reproduces the paper's uniform sampling exactly.
  double high_t_bias = 0.0;
  // Optional per-epoch callback (epoch, mean loss).
  std::function<void(int64_t, double)> on_epoch;

  // ---- Shard-parallel training --------------------------------------------
  // Every optimizer step runs through the shard-parallel engine
  // (diffusion/sharded_train.h): the batch's windows become independent
  // leaves partitioned across K logical shards on the persistent pool, with
  // per-leaf RNG streams and gradients merged by a fixed-topology tree
  // all-reduce. 0 (the default) resolves K to one shard per pool worker
  // (ParallelThreadCount()) when each epoch starts; K >= 1 pins it. The
  // loss trace, parameters and checkpoints are BIT-IDENTICAL for any K at
  // any thread count: K only changes scheduling.
  int64_t num_shards = 0;

  // ---- Checkpointing / resume ---------------------------------------------
  // When `checkpoint_dir` is non-empty, the trainer writes
  // "<dir>/ckpt-<epochs completed>.ckpt" after every `checkpoint_every`
  // epochs (and after the final epoch). Writes are atomic (temp file +
  // rename), and only the newest `checkpoint_keep_last` files are kept
  // (<= 0 keeps everything). A training checkpoint holds model parameters,
  // Adam state, the RNG stream position, the noise-schedule betas and the
  // loss history — everything needed to resume bit-identically.
  std::string checkpoint_dir;
  int64_t checkpoint_every = 1;
  int64_t checkpoint_keep_last = 3;
  // When non-empty, restores a training checkpoint before the first epoch
  // and continues from the stored epoch: the resumed run's parameters and
  // loss trajectory are bit-identical to an uninterrupted run. The
  // checkpoint's schedule betas and optimizer configuration must match
  // the live ones; any mismatch, file damage, or a checkpoint already past
  // `epochs` fails with a typed status before the first epoch (a silently
  // different trajectory would be worse than no run). Records the trainer
  // does not read are ignored, so a checkpoint that carries extra state
  // written by an older build still resumes. Requires `model` to also be an
  // nn::Module.
  std::string resume_from;
};

// Checks the training knobs a caller can get wrong: batch_size >= 1,
// epochs >= 1 and a finite lr > 0. A violation comes back as
// kInvalidRequest; TrainDiffusionModel returns it before touching the
// model.
Status ValidateTrainOptions(const TrainOptions& options);

// Algorithm 1. Trains `model` on the task's training windows: each step
// re-masks every window of the batch with the configured strategy,
// interpolates the remaining observations, q-samples a diffusion step and
// regresses the predicted noise against the truth on the masked entries.
// Each epoch is one RunShardedEpoch (diffusion/sharded_train.h).
// Fills `epoch_losses` with the per-epoch mean training loss; on resume the
// restored epochs' losses are included, so the result always covers epoch
// 0..epochs-1 and can be compared directly against an uninterrupted run.
// Options that fail ValidateTrainOptions, a task without training windows,
// a resume checkpoint that cannot be used, or a checkpoint directory or file
// that cannot be written comes back as a typed status (kInvalidRequest, or
// the serialize error code).
Status TrainDiffusionModel(ConditionalNoisePredictor* model,
                           const NoiseSchedule& schedule,
                           const data::ImputationTask& task,
                           const TrainOptions& options, Rng& rng,
                           std::vector<double>* epoch_losses);

// The same run for callers whose inputs cannot fail: returns the losses and
// CHECK-fails on a non-ok status.
std::vector<double> TrainDiffusionModel(ConditionalNoisePredictor* model,
                                        const NoiseSchedule& schedule,
                                        const data::ImputationTask& task,
                                        const TrainOptions& options,
                                        Rng& rng);

// Multi-sample probabilistic imputation of one window (Algorithm 2).
// Every generated sample agrees with the observations outside the target
// mask; entries inside it are drawn from the learned conditional.
struct ImputationResult {
  // Each (N, L): generated samples (values filled only on target entries,
  // observed entries copied through).
  std::vector<Tensor> samples;
  Tensor median;  // (N, L) per-entry median across samples
  // Quantile helper over the generated samples for one entry.
  float Quantile(int64_t node, int64_t step, double q) const;
  // Sets `median` from `samples` (Quantile at 0.5 for every entry).
  void FinalizeMedian();
};

struct ImputeOptions {
  int64_t num_samples = 20;  // paper uses 100; reduced default for CI speed
  // Which reverse-process sampler advances the chains (see
  // diffusion/sampler.h for the family): kDdpm is the paper's ancestral
  // sampler, kDdim the deterministic eta = 0 accelerator, kPlms the
  // pseudo-numerical 4th-order multistep solver that reaches DDIM quality
  // in ~5-10x fewer kept steps. For kDdim/kPlms per-sample diversity comes
  // only from the initial noise draw.
  SamplerKind sampler = SamplerKind::kDdpm;
  // How many reverse steps to actually run: <= 0 (or >= the schedule's T)
  // keeps the full schedule; otherwise the K evenly spaced kept steps
  // t_i = T - floor(i*T/K) — for T divisible by K this is exactly the old
  // stride-(T/K) DDIM subset. The SAME subset rule applies to all three
  // samplers, so step-count sweeps are sampler-comparable
  // (bench/ext_sampler_ablation.cc, tests/sampler_parity_test.cc).
  int64_t num_inference_steps = 0;
  // Runs the `num_samples` reverse chains one at a time (batch size 1 per
  // model call) instead of stacking them into one (S, N, L) batch. The two
  // paths draw from identical per-chain RNG streams (and PLMS keeps its
  // eps history per chain), so the sequential path is the reference oracle
  // the sampler-equivalence tests compare against.
  bool sequential_fallback = false;
};

// Derives `count` independent per-chain RNG streams from `rng` by counter
// seeding: one draw from `rng` fixes a root, and chain i is seeded with
// mix(root, i) (a SplitMix64 finalizer). Because every chain's stream
// depends only on (root, i) — not on how many draws other chains made —
// the batched sampler (chains interleaved per step) and the sequential
// fallback (chains completed one after another) consume identical noise per
// chain, which is what makes them comparable at tight tolerance. Consumes
// exactly one draw from `rng` regardless of `count`.
std::vector<Rng> MakeChainStreams(Rng& rng, int64_t count);

ImputationResult ImputeWindow(ConditionalNoisePredictor* model,
                              const NoiseSchedule& schedule,
                              const data::Sample& sample,
                              const ImputeOptions& options, Rng& rng);

// Coalesced multi-request sampling — the serving layer's cross-request
// batching primitive. One ImputeOptions per window. Requests are
// partitioned into groups with identical (sampler, num_inference_steps,
// num_samples) — a model call takes a single diffusion step t, so only
// like-configured requests can share one reverse chain — and each group of
// R same-shape windows, S chains each, advances through ONE reverse chain
// of (R*S, N, L) model calls. Request r's chain streams are exactly the
// ones ImputeWindow derives from Rng(seeds[r]), and every per-chain/
// per-entry operation in the model forward and the reverse update is
// independent of the leading batch index (the GEMM layer's fixed
// per-element accumulation order makes that hold bitwise), so each
// returned result is BIT-IDENTICAL to
//   Rng rng(seeds[r]);
//   ImputeWindow(model, schedule, windows[r], options[r], rng);
// regardless of batch composition, arrival order or which samplers share
// the batch — serve_test enforces this. `sequential_fallback` is ignored.
// Groups run in deterministic key order; results come back in input order.
std::vector<ImputationResult> ImputeWindowsCoalesced(
    ConditionalNoisePredictor* model, const NoiseSchedule& schedule,
    const std::vector<data::Sample>& windows,
    const std::vector<uint64_t>& seeds,
    const std::vector<ImputeOptions>& options);

// ---- Exclusive-access enforcement -------------------------------------------
// A ConditionalNoisePredictor is NOT safe for concurrent calls: a forward
// pass reads the module's weights through shared-storage views, and the
// library's bit-identity contracts are only defined for one in-flight call
// per model. Every window-level entry point (TrainDiffusionModel,
// ImputeWindow, ImputeWindowsCoalesced — and through them
// eval::ImputeSeries / EvaluateImputer / EvaluateFittedImputer) holds a
// ModelAccessGuard on its model for the duration of the call. When debug
// checks are compiled in (PRISTI_DCHECK_IS_ON, i.e. any non-NDEBUG build
// or -DPRISTI_DEBUG_CHECKS=ON), two overlapping holders of the same model
// abort with a message pointing at serve::ServeSession — the supported way
// to share one model between threads. A no-op when debug checks are off.
class ModelAccessGuard {
 public:
  // `site` names the entry point for the diagnostic; it must be a string
  // with static storage duration.
  ModelAccessGuard(const void* model, const char* site);
  ~ModelAccessGuard();
  ModelAccessGuard(const ModelAccessGuard&) = delete;
  ModelAccessGuard& operator=(const ModelAccessGuard&) = delete;

 private:
  const void* model_;
};

// Builds the (1, N, L) conditional batch for a window: conditional values /
// mask and their linear interpolation, plus the given target mask. A value
// outside `cond_mask` never reaches the batch, even when it is NaN or Inf.
DiffusionBatch MakeSingleWindowBatch(const Tensor& values,
                                     const Tensor& cond_mask,
                                     const Tensor& target_mask);

}  // namespace pristi::diffusion

#endif  // PRISTI_DIFFUSION_DDPM_H_
