#ifndef PRISTI_DIFFUSION_SAMPLER_H_
#define PRISTI_DIFFUSION_SAMPLER_H_

// The reverse-process sampler family: step-subset planning shared by every
// sampler, and the per-step transition objects that advance a stacked
// (num_chains, N, L) chain state through one kept step each.
//
// Three samplers share one interface:
//
//   * kDdpm — the paper's ancestral sampler (Algorithm 2): posterior-mean
//     step in x0 form plus fresh per-chain noise each step.
//   * kDdim — deterministic eta = 0 steps; with a step subset this is the
//     classic strided DDIM accelerator.
//   * kPlms — pseudo linear multistep (PNDM / FastSTI): a 4th-order
//     Adams–Bashforth combination of the last four noise predictions drives
//     the same eta = 0 transfer, after a pseudo Runge–Kutta warm-up for the
//     first three kept steps. Reaches DDIM-at-full-schedule quality at a
//     fraction of the model calls (tests/sampler_parity_test.cc pins the
//     CRPS/MAE bands).
//
// Per-chain state: kDdpm/kDdim are memoryless between steps; kPlms retains
// the last (up to) 3 raw noise predictions, i.e. 3 extra N*L floats per
// chain, plus two transient (num_chains, N, L) work buffers during a step.
// Because every retained tensor is stacked chain-major and every per-entry
// operation is independent of the leading batch index, a chain's history in
// a coalesced batch is bit-identical to the history the same chain would
// accumulate solo — which is what keeps ImputeWindowsCoalesced bit-identical
// to per-request ImputeWindow for all three samplers.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "diffusion/schedule.h"
#include "tensor/tensor.h"

namespace pristi::diffusion {

using tensor::Tensor;

class ConditionalNoisePredictor;  // ddpm.h
struct DiffusionBatch;            // ddpm.h

enum class SamplerKind { kDdpm, kDdim, kPlms };

// "ddpm" | "ddim" | "plms".
const char* SamplerKindName(SamplerKind kind);
// Parses a sampler name, the inverse of SamplerKindName. An unknown name
// returns kInvalidRequest naming the three valid ones and leaves *out
// untouched, so a command-line flag and a per-request protocol field are
// rejected alike.
Status ParseSamplerKind(const std::string& name, SamplerKind* out);

// Schedule constants for one kept reverse step, precomputed once per window
// so the per-step (and, sequentially, per-chain) loop does no schedule
// lookups or sqrt work. One plan serves all three samplers: each stepper
// reads only the fields it needs.
struct ReverseStep {
  int64_t step = 0;       // 1-based diffusion step fed to the model
  int64_t prev_step = 0;  // previous KEPT step toward t = 0 (0 at the end)
  float inv_sqrt_ab = 0;  // 1 / sqrt(alpha_bar_t)
  float sqrt_1m_ab = 0;   // sqrt(1 - alpha_bar_t)
  // eta = 0 transfer coefficients toward prev_step (DDIM and PLMS).
  float sqrt_ab_prev = 0;
  float sqrt_1m_ab_prev = 0;
  // DDPM posterior-mean coefficients (x0 form) and noise scale. When the
  // plan skips steps these generalize to the kept subset (effective
  // alpha = alpha_bar_t / alpha_bar_prev); on a consecutive plan they are
  // the schedule's exact stored constants.
  float c0 = 0;
  float ct = 0;
  float sigma = 0;  // 0 at the final step (no noise added)
  // PLMS Runge–Kutta warm-up midpoint between step and prev_step.
  int64_t mid_step = 0;
  float sqrt_ab_mid = 0;
  float sqrt_1m_ab_mid = 0;
};

// Selects the kept step subset and precomputes every constant above.
// `num_inference_steps` <= 0 or >= num_steps keeps the full schedule;
// otherwise K evenly spaced steps t_i = T - floor(i*T/K) (i = 0..K-1) are
// kept — for T divisible by K this reproduces the classic stride-T/K
// subset. The SAME plan is valid for all three samplers, which is what
// makes sampler quality sweeps step-subset-comparable.
std::vector<ReverseStep> PlanReverseSteps(const NoiseSchedule& schedule,
                                          int64_t num_inference_steps);

// Fills `out` (B, N, L) with one N(0,1) draw per entry, chain-major: chain
// b consumes exactly N*L draws from its own stream, in row-major order, so
// the draw sequence per chain is independent of how many chains share the
// tensor. `target_masks` is stacked per chain — (B, N, L) like `out` — so
// chains belonging to different coalesced requests each project onto their
// own mask. Entries outside a chain's mask are zeroed after drawing (the
// draw still happens, keeping streams aligned across masks). Used for the
// initial x_T draw and by the DDPM stepper's per-step noise.
void FillChainNoise(Tensor* out, Rng* chain_rngs, int64_t num_chains,
                    const Tensor& target_masks);

// Advances the stacked chain state through one kept step. A stepper is
// stateful (PLMS owns its noise-prediction history), so use a fresh one per
// reverse chain run; it may call the model several times per step (the PLMS
// warm-up makes 4 calls). `target_masks` is stacked per chain like `x`;
// entries outside a chain's mask stay 0.
class SamplerStepper {
 public:
  virtual ~SamplerStepper() = default;
  virtual void Step(ConditionalNoisePredictor* model,
                    const DiffusionBatch& batch,
                    const std::vector<ReverseStep>& plan, size_t index,
                    Tensor* x, Rng* chain_rngs, int64_t num_chains,
                    const Tensor& target_masks) = 0;
};

// `plan_size` fixes the PLMS warm-up length (min(3, plan_size - 1)); the
// other samplers ignore it.
std::unique_ptr<SamplerStepper> MakeSamplerStepper(SamplerKind kind,
                                                   size_t plan_size);

}  // namespace pristi::diffusion

#endif  // PRISTI_DIFFUSION_SAMPLER_H_
