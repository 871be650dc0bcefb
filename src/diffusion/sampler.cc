#include "diffusion/sampler.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "autograd/variable.h"
#include "common/check.h"
#include "common/parallel.h"
#include "diffusion/ddpm.h"

namespace pristi::diffusion {

namespace t = ::pristi::tensor;
using autograd::Variable;

const char* SamplerKindName(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kDdpm:
      return "ddpm";
    case SamplerKind::kDdim:
      return "ddim";
    case SamplerKind::kPlms:
      return "plms";
  }
  return "unknown";
}

Status ParseSamplerKind(const std::string& name, SamplerKind* out) {
  for (SamplerKind kind :
       {SamplerKind::kDdpm, SamplerKind::kDdim, SamplerKind::kPlms}) {
    if (name == SamplerKindName(kind)) {
      *out = kind;
      return Status::Ok();
    }
  }
  return Status::Error(ErrorCode::kInvalidRequest,
                       "unknown sampler '" + name + "' (ddpm|ddim|plms)");
}

std::vector<ReverseStep> PlanReverseSteps(const NoiseSchedule& schedule,
                                          int64_t num_inference_steps) {
  int64_t total = schedule.num_steps();
  std::vector<int64_t> steps;
  if (num_inference_steps <= 0 || num_inference_steps >= total) {
    steps.reserve(static_cast<size_t>(total));
    for (int64_t step = total; step >= 1; --step) steps.push_back(step);
  } else {
    // K evenly spaced kept steps, strictly decreasing, always including T.
    // For T divisible by K this is exactly the stride-(T/K) subset.
    int64_t kept = num_inference_steps;
    steps.reserve(static_cast<size_t>(kept));
    for (int64_t i = 0; i < kept; ++i) {
      steps.push_back(total - (i * total) / kept);
    }
  }
  std::vector<ReverseStep> plan(steps.size());
  for (size_t si = 0; si < steps.size(); ++si) {
    int64_t step = steps[si];
    int64_t prev = si + 1 < steps.size() ? steps[si + 1] : 0;
    ReverseStep& rs = plan[si];
    rs.step = step;
    rs.prev_step = prev;
    float ab = schedule.alpha_bar(step);
    float ab_prev = schedule.alpha_bar(prev);
    rs.inv_sqrt_ab = 1.0f / std::sqrt(ab);
    rs.sqrt_1m_ab = std::sqrt(1.0f - ab);
    rs.sqrt_ab_prev = std::sqrt(ab_prev);
    rs.sqrt_1m_ab_prev = std::sqrt(1.0f - ab_prev);
    if (prev == step - 1) {
      // Consecutive step: the schedule's exact stored constants, so a
      // full-schedule DDPM plan is bit-identical to the pre-subset sampler
      // (the recorded goldens pin this).
      float alpha = schedule.alpha(step);
      float beta = schedule.beta(step);
      rs.c0 = std::sqrt(ab_prev) * beta / (1.0f - ab);
      rs.ct = std::sqrt(alpha) * (1.0f - ab_prev) / (1.0f - ab);
      rs.sigma = step > 1 ? std::sqrt(schedule.sigma2(step)) : 0.0f;
    } else {
      // Kept-subset generalization: the product of the skipped alphas is
      // alpha_bar_t / alpha_bar_prev, and the posterior coefficients follow
      // with that effective alpha.
      float alpha_eff = ab / ab_prev;
      float beta_eff = 1.0f - alpha_eff;
      rs.c0 = std::sqrt(ab_prev) * beta_eff / (1.0f - ab);
      rs.ct = std::sqrt(alpha_eff) * (1.0f - ab_prev) / (1.0f - ab);
      rs.sigma = prev > 0
                     ? std::sqrt((1.0f - ab_prev) / (1.0f - ab) * beta_eff)
                     : 0.0f;
    }
    rs.mid_step = std::max<int64_t>(1, (step + prev + 1) / 2);
    float ab_mid = schedule.alpha_bar(rs.mid_step);
    rs.sqrt_ab_mid = std::sqrt(ab_mid);
    rs.sqrt_1m_ab_mid = std::sqrt(1.0f - ab_mid);
  }
  return plan;
}

void FillChainNoise(Tensor* out, Rng* chain_rngs, int64_t num_chains,
                    const Tensor& target_masks) {
  PRISTI_DCHECK_EQ(target_masks.numel(), out->numel());
  int64_t per = target_masks.numel() / num_chains;
  const float* pm_all = target_masks.data();
  float* po = out->data();
  for (int64_t c = 0; c < num_chains; ++c) {
    float* chain = po + c * per;
    const float* pm = pm_all + c * per;
    Rng& chain_rng = chain_rngs[c];
    for (int64_t i = 0; i < per; ++i) {
      chain[i] = static_cast<float>(chain_rng.Normal()) * pm[i];
    }
  }
}

namespace {

// Clamp for the implied clean-sample estimate: stops early reverse steps
// (where the predictor is least reliable) from compounding into divergence —
// the standard "clip x0" stabilization.
constexpr float kX0Clamp = 6.0f;
constexpr int64_t kStepMinChunk = 1 << 12;

// eta = 0 transfer from rs.step toward a destination step with alpha_bar
// coefficients (sqrt_ab_dst, sqrt_1m_ab_dst): x0-estimate, clamp, recombine,
// target-mask projection, in one fused pass. DDIM calls it with the
// predicted noise; PLMS with its multistep noise combination and, during
// warm-up, with midpoint destinations. `pout` may alias `px_src` (every
// entry is read before it is written).
void EtaZeroTransfer(const float* px_src, const float* pe,
                     const ReverseStep& rs, float sqrt_ab_dst,
                     float sqrt_1m_ab_dst, const float* pm, float* pout,
                     int64_t numel) {
  ParallelFor(
      0, numel,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          float e = pe[i];
          float xi = px_src[i];
          float x0 = (xi - rs.sqrt_1m_ab * e) * rs.inv_sqrt_ab;
          x0 = std::clamp(x0, -kX0Clamp, kX0Clamp);
          pout[i] = (sqrt_ab_dst * x0 + sqrt_1m_ab_dst * e) * pm[i];
        }
      },
      kStepMinChunk);
}

class DdpmStepper final : public SamplerStepper {
 public:
  void Step(ConditionalNoisePredictor* model, const DiffusionBatch& batch,
            const std::vector<ReverseStep>& plan, size_t index, Tensor* x,
            Rng* chain_rngs, int64_t num_chains,
            const Tensor& target_masks) override {
    const ReverseStep& rs = plan[index];
    Variable eps_hat_var = model->PredictNoise(*x, batch, rs.step);
    const Tensor& eps_hat = eps_hat_var.value();
    bool add_noise = rs.sigma > 0.0f;
    const float* pe = eps_hat.data();
    const float* pm = target_masks.data();
    float* px = x->data();
    if (add_noise) {
      // Noisy steps fuse the old FillChainNoise pre-pass into the update:
      // one chain-parallel sweep draws each chain's noise and applies the
      // posterior step in place, instead of two passes over x plus a
      // noise scratch tensor. Each chain's Rng performs exactly the draws
      // FillChainNoise performed, in the same row-major order (masked
      // entries included), and the update arithmetic rounds identically —
      // so coalesced batches stay bit-identical to solo runs (the
      // batched == sequential oracle in sampler_equivalence_test) at any
      // thread count, since one worker owns a chain end to end.
      PRISTI_DCHECK_EQ(target_masks.numel(), x->numel());
      int64_t per = x->numel() / num_chains;
      ParallelFor(0, num_chains, [&](int64_t lo, int64_t hi) {
        for (int64_t c = lo; c < hi; ++c) {
          Rng& chain_rng = chain_rngs[c];
          const float* cm = pm + c * per;
          const float* ce = pe + c * per;
          float* cx = px + c * per;
          for (int64_t i = 0; i < per; ++i) {
            float z = static_cast<float>(chain_rng.Normal()) * cm[i];
            float e = ce[i];
            float xi = cx[i];
            float x0 = (xi - rs.sqrt_1m_ab * e) * rs.inv_sqrt_ab;
            x0 = std::clamp(x0, -kX0Clamp, kX0Clamp);
            // DDPM ancestral step via the posterior mean in x0 form
            // (equivalent to Algorithm 2 when x0_hat is unclamped):
            // mu = [sqrt(ab_prev) beta_t x0_hat
            //       + sqrt(alpha_t) (1 - ab_prev) x_t] / (1 - ab_t).
            float next = rs.c0 * x0 + rs.ct * xi;
            next += rs.sigma * z;
            cx[i] = next * cm[i];
          }
        }
      });
      return;
    }
    // Final (noiseless) step: plain elementwise pass, unchanged.
    ParallelFor(
        0, x->numel(),
        [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            float e = pe[i];
            float xi = px[i];
            float x0 = (xi - rs.sqrt_1m_ab * e) * rs.inv_sqrt_ab;
            x0 = std::clamp(x0, -kX0Clamp, kX0Clamp);
            float next = rs.c0 * x0 + rs.ct * xi;
            px[i] = next * pm[i];
          }
        },
        kStepMinChunk);
  }
};

class DdimStepper final : public SamplerStepper {
 public:
  void Step(ConditionalNoisePredictor* model, const DiffusionBatch& batch,
            const std::vector<ReverseStep>& plan, size_t index, Tensor* x,
            Rng* /*chain_rngs*/, int64_t /*num_chains*/,
            const Tensor& target_masks) override {
    const ReverseStep& rs = plan[index];
    Variable eps_hat_var = model->PredictNoise(*x, batch, rs.step);
    const Tensor& eps_hat = eps_hat_var.value();
    EtaZeroTransfer(x->data(), eps_hat.data(), rs, rs.sqrt_ab_prev,
                    rs.sqrt_1m_ab_prev, target_masks.data(), x->data(),
                    x->numel());
  }
};

// PLMS (PNDM "S-PNDM/F-PNDM" discretization): pseudo Runge–Kutta for the
// first warm-up steps (4 model calls each, seeding the history), then
// 4th-order Adams–Bashforth over the last four raw noise predictions. The
// history holds raw eps tensors stacked chain-major, so chain c's history
// slice equals the history a solo run of chain c would hold — coalesced
// batches stay bit-identical to per-request runs.
class PlmsStepper final : public SamplerStepper {
 public:
  explicit PlmsStepper(size_t plan_size)
      : warmup_(plan_size > 0 ? std::min<size_t>(3, plan_size - 1) : 0) {}

  void Step(ConditionalNoisePredictor* model, const DiffusionBatch& batch,
            const std::vector<ReverseStep>& plan, size_t index, Tensor* x,
            Rng* /*chain_rngs*/, int64_t /*num_chains*/,
            const Tensor& target_masks) override {
    if (index < warmup_) {
      RungeKuttaStep(model, batch, plan[index], x, target_masks);
    } else {
      AdamsBashforthStep(model, batch, plan[index], x, target_masks);
    }
  }

 private:
  void EnsureScratch(const Tensor& x) {
    if (work_.numel() != x.numel()) work_ = Tensor(x.shape());
    if (combo_.numel() != x.numel()) combo_ = Tensor(x.shape());
  }

  void PushHistory(Tensor&& eps) {
    history_.push_back(std::move(eps));
    if (history_.size() > 3) history_.pop_front();
  }

  // Classical RK4 in pseudo-numerical form: evaluations at t, the rounded
  // midpoint (twice) and prev_step, combined 1:2:2:1. Only the FIRST
  // evaluation enters the multistep history (it is the eps at the kept
  // step itself, which is what Adams–Bashforth needs).
  void RungeKuttaStep(ConditionalNoisePredictor* model,
                      const DiffusionBatch& batch, const ReverseStep& rs,
                      Tensor* x, const Tensor& target_masks) {
    EnsureScratch(*x);
    const float* pm = target_masks.data();
    int64_t numel = x->numel();
    Variable e1_var = model->PredictNoise(*x, batch, rs.step);
    Tensor e1 = e1_var.value();
    EtaZeroTransfer(x->data(), e1.data(), rs, rs.sqrt_ab_mid,
                    rs.sqrt_1m_ab_mid, pm, work_.data(), numel);
    Variable e2_var = model->PredictNoise(work_, batch, rs.mid_step);
    const Tensor& e2 = e2_var.value();
    {
      const float* p1 = e1.data();
      const float* p2 = e2.data();
      float* pc = combo_.data();
      ParallelFor(
          0, numel,
          [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) pc[i] = p1[i] + 2.0f * p2[i];
          },
          kStepMinChunk);
    }
    EtaZeroTransfer(x->data(), e2.data(), rs, rs.sqrt_ab_mid,
                    rs.sqrt_1m_ab_mid, pm, work_.data(), numel);
    Variable e3_var = model->PredictNoise(work_, batch, rs.mid_step);
    const Tensor& e3 = e3_var.value();
    {
      const float* p3 = e3.data();
      float* pc = combo_.data();
      ParallelFor(
          0, numel,
          [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) pc[i] += 2.0f * p3[i];
          },
          kStepMinChunk);
    }
    EtaZeroTransfer(x->data(), e3.data(), rs, rs.sqrt_ab_prev,
                    rs.sqrt_1m_ab_prev, pm, work_.data(), numel);
    Variable e4_var = model->PredictNoise(work_, batch, rs.prev_step);
    const Tensor& e4 = e4_var.value();
    {
      const float* p4 = e4.data();
      float* pc = combo_.data();
      constexpr float kSixth = 1.0f / 6.0f;
      ParallelFor(
          0, numel,
          [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              pc[i] = (pc[i] + p4[i]) * kSixth;
            }
          },
          kStepMinChunk);
    }
    EtaZeroTransfer(x->data(), combo_.data(), rs, rs.sqrt_ab_prev,
                    rs.sqrt_1m_ab_prev, pm, x->data(), numel);
    PushHistory(std::move(e1));
  }

  // Linear multistep: the Adams–Bashforth combination of the newest
  // prediction and the retained history drives one eta = 0 transfer. The
  // order ramps with available history (1 = plain DDIM) so short plans
  // degrade gracefully; after the 3-step warm-up it is always 4.
  void AdamsBashforthStep(ConditionalNoisePredictor* model,
                          const DiffusionBatch& batch, const ReverseStep& rs,
                          Tensor* x, const Tensor& target_masks) {
    int64_t numel = x->numel();
    Variable e_var = model->PredictNoise(*x, batch, rs.step);
    Tensor e_t = e_var.value();
    size_t order = std::min<size_t>(history_.size() + 1, 4);
    const float* pe = e_t.data();
    const float* combined = pe;
    if (order > 1) {
      EnsureScratch(*x);
      float* pc = combo_.data();
      const float* h1 = history_[history_.size() - 1].data();
      const float* h2 =
          order > 2 ? history_[history_.size() - 2].data() : nullptr;
      const float* h3 =
          order > 3 ? history_[history_.size() - 3].data() : nullptr;
      ParallelFor(
          0, numel,
          [&](int64_t lo, int64_t hi) {
            switch (order) {
              case 2:
                for (int64_t i = lo; i < hi; ++i) {
                  pc[i] = (3.0f * pe[i] - h1[i]) * 0.5f;
                }
                break;
              case 3: {
                constexpr float kTwelfth = 1.0f / 12.0f;
                for (int64_t i = lo; i < hi; ++i) {
                  pc[i] =
                      (23.0f * pe[i] - 16.0f * h1[i] + 5.0f * h2[i]) *
                      kTwelfth;
                }
                break;
              }
              default: {
                constexpr float kTwentyFourth = 1.0f / 24.0f;
                for (int64_t i = lo; i < hi; ++i) {
                  pc[i] = (55.0f * pe[i] - 59.0f * h1[i] + 37.0f * h2[i] -
                           9.0f * h3[i]) *
                          kTwentyFourth;
                }
                break;
              }
            }
          },
          kStepMinChunk);
      combined = pc;
    }
    EtaZeroTransfer(x->data(), combined, rs, rs.sqrt_ab_prev,
                    rs.sqrt_1m_ab_prev, target_masks.data(), x->data(),
                    numel);
    PushHistory(std::move(e_t));
  }

  const size_t warmup_;
  std::deque<Tensor> history_;  // newest last; <= 3 retained raw eps
  Tensor work_;                 // RK intermediate state
  Tensor combo_;                // eps combination accumulator
};

}  // namespace

std::unique_ptr<SamplerStepper> MakeSamplerStepper(SamplerKind kind,
                                                   size_t plan_size) {
  switch (kind) {
    case SamplerKind::kDdpm:
      return std::make_unique<DdpmStepper>();
    case SamplerKind::kDdim:
      return std::make_unique<DdimStepper>();
    case SamplerKind::kPlms:
      return std::make_unique<PlmsStepper>(plan_size);
  }
  PRISTI_CHECK(false) << "unreachable sampler kind";
  return nullptr;
}

}  // namespace pristi::diffusion
