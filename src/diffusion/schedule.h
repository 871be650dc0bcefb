#ifndef PRISTI_DIFFUSION_SCHEDULE_H_
#define PRISTI_DIFFUSION_SCHEDULE_H_

// DDPM noise schedules. The paper uses the quadratic schedule (Eq. 13) with
// beta_1 = 1e-4 and beta_T = 0.2 adopted from CSDI; the linear schedule is
// provided for the hyperparameter-sensitivity study (Fig. 8 varies beta_T).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace pristi::diffusion {

// A schedule needs T >= 2 steps (Quadratic and Linear divide by T - 1);
// anything less comes back as kInvalidRequest.
Status ValidateScheduleSteps(int64_t num_steps);

class NoiseSchedule {
 public:
  // Quadratic interpolation in sqrt-beta space (paper Eq. 13):
  //   beta_t = ((T-t)/(T-1) sqrt(beta_1) + (t-1)/(T-1) sqrt(beta_T))^2.
  static NoiseSchedule Quadratic(int64_t num_steps, float beta_1,
                                 float beta_t_max);
  // Linear interpolation of beta itself.
  static NoiseSchedule Linear(int64_t num_steps, float beta_1,
                              float beta_t_max);

  int64_t num_steps() const { return static_cast<int64_t>(beta_.size()); }

  // 1-based diffusion step t in [1, T], matching the paper's notation.
  float beta(int64_t t) const { return beta_[Index(t)]; }
  float alpha(int64_t t) const { return alpha_[Index(t)]; }
  // alpha_bar_t = prod_{i<=t} alpha_i; alpha_bar(0) == 1.
  float alpha_bar(int64_t t) const;
  // Posterior variance sigma_t^2 = (1 - alpha_bar_{t-1}) / (1 - alpha_bar_t)
  // * beta_t (paper Eq. 3).
  float sigma2(int64_t t) const;

 private:
  explicit NoiseSchedule(std::vector<float> beta);
  size_t Index(int64_t t) const;

  std::vector<float> beta_;
  std::vector<float> alpha_;
  std::vector<float> alpha_bar_;
};

}  // namespace pristi::diffusion

#endif  // PRISTI_DIFFUSION_SCHEDULE_H_
