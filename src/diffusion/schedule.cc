#include "diffusion/schedule.h"

#include <cmath>
#include <string>

#include "common/check.h"

namespace pristi::diffusion {

Status ValidateScheduleSteps(int64_t num_steps) {
  if (num_steps < 2) {
    return Status::Error(ErrorCode::kInvalidRequest,
                         "diffusion steps must be >= 2, got " +
                             std::to_string(num_steps));
  }
  return Status::Ok();
}

NoiseSchedule::NoiseSchedule(std::vector<float> beta)
    : beta_(std::move(beta)) {
  PRISTI_CHECK(!beta_.empty());
  alpha_.reserve(beta_.size());
  alpha_bar_.reserve(beta_.size());
  float running = 1.0f;
  for (float b : beta_) {
    PRISTI_CHECK_GT(b, 0.0f);
    PRISTI_CHECK_LT(b, 1.0f);
    float a = 1.0f - b;
    alpha_.push_back(a);
    running *= a;
    alpha_bar_.push_back(running);
  }
}

NoiseSchedule NoiseSchedule::Quadratic(int64_t num_steps, float beta_1,
                                       float beta_t_max) {
  PRISTI_CHECK_GT(num_steps, 1);
  std::vector<float> beta(static_cast<size_t>(num_steps));
  float s1 = std::sqrt(beta_1);
  float st = std::sqrt(beta_t_max);
  for (int64_t t = 1; t <= num_steps; ++t) {
    float w = static_cast<float>(t - 1) / static_cast<float>(num_steps - 1);
    float root = (1.0f - w) * s1 + w * st;
    beta[static_cast<size_t>(t - 1)] = root * root;
  }
  return NoiseSchedule(std::move(beta));
}

NoiseSchedule NoiseSchedule::Linear(int64_t num_steps, float beta_1,
                                    float beta_t_max) {
  PRISTI_CHECK_GT(num_steps, 1);
  std::vector<float> beta(static_cast<size_t>(num_steps));
  for (int64_t t = 1; t <= num_steps; ++t) {
    float w = static_cast<float>(t - 1) / static_cast<float>(num_steps - 1);
    beta[static_cast<size_t>(t - 1)] = beta_1 + w * (beta_t_max - beta_1);
  }
  return NoiseSchedule(std::move(beta));
}

size_t NoiseSchedule::Index(int64_t t) const {
  PRISTI_CHECK_GE(t, 1);
  PRISTI_CHECK_LE(t, num_steps());
  return static_cast<size_t>(t - 1);
}

float NoiseSchedule::alpha_bar(int64_t t) const {
  if (t == 0) return 1.0f;
  return alpha_bar_[Index(t)];
}

float NoiseSchedule::sigma2(int64_t t) const {
  float numerator = 1.0f - alpha_bar(t - 1);
  float denominator = 1.0f - alpha_bar(t);
  return numerator / denominator * beta(t);
}

}  // namespace pristi::diffusion
