#include "nn/ema.h"

#include <utility>

#include "common/check.h"

namespace pristi::nn {

using autograd::Variable;
using tensor::Tensor;

EmaWeights::EmaWeights(std::vector<Variable> params, float decay)
    : params_(std::move(params)), decay_(decay) {
  PRISTI_CHECK_GT(decay_, 0.0f);
  PRISTI_CHECK_LT(decay_, 1.0f);
  shadow_.reserve(params_.size());
  for (const Variable& p : params_) {
    PRISTI_CHECK(p.defined());
    // A private copy of the current weights: a header copy would share the
    // parameter's storage, so the first write to either would fork it.
    shadow_.push_back(p.value().Clone());
  }
}

void EmaWeights::Update() {
  PRISTI_CHECK(!shadow_applied_) << "Update() while shadow weights are applied";
  for (size_t i = 0; i < params_.size(); ++i) {
    const Tensor& live = params_[i].value();
    Tensor& shadow = shadow_[i];
    float* ps = shadow.data();
    const float* pl = live.data();
    int64_t n = shadow.numel();
    for (int64_t j = 0; j < n; ++j) {
      ps[j] = decay_ * ps[j] + (1.0f - decay_) * pl[j];
    }
  }
}

void EmaWeights::RestoreShadow(std::vector<Tensor> shadow) {
  PRISTI_CHECK(!shadow_applied_)
      << "RestoreShadow() while shadow weights are applied";
  PRISTI_CHECK_EQ(shadow.size(), params_.size());
  shadow_ = std::move(shadow);
}

void EmaWeights::ApplyShadow() {
  PRISTI_CHECK(!shadow_applied_);
  stash_.clear();
  stash_.reserve(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    stash_.push_back(params_[i].value());
    params_[i].mutable_value() = shadow_[i];
  }
  shadow_applied_ = true;
}

void EmaWeights::Restore() {
  PRISTI_CHECK(shadow_applied_) << "Restore() without ApplyShadow()";
  for (size_t i = 0; i < params_.size(); ++i) {
    params_[i].mutable_value() = stash_[i];
  }
  stash_.clear();
  shadow_applied_ = false;
}

}  // namespace pristi::nn
