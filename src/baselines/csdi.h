#ifndef PRISTI_BASELINES_CSDI_H_
#define PRISTI_BASELINES_CSDI_H_

// CSDI (Tashiro et al., NeurIPS 2021): the conditional diffusion baseline
// PriSTI improves on. Shares the DDPM substrate with PriSTI but differs in
// exactly the ways the paper contrasts (Sec. I, III-B, V):
//   * conditioning is the raw observed values concatenated with the noisy
//     sample, distinguished only by a mask channel — no interpolation, no
//     conditional feature prior;
//   * two-dimensional self-attention (temporal + feature/node) computed on
//     the mixed stream itself;
//   * no message passing / geographic information at all.

#include <memory>
#include <vector>

#include "diffusion/ddpm.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace pristi::baselines {

using autograd::Variable;
using diffusion::DiffusionBatch;
using tensor::Tensor;

struct CsdiConfig {
  int64_t num_nodes = 0;
  int64_t window_len = 0;
  int64_t channels = 16;
  int64_t heads = 4;
  int64_t layers = 2;
  int64_t diffusion_emb_dim = 32;
  int64_t temporal_emb_dim = 32;
  int64_t node_emb_dim = 16;
};

// kInvalidRequest naming the first field a model cannot be built with, like
// core::ValidatePristiConfig: a non-positive size or embedding width, or
// heads that do not divide the channels. pristi_cli calls it before
// building a CSDI model; the constructors' CHECKs then guard programmer
// errors.
Status ValidateCsdiConfig(const CsdiConfig& config);

class CsdiModel : public nn::Module,
                  public diffusion::ConditionalNoisePredictor {
 public:
  CsdiModel(const CsdiConfig& config, Rng& rng);
  // Out of line: Layer is an incomplete type here.
  ~CsdiModel() override;

  Variable PredictNoise(const Tensor& noisy, const DiffusionBatch& batch,
                        int64_t t) override;
  std::vector<Variable> Parameters() override {
    return nn::Module::Parameters();
  }
  void ZeroGrad() override { nn::Module::ZeroGrad(); }

  const CsdiConfig& config() const { return config_; }

 private:
  class Layer;
  Variable AuxiliaryInfo(int64_t batch_size,
                         const Tensor& cond_mask) const;

  const CsdiConfig config_;
  nn::Conv1x1 input_conv_;  // 2 -> d (observed ‖ noisy)
  std::vector<std::unique_ptr<Layer>> layers_;
  nn::Linear diff_mlp1_;
  nn::Linear diff_mlp2_;
  Variable node_embedding_;
  Tensor temporal_encoding_;
  nn::Linear aux_proj_;  // (temporal + node + mask channel) -> d
  nn::Conv1x1 out_conv1_;
  nn::Conv1x1 out_conv2_;
};

}  // namespace pristi::baselines

#endif  // PRISTI_BASELINES_CSDI_H_
