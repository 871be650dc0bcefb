#ifndef PRISTI_PRISTI_PRISTI_MODEL_H_
#define PRISTI_PRISTI_PRISTI_MODEL_H_

// PriSTI: the paper's conditional noise prediction model epsilon_theta
// (Section III-B), composed of
//
//   * a Conditional Feature Extraction module gamma(H, A) (Eq. 5) that turns
//     the interpolated conditional information X into a global context prior
//     H^pri via parallel temporal attention, spatial attention and message
//     passing ("wide" single layer);
//   * a stack of Noise Estimation layers (Eq. 6-9) that denoise the noisy
//     stream with temporal-then-spatial dependency learning ("deep"), where
//     the attention WEIGHTS are computed from H^pri and only the values come
//     from the noisy stream — the paper's key design;
//   * auxiliary information U = MLP(U_tem, U_spa) (Sec. III-B3) added to
//     both modules, and DiffWave-style gated residual/skip stacking.
//
// The ablation switches in PristiConfig reproduce every Table VI variant.

#include <memory>
#include <vector>

#include "diffusion/ddpm.h"
#include "nn/attention.h"
#include "nn/graph_conv.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace pristi::core {

using autograd::Variable;
using diffusion::DiffusionBatch;
using tensor::Tensor;

struct PristiConfig {
  int64_t num_nodes = 0;   // N (required)
  int64_t window_len = 0;  // L (required)
  int64_t channels = 16;        // d      (paper: 64)
  int64_t heads = 4;            //        (paper: 8)
  int64_t layers = 2;           //        (paper: 4)
  int64_t virtual_nodes = 8;    // k      (paper: 16/64); 0 = full attention
  int64_t diffusion_emb_dim = 32;  //     (paper: 128)
  int64_t temporal_emb_dim = 32;   // U_tem channels (paper: 128)
  int64_t node_emb_dim = 16;       // U_spa channels (paper: 16)
  int64_t adaptive_rank = 8;       // adaptive-adjacency embedding rank
  int64_t graph_diffusion_steps = 2;

  // ---- Ablation switches (Table VI) ---------------------------------------
  // mix-STI: no interpolation, no conditional feature module; conditioning
  // is the raw observed values concatenated with the noise.
  bool use_interpolation = true;
  // w/o CF: attention weights computed from the noisy stream itself.
  bool use_conditional_feature = true;
  // w/o tem: drop the temporal dependency module gamma_T.
  bool use_temporal = true;
  // w/o MPNN: drop the message-passing component of gamma_S.
  bool use_mpnn = true;
  // w/o Attn: drop the spatial global attention component of gamma_S.
  // w/o spa (the whole spatial dependency module) drops both.
  bool use_spatial_attention = true;
};

// kInvalidRequest naming the first field a model cannot be built with: a
// non-positive size, heads that do not divide the channels, virtual nodes
// that do not compress the node axis, or embedding widths the sinusoidal
// encodings cannot take. pristi_cli calls it before building a model; the
// constructors' CHECKs then guard programmer errors.
Status ValidatePristiConfig(const PristiConfig& config);

// The "wide" conditional feature extraction module gamma(.) of Eq. 5.
class ConditionalFeatureModule : public nn::Module {
 public:
  ConditionalFeatureModule(const PristiConfig& config,
                           std::vector<Tensor> supports, Rng& rng);

  // h: (B, N, L, d) — the projected interpolated information (plus U).
  Variable Forward(const Variable& h) const;

 private:
  const PristiConfig config_;
  nn::MultiHeadAttention attn_tem_;
  nn::MultiHeadAttention attn_spa_;
  nn::GraphConv mpnn_;
  nn::LayerNorm norm_ta_;
  nn::LayerNorm norm_sa_;
  nn::LayerNorm norm_mp_;
  nn::Mlp mlp_;
};

// One "deep" noise estimation layer (Eq. 6-9 plus gated residual/skip).
class NoiseEstimationLayer : public nn::Module {
 public:
  NoiseEstimationLayer(const PristiConfig& config,
                       std::vector<Tensor> supports, Rng& rng);

  struct Output {
    Variable residual;  // input to the next layer, (B, N, L, d)
    Variable skip;      // contribution to the model output, (B, N, L, d)
  };

  // h_in: noisy stream; h_pri: conditional prior (used for attention
  // weights); diff_emb: (diffusion_emb_dim,) step encoding after the shared
  // MLP.
  Output Forward(const Variable& h_in, const Variable& h_pri,
                 const Variable& diff_emb) const;

 private:
  const PristiConfig config_;
  nn::Linear diff_proj_;
  nn::MultiHeadAttention attn_tem_;
  nn::MultiHeadAttention attn_spa_;
  nn::GraphConv mpnn_;
  nn::LayerNorm norm_sa_;
  nn::LayerNorm norm_mp_;
  nn::Mlp mlp_;
  nn::Conv1x1 mid_conv_;  // d -> 2d, feeds the gated activation
  nn::Conv1x1 out_conv_;  // d -> 2d, split into residual & skip
};

// The full noise prediction network.
class PristiModel : public nn::Module,
                    public diffusion::ConditionalNoisePredictor {
 public:
  // `adjacency` is the (N, N) thresholded-Gaussian-kernel matrix; the model
  // derives the bidirectional transition supports internally.
  PristiModel(const PristiConfig& config, const Tensor& adjacency, Rng& rng);

  Variable PredictNoise(const Tensor& noisy, const DiffusionBatch& batch,
                        int64_t t) override;
  std::vector<Variable> Parameters() override {
    return nn::Module::Parameters();
  }
  void ZeroGrad() override { nn::Module::ZeroGrad(); }

  const PristiConfig& config() const { return config_; }

 private:
  // Builds the auxiliary information U (1, N, L, d); it is the same for
  // every batch row.
  Variable AuxiliaryInfo() const;

  const PristiConfig config_;
  nn::Conv1x1 input_conv_;  // 2 -> d (conditional ‖ noisy)
  nn::Conv1x1 cond_conv_;   // 1 -> d (interpolated info)
  std::unique_ptr<ConditionalFeatureModule> cond_module_;
  std::vector<std::unique_ptr<NoiseEstimationLayer>> layers_;
  nn::Linear diff_mlp1_;
  nn::Linear diff_mlp2_;
  Variable node_embedding_;  // U_spa: (N, node_emb_dim)
  Tensor temporal_encoding_; // U_tem: (L, temporal_emb_dim), fixed
  nn::Linear aux_proj_;      // (temporal+node dims) -> d
  nn::Conv1x1 out_conv1_;    // d -> d
  nn::Conv1x1 out_conv2_;    // d -> 1
};

// ---- Layout helpers shared with the CSDI baseline ---------------------------
// (B, N, L, d) -> (B*N, L, d): per-node temporal sequences.
Variable FlattenTemporal(const Variable& h);
Variable UnflattenTemporal(const Variable& h, int64_t batch, int64_t nodes);
// (B, N, L, d) -> (B*L, N, d): per-step spatial slices.
Variable FlattenSpatial(const Variable& h);
Variable UnflattenSpatial(const Variable& h, int64_t batch, int64_t steps);

}  // namespace pristi::core

#endif  // PRISTI_PRISTI_PRISTI_MODEL_H_
