#include "baselines/csdi.h"

#include <cmath>

#include "autograd/ops.h"
#include "common/check.h"
#include "nn/embeddings.h"
#include "pristi/pristi_model.h"

namespace pristi::baselines {

namespace ag = ::pristi::autograd;
namespace t = ::pristi::tensor;
using core::FlattenSpatial;
using core::FlattenTemporal;
using core::UnflattenSpatial;
using core::UnflattenTemporal;

Status ValidateCsdiConfig(const CsdiConfig& config) {
  // Every CSDI size is also a PriSTI size with the same bound; the
  // PriSTI-only fields are set to values that always pass.
  core::PristiConfig shared;
  shared.num_nodes = config.num_nodes;
  shared.window_len = config.window_len;
  shared.channels = config.channels;
  shared.heads = config.heads;
  shared.layers = config.layers;
  shared.diffusion_emb_dim = config.diffusion_emb_dim;
  shared.temporal_emb_dim = config.temporal_emb_dim;
  shared.node_emb_dim = config.node_emb_dim;
  shared.virtual_nodes = 0;
  shared.adaptive_rank = 0;
  shared.graph_diffusion_steps = 1;
  return core::ValidatePristiConfig(shared);
}

// One CSDI residual layer: temporal self-attention, feature (node)
// self-attention, gated residual/skip.
class CsdiModel::Layer : public nn::Module {
 public:
  Layer(const CsdiConfig& config, Rng& rng)
      : channels_(config.channels),
        diff_proj_(config.diffusion_emb_dim, config.channels, rng),
        attn_tem_(config.channels, config.heads, rng),
        attn_spa_(config.channels, config.heads, rng),
        mid_conv_(config.channels, 2 * config.channels, rng),
        out_conv_(config.channels, 2 * config.channels, rng) {
    AddChild("diff_proj", &diff_proj_);
    AddChild("attn_tem", &attn_tem_);
    AddChild("attn_spa", &attn_spa_);
    AddChild("mid_conv", &mid_conv_);
    AddChild("out_conv", &out_conv_);
  }

  struct Output {
    Variable residual;
    Variable skip;
  };

  Output Forward(const Variable& h_in, const Variable& diff_emb) const {
    int64_t b = h_in.value().dim(0);
    int64_t n = h_in.value().dim(1);
    int64_t l = h_in.value().dim(2);
    Variable y = ag::Add(h_in, diff_proj_.Forward(diff_emb));
    // Temporal transformer layer (self-attention on the mixed stream).
    y = UnflattenTemporal(attn_tem_.Forward(FlattenTemporal(y)), b, n);
    // Feature/node transformer layer.
    y = UnflattenSpatial(attn_spa_.Forward(FlattenSpatial(y)), b, l);
    Variable gated = ag::GatedActivation(mid_conv_.Forward(y));
    Variable both = out_conv_.Forward(gated);
    Variable residual_part = ag::SliceAxis(both, -1, 0, channels_);
    Variable skip = ag::SliceAxis(both, -1, channels_, channels_);
    constexpr float kInvSqrt2 = 0.70710678f;
    return {ag::MulScalar(ag::Add(h_in, residual_part), kInvSqrt2), skip};
  }

 private:
  int64_t channels_;
  nn::Linear diff_proj_;
  nn::MultiHeadAttention attn_tem_;
  nn::MultiHeadAttention attn_spa_;
  nn::Conv1x1 mid_conv_;
  nn::Conv1x1 out_conv_;
};

CsdiModel::CsdiModel(const CsdiConfig& config, Rng& rng)
    : config_(config),
      input_conv_(2, config.channels, rng),
      diff_mlp1_(config.diffusion_emb_dim, config.diffusion_emb_dim, rng),
      diff_mlp2_(config.diffusion_emb_dim, config.diffusion_emb_dim, rng),
      temporal_encoding_(
          nn::SinusoidalEncoding(config.window_len, config.temporal_emb_dim)),
      aux_proj_(config.temporal_emb_dim + config.node_emb_dim + 1,
                config.channels, rng),
      out_conv1_(config.channels, config.channels, rng),
      out_conv2_(config.channels, 1, rng) {
  PRISTI_CHECK_GT(config.num_nodes, 0);
  PRISTI_CHECK_GT(config.window_len, 0);
  AddChild("input_conv", &input_conv_);
  AddChild("diff_mlp1", &diff_mlp1_);
  AddChild("diff_mlp2", &diff_mlp2_);
  AddChild("aux_proj", &aux_proj_);
  AddChild("out_conv1", &out_conv1_);
  AddChild("out_conv2", &out_conv2_);
  node_embedding_ = AddParameter(
      "node_embedding",
      NormalInit({config.num_nodes, config.node_emb_dim}, 0.1f, rng));
  for (int64_t i = 0; i < config_.layers; ++i) {
    layers_.push_back(std::make_unique<Layer>(config_, rng));
    AddChild("layer" + std::to_string(i), layers_.back().get());
  }
}

CsdiModel::~CsdiModel() = default;

Variable CsdiModel::AuxiliaryInfo(int64_t batch_size,
                                  const Tensor& cond_mask) const {
  int64_t n = config_.num_nodes;
  int64_t l = config_.window_len;
  Variable u_tem = ag::Add(
      ag::Constant(
          Tensor::Zeros({batch_size, n, l, config_.temporal_emb_dim})),
      ag::Constant(
          temporal_encoding_.Reshaped({1, 1, l, config_.temporal_emb_dim})));
  Variable u_spa = ag::Add(
      ag::Constant(Tensor::Zeros({batch_size, n, l, config_.node_emb_dim})),
      ag::Reshape(node_embedding_, {1, n, 1, config_.node_emb_dim}));
  // CSDI feeds the conditional mask as side information.
  Variable mask_channel =
      ag::Constant(cond_mask.Reshaped({batch_size, n, l, 1}));
  return aux_proj_.Forward(ag::Concat({u_tem, u_spa, mask_channel}, -1));
}

Variable CsdiModel::PredictNoise(const Tensor& noisy,
                                 const DiffusionBatch& batch, int64_t t) {
  PRISTI_CHECK_EQ(noisy.ndim(), 3);
  int64_t b = noisy.dim(0);
  int64_t n = noisy.dim(1);
  int64_t l = noisy.dim(2);
  PRISTI_CHECK_EQ(n, config_.num_nodes);
  PRISTI_CHECK_EQ(l, config_.window_len);

  // Raw observed values (no interpolation) ‖ noisy sample.
  Variable cond_channel =
      ag::Reshape(ag::Constant(batch.cond_values), {b, n, l, 1});
  Variable noisy_channel = ag::Reshape(ag::Constant(noisy), {b, n, l, 1});
  Variable h = input_conv_.Forward(
      ag::Concat({cond_channel, noisy_channel}, -1));
  // The side information reads only cond_mask and the weights: within a
  // reverse run it is computed once and read back from the step cache.
  diffusion::StepInvariantCache* cache =
      diffusion::UsableStepCache(batch, this);
  Variable aux;
  if (cache != nullptr && !cache->tensors.empty()) {
    PRISTI_CHECK_EQ(cache->tensors[0].dim(0), b);
    aux = ag::Constant(cache->tensors[0]);
  } else {
    aux = AuxiliaryInfo(b, batch.cond_mask);
    if (cache != nullptr) cache->tensors.push_back(aux.value());
  }
  h = ag::Add(h, aux);

  Variable diff_emb = ag::Constant(
      nn::DiffusionStepEncoding(t, config_.diffusion_emb_dim));
  diff_emb = diff_mlp2_.Forward(ag::Relu(diff_mlp1_.Forward(diff_emb)));

  Variable skip_sum;
  for (const auto& layer : layers_) {
    Layer::Output out = layer->Forward(h, diff_emb);
    h = out.residual;
    skip_sum = skip_sum.defined() ? ag::Add(skip_sum, out.skip) : out.skip;
  }
  float inv_sqrt_layers =
      1.0f / std::sqrt(static_cast<float>(config_.layers));
  Variable y = ag::MulScalar(skip_sum, inv_sqrt_layers);
  y = out_conv2_.Forward(ag::Relu(out_conv1_.Forward(ag::Relu(y))));
  return ag::Reshape(y, {b, n, l});
}

}  // namespace pristi::baselines
