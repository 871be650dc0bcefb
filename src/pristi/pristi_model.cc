#include "pristi/pristi_model.h"

#include <cmath>

#include "autograd/ops.h"
#include "common/logging.h"
#include "graph/adjacency.h"
#include "nn/embeddings.h"

namespace pristi::core {

namespace ag = ::pristi::autograd;
namespace t = ::pristi::tensor;

Variable FlattenTemporal(const Variable& h) {
  const t::Shape& s = h.value().shape();
  CHECK_EQ(s.size(), 4u);
  return ag::Reshape(h, {s[0] * s[1], s[2], s[3]});
}

Variable UnflattenTemporal(const Variable& h, int64_t batch, int64_t nodes) {
  const t::Shape& s = h.value().shape();
  CHECK_EQ(s.size(), 3u);
  return ag::Reshape(h, {batch, nodes, s[1], s[2]});
}

Variable FlattenSpatial(const Variable& h) {
  const t::Shape& s = h.value().shape();
  CHECK_EQ(s.size(), 4u);
  Variable permuted = ag::Permute(h, {0, 2, 1, 3});  // (B, L, N, d)
  return ag::Reshape(permuted, {s[0] * s[2], s[1], s[3]});
}

namespace {

// Another use of `flat` = FlattenSpatial(h) that shares its value instead of
// permuting h again. The node's backward is FlattenSpatial's inverse permute
// into h, so each use keeps its own gradient path: h's gradient receives the
// same addends, in the same order and with the same bits, as it would from a
// fresh FlattenSpatial(h) per use. Reusing `flat` itself would sum the uses'
// gradients before the permute and so reorder h's accumulation.
Variable ReuseFlattenSpatial(const Variable& h, const Variable& flat) {
  auto h_node = h.node();
  return ag::MakeCustomOp(flat.value(), {h}, [h_node](const t::Tensor& g) {
    const t::Shape& s = h_node->value.shape();
    h_node->AccumulateGrad(
        t::Permute(g.Reshaped({s[0], s[2], s[1], s[3]}), {0, 2, 1, 3}));
  });
}

}  // namespace

Variable UnflattenSpatial(const Variable& h, int64_t batch, int64_t steps) {
  const t::Shape& s = h.value().shape();
  CHECK_EQ(s.size(), 3u);
  Variable reshaped = ag::Reshape(h, {batch, steps, s[1], s[2]});
  return ag::Permute(reshaped, {0, 2, 1, 3});  // back to (B, N, L, d)
}

// ---------------------------------------------------------------------------
// ConditionalFeatureModule (Eq. 5)
// ---------------------------------------------------------------------------

ConditionalFeatureModule::ConditionalFeatureModule(
    const PristiConfig& config, std::vector<Tensor> supports, Rng& rng)
    : config_(config),
      attn_tem_(config.channels, config.heads, rng),
      attn_spa_(config.channels, config.heads, rng, config.virtual_nodes,
                config.num_nodes),
      mpnn_(config.channels, config.channels, std::move(supports), rng,
            config.graph_diffusion_steps, config.adaptive_rank,
            config.num_nodes),
      norm_ta_(config.channels),
      norm_sa_(config.channels),
      norm_mp_(config.channels),
      mlp_(config.channels, 2 * config.channels, config.channels, rng) {
  AddChild("attn_tem", &attn_tem_);
  AddChild("attn_spa", &attn_spa_);
  AddChild("mpnn", &mpnn_);
  AddChild("norm_ta", &norm_ta_);
  AddChild("norm_sa", &norm_sa_);
  AddChild("norm_mp", &norm_mp_);
  AddChild("mlp", &mlp_);
}

Variable ConditionalFeatureModule::Forward(const Variable& h) const {
  int64_t b = h.value().dim(0);
  int64_t n = h.value().dim(1);
  int64_t l = h.value().dim(2);

  // phi_TA(H) = Norm(Attn_tem(H) + H)
  Variable h_t = FlattenTemporal(h);
  Variable phi_ta = norm_ta_.Forward(
      ag::Add(UnflattenTemporal(attn_tem_.Forward(h_t), b, n), h));

  // phi_SA(H) = Norm(Attn_spa(H) + H)
  Variable h_s = FlattenSpatial(h);
  Variable phi_sa = norm_sa_.Forward(
      ag::Add(UnflattenSpatial(attn_spa_.Forward(h_s), b, l), h));

  // phi_MP(H, A) = Norm(MPNN(H, A) + H)
  Variable phi_mp = norm_mp_.Forward(
      ag::Add(UnflattenSpatial(mpnn_.Forward(h_s), b, l), h));

  // H^pri = MLP(phi_SA + phi_TA + phi_MP)
  return mlp_.Forward(ag::Add(ag::Add(phi_sa, phi_ta), phi_mp));
}

// ---------------------------------------------------------------------------
// NoiseEstimationLayer (Eq. 6-9)
// ---------------------------------------------------------------------------

NoiseEstimationLayer::NoiseEstimationLayer(const PristiConfig& config,
                                           std::vector<Tensor> supports,
                                           Rng& rng)
    : config_(config),
      diff_proj_(config.diffusion_emb_dim, config.channels, rng),
      attn_tem_(config.channels, config.heads, rng),
      attn_spa_(config.channels, config.heads, rng, config.virtual_nodes,
                config.num_nodes),
      mpnn_(config.channels, config.channels, std::move(supports), rng,
            config.graph_diffusion_steps, config.adaptive_rank,
            config.num_nodes),
      norm_sa_(config.channels),
      norm_mp_(config.channels),
      mlp_(config.channels, 2 * config.channels, config.channels, rng),
      mid_conv_(config.channels, 2 * config.channels, rng),
      out_conv_(config.channels, 2 * config.channels, rng) {
  AddChild("diff_proj", &diff_proj_);
  AddChild("attn_tem", &attn_tem_);
  AddChild("attn_spa", &attn_spa_);
  AddChild("mpnn", &mpnn_);
  AddChild("norm_sa", &norm_sa_);
  AddChild("norm_mp", &norm_mp_);
  AddChild("mlp", &mlp_);
  AddChild("mid_conv", &mid_conv_);
  AddChild("out_conv", &out_conv_);
}

NoiseEstimationLayer::Output NoiseEstimationLayer::Forward(
    const Variable& h_in, const Variable& h_pri,
    const Variable& diff_emb) const {
  int64_t b = h_in.value().dim(0);
  int64_t n = h_in.value().dim(1);
  int64_t l = h_in.value().dim(2);

  // Diffusion-step conditioning, broadcast over (B, N, L).
  Variable y = ag::Add(h_in, diff_proj_.Forward(diff_emb));

  // gamma_T: temporal attention, weights from H^pri (Eq. 7).
  Variable h_tem = y;
  if (config_.use_temporal) {
    Variable qk = config_.use_conditional_feature ? h_pri : y;
    h_tem = UnflattenTemporal(
        attn_tem_.Forward(FlattenTemporal(qk), FlattenTemporal(y)), b, n);
  }

  // gamma_S: spatial attention + message passing over the temporal feature
  // (Eq. 6, 8, 9).
  Variable h_spa = h_tem;
  if (config_.use_spatial &&
      (config_.use_spatial_attention || config_.use_mpnn)) {
    // h_tem is permuted to (B·L, N, d) once; the attention's V, the MPNN
    // and, without the conditional feature, the attention's Q/K reuse it.
    Variable h_tem_spa = FlattenSpatial(h_tem);
    Variable acc;
    if (config_.use_spatial_attention) {
      Variable qk_spa = config_.use_conditional_feature
                            ? FlattenSpatial(h_pri)
                            : ReuseFlattenSpatial(h_tem, h_tem_spa);
      Variable sa =
          UnflattenSpatial(attn_spa_.Forward(qk_spa, h_tem_spa), b, l);
      acc = norm_sa_.Forward(ag::Add(sa, h_tem));
    }
    if (config_.use_mpnn) {
      Variable mp = UnflattenSpatial(
          mpnn_.Forward(ReuseFlattenSpatial(h_tem, h_tem_spa)), b, l);
      Variable phi_mp = norm_mp_.Forward(ag::Add(mp, h_tem));
      acc = acc.defined() ? ag::Add(acc, phi_mp) : phi_mp;
    }
    h_spa = mlp_.Forward(acc);
  }

  // Gated activation, then split into residual and skip streams.
  Variable gated = nn::GatedActivation(mid_conv_.Forward(h_spa));
  Variable both = out_conv_.Forward(gated);
  Variable residual_part = ag::SliceAxis(both, -1, 0, config_.channels);
  Variable skip = ag::SliceAxis(both, -1, config_.channels,
                                config_.channels);
  constexpr float kInvSqrt2 = 0.70710678f;
  Output out;
  out.residual = ag::MulScalar(ag::Add(h_in, residual_part), kInvSqrt2);
  out.skip = skip;
  return out;
}

// ---------------------------------------------------------------------------
// PristiModel
// ---------------------------------------------------------------------------

PristiModel::PristiModel(const PristiConfig& config, const Tensor& adjacency,
                         Rng& rng)
    : config_(config),
      input_conv_(2, config.channels, rng),
      cond_conv_(1, config.channels, rng),
      diff_mlp1_(config.diffusion_emb_dim, config.diffusion_emb_dim, rng),
      diff_mlp2_(config.diffusion_emb_dim, config.diffusion_emb_dim, rng),
      temporal_encoding_(
          nn::SinusoidalEncoding(config.window_len, config.temporal_emb_dim)),
      aux_proj_(config.temporal_emb_dim + config.node_emb_dim,
                config.channels, rng),
      out_conv1_(config.channels, config.channels, rng),
      out_conv2_(config.channels, 1, rng) {
  CHECK_GT(config.num_nodes, 0);
  CHECK_GT(config.window_len, 0);
  CHECK_EQ(adjacency.dim(0), config.num_nodes);

  std::vector<Tensor> supports =
      graph::BidirectionalTransitions(adjacency);

  AddChild("input_conv", &input_conv_);
  AddChild("cond_conv", &cond_conv_);
  AddChild("diff_mlp1", &diff_mlp1_);
  AddChild("diff_mlp2", &diff_mlp2_);
  AddChild("aux_proj", &aux_proj_);
  AddChild("out_conv1", &out_conv1_);
  AddChild("out_conv2", &out_conv2_);

  node_embedding_ = AddParameter(
      "node_embedding",
      NormalInit({config.num_nodes, config.node_emb_dim}, 0.1f, rng));

  if (config_.use_conditional_feature) {
    cond_module_ =
        std::make_unique<ConditionalFeatureModule>(config_, supports, rng);
    AddChild("cond_module", cond_module_.get());
  }
  for (int64_t i = 0; i < config_.layers; ++i) {
    layers_.push_back(
        std::make_unique<NoiseEstimationLayer>(config_, supports, rng));
    AddChild("layer" + std::to_string(i), layers_.back().get());
  }
}

Variable PristiModel::AuxiliaryInfo(int64_t batch_size) const {
  int64_t n = config_.num_nodes;
  int64_t l = config_.window_len;
  // U_tem: (L, dt) -> broadcast to (B, N, L, dt).
  Variable u_tem = ag::Add(
      ag::Constant(Tensor::Zeros({batch_size, n, l, config_.temporal_emb_dim})),
      ag::Constant(
          temporal_encoding_.Reshaped({1, 1, l, config_.temporal_emb_dim})));
  // U_spa: (N, ds) -> broadcast to (B, N, L, ds). Learnable.
  Variable u_spa = ag::Add(
      ag::Constant(Tensor::Zeros({batch_size, n, l, config_.node_emb_dim})),
      ag::Reshape(node_embedding_, {1, n, 1, config_.node_emb_dim}));
  return aux_proj_.Forward(ag::Concat({u_tem, u_spa}, -1));
}

Variable PristiModel::PredictNoise(const Tensor& noisy,
                                   const DiffusionBatch& batch, int64_t t) {
  CHECK_EQ(noisy.ndim(), 3);
  int64_t b = noisy.dim(0);
  int64_t n = noisy.dim(1);
  int64_t l = noisy.dim(2);
  CHECK_EQ(n, config_.num_nodes);
  CHECK_EQ(l, config_.window_len);

  // Conditional channel: interpolated info (PriSTI) or raw observed values
  // (mix-STI ablation).
  const Tensor& cond = config_.use_interpolation ? batch.interpolated
                                                 : batch.cond_values;
  CHECK(t::ShapesEqual(cond.shape(), noisy.shape()));

  // H^in = Conv(X(cal) ‖ X_t): stack as channel-last then 1x1 conv.
  Variable cond_channel =
      ag::Reshape(ag::Constant(cond), {b, n, l, 1});
  Variable noisy_channel =
      ag::Reshape(ag::Constant(noisy), {b, n, l, 1});
  Variable h_in = input_conv_.Forward(
      ag::Concat({cond_channel, noisy_channel}, -1));

  // U and H^pri depend only on the conditioning and the weights, so within
  // a reverse run they are computed on the first call and then read back
  // from the batch's step cache. The w/o-CF prior mixes in the noisy
  // stream and is never cached.
  diffusion::StepInvariantCache* cache =
      diffusion::UsableStepCache(batch, this);
  bool cached = cache != nullptr && !cache->tensors.empty();
  if (cached) CHECK_EQ(cache->tensors[0].dim(0), b);
  Variable aux = cached ? ag::Constant(cache->tensors[0]) : AuxiliaryInfo(b);
  h_in = ag::Add(h_in, aux);

  // Conditional prior H^pri.
  Variable h_pri;
  if (!config_.use_conditional_feature) {
    h_pri = h_in;  // w/o CF: weights computed from the noisy stream
  } else if (cached) {
    h_pri = ag::Constant(cache->tensors[1]);
  } else {
    Variable h_cond = ag::Add(cond_conv_.Forward(cond_channel), aux);
    h_pri = cond_module_->Forward(h_cond);
  }
  if (cache != nullptr && !cached) {
    cache->tensors.push_back(aux.value());
    if (config_.use_conditional_feature) {
      cache->tensors.push_back(h_pri.value());
    }
  }

  // Diffusion-step embedding through the shared MLP.
  Variable diff_emb = ag::Constant(
      nn::DiffusionStepEncoding(t, config_.diffusion_emb_dim));
  diff_emb = diff_mlp2_.Forward(ag::Relu(diff_mlp1_.Forward(diff_emb)));

  Variable h = h_in;
  Variable skip_sum;
  for (const auto& layer : layers_) {
    NoiseEstimationLayer::Output out = layer->Forward(h, h_pri, diff_emb);
    h = out.residual;
    skip_sum = skip_sum.defined() ? ag::Add(skip_sum, out.skip) : out.skip;
  }
  float inv_sqrt_layers =
      1.0f / std::sqrt(static_cast<float>(config_.layers));
  Variable y = ag::MulScalar(skip_sum, inv_sqrt_layers);
  y = out_conv2_.Forward(ag::Relu(out_conv1_.Forward(ag::Relu(y))));
  return ag::Reshape(y, {b, n, l});
}

}  // namespace pristi::core
