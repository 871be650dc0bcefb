#include "pristi/pristi_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "autograd/ops.h"
#include "common/check.h"
#include "graph/adjacency.h"
#include "nn/embeddings.h"

namespace pristi::core {

namespace ag = ::pristi::autograd;
namespace t = ::pristi::tensor;

Variable FlattenTemporal(const Variable& h) {
  const t::Shape& s = h.value().shape();
  PRISTI_CHECK_EQ(s.size(), 4u);
  return ag::Reshape(h, {s[0] * s[1], s[2], s[3]});
}

Variable UnflattenTemporal(const Variable& h, int64_t batch, int64_t nodes) {
  const t::Shape& s = h.value().shape();
  PRISTI_CHECK_EQ(s.size(), 3u);
  return ag::Reshape(h, {batch, nodes, s[1], s[2]});
}

Variable FlattenSpatial(const Variable& h) {
  const t::Shape& s = h.value().shape();
  PRISTI_CHECK_EQ(s.size(), 4u);
  Variable permuted = ag::Permute(h, {0, 2, 1, 3});  // (B, L, N, d)
  return ag::Reshape(permuted, {s[0] * s[2], s[1], s[3]});
}

namespace {

// The value of FlattenSpatial(h): h (B, N, L, d) permuted to (B·L, N, d).
Tensor SpatialLayout(const Tensor& h) {
  const t::Shape& s = h.shape();
  return t::Permute(h, {0, 2, 1, 3}).Reshaped({s[0] * s[2], s[1], s[3]});
}

// Another use of FlattenSpatial(h), whose value `flat` the caller already
// holds, instead of permuting h again. The node's backward is
// FlattenSpatial's inverse permute into h, so each use keeps its own
// gradient path: h's gradient receives the same addends, in the same order
// and with the same bits, as it would from a fresh FlattenSpatial(h) per
// use. Sharing one FlattenSpatial node would sum the uses' gradients before
// the permute and so reorder h's accumulation.
Variable ReuseFlattenSpatial(const Variable& h, const Tensor& flat) {
  auto h_node = h.node();
  return ag::MakeCustomOp(flat, {h}, [h_node](const t::Tensor& g) {
    const t::Shape& s = h_node->value.shape();
    h_node->AccumulateGrad(
        t::Permute(g.Reshaped({s[0], s[2], s[1], s[3]}), {0, 2, 1, 3}));
  });
}

// Rows 0, chains, 2·chains, ... of x's leading axis: one row per window
// when each window's conditioning is repeated for its `chains` chains.
Tensor FirstChainRows(const Tensor& x, int64_t chains) {
  t::Shape shape = x.shape();
  const int64_t row = x.numel() / shape[0];
  shape[0] /= chains;
  Tensor out(shape);
  for (int64_t r = 0; r < shape[0]; ++r) {
    std::copy(x.data() + r * chains * row, x.data() + (r * chains + 1) * row,
              out.data() + r * row);
  }
  return out;
}

// True when rows r·chains .. r·chains+chains-1 of x's leading axis all equal
// row r·chains: the layout DiffusionBatch::chains_per_window promises.
bool ChainRowsShareWindow(const Tensor& x, int64_t chains) {
  const int64_t row = x.numel() / x.dim(0);
  const size_t bytes = static_cast<size_t>(row) * sizeof(float);
  for (int64_t r = 0; r < x.dim(0); ++r) {
    const float* first = x.data() + (r - r % chains) * row;
    if (std::memcmp(x.data() + r * row, first, bytes) != 0) return false;
  }
  return true;
}

// Norm(x + h). `x` is released as soon as the sum exists and the sum once
// the norm does, so without a tape two blocks are live here, not three.
Variable AddNorm(const nn::LayerNorm& norm, Variable&& x, const Variable& h) {
  Variable sum = ag::Add(std::exchange(x, Variable()), h);
  return norm.Forward(sum);
}

}  // namespace

Variable UnflattenSpatial(const Variable& h, int64_t batch, int64_t steps) {
  const t::Shape& s = h.value().shape();
  PRISTI_CHECK_EQ(s.size(), 3u);
  Variable reshaped = ag::Reshape(h, {batch, steps, s[1], s[2]});
  return ag::Permute(reshaped, {0, 2, 1, 3});  // back to (B, N, L, d)
}

// ---------------------------------------------------------------------------
// ConditionalFeatureModule (Eq. 5)
// ---------------------------------------------------------------------------

Status ValidatePristiConfig(const PristiConfig& config) {
  struct Bound {
    const char* name;
    int64_t value;
    int64_t min;
  };
  const Bound bounds[] = {
      {"num_nodes", config.num_nodes, 1},
      {"window_len", config.window_len, 1},
      {"channels", config.channels, 1},
      {"layers", config.layers, 1},
      {"virtual_nodes", config.virtual_nodes, 0},
      {"diffusion_emb_dim", config.diffusion_emb_dim, 2},
      {"temporal_emb_dim", config.temporal_emb_dim, 2},
      {"node_emb_dim", config.node_emb_dim, 1},
      {"adaptive_rank", config.adaptive_rank, 0},
      {"graph_diffusion_steps", config.graph_diffusion_steps, 1},
  };
  for (const Bound& bound : bounds) {
    if (bound.value < bound.min) {
      return Status::Error(ErrorCode::kInvalidRequest,
                           std::string(bound.name) + " must be >= " +
                               std::to_string(bound.min) + ", got " +
                               std::to_string(bound.value));
    }
  }
  Status status = nn::ValidateAttentionHeads(config.channels, config.heads);
  if (!status.ok()) return status;
  if (config.virtual_nodes > 0 && config.virtual_nodes >= config.num_nodes) {
    return Status::Error(ErrorCode::kInvalidRequest,
                         "virtual_nodes=" +
                             std::to_string(config.virtual_nodes) +
                             " must be below num_nodes=" +
                             std::to_string(config.num_nodes));
  }
  return Status::Ok();
}

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
  // Every intermediate is released at its last use: each branch keeps only
  // its normalized output, and the three outputs are dropped as they are
  // summed, before the MLP runs.

  // phi_TA(H) = Norm(Attn_tem(H) + H)
  Variable ta = UnflattenTemporal(attn_tem_.Forward(FlattenTemporal(h)), b, n);
  Variable phi_ta = AddNorm(norm_ta_, std::move(ta), h);

  // phi_SA(H) = Norm(Attn_spa(H) + H)
  Variable h_s = FlattenSpatial(h);
  Variable sa = UnflattenSpatial(attn_spa_.Forward(h_s), b, l);
  Variable phi_sa = AddNorm(norm_sa_, std::move(sa), h);

  // phi_MP(H, A) = Norm(MPNN(H, A) + H)
  Variable mp =
      UnflattenSpatial(mpnn_.Forward(std::exchange(h_s, Variable())), b, l);
  Variable phi_mp = AddNorm(norm_mp_, std::move(mp), h);

  // H^pri = MLP(phi_SA + phi_TA + phi_MP)
  Variable sum = ag::Add(std::exchange(phi_sa, Variable()),
                         std::exchange(phi_ta, Variable()));
  sum = ag::Add(sum, std::exchange(phi_mp, Variable()));
  return mlp_.Forward(sum);
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
    const Variable& h_in, const Variable& h_pri, const Variable& diff_emb,
    const Tensor* h_pri_spa) const {
  int64_t b = h_in.value().dim(0);
  int64_t n = h_in.value().dim(1);
  int64_t l = h_in.value().dim(2);
  // Each stage's input is released once the stage has read it, so without
  // a tape the layer holds its running feature `h` and one stage's working
  // set.

  // Diffusion-step conditioning, broadcast over (B, N, L).
  Variable h = ag::Add(h_in, diff_proj_.Forward(diff_emb));

  // gamma_T: temporal attention, weights from H^pri (Eq. 7). Each of H^pri's
  // rows serves the h rows that share it.
  if (config_.use_temporal) {
    Variable y = std::exchange(h, Variable());
    const Variable& qk = config_.use_conditional_feature ? h_pri : y;
    h = UnflattenTemporal(
        attn_tem_.Forward(FlattenTemporal(qk), FlattenTemporal(y), n), b, n);
  }

  // gamma_S: spatial attention + message passing over the temporal feature
  // (Eq. 6, 8, 9).
  if (config_.use_spatial_attention || config_.use_mpnn) {
    Variable acc;
    {
      Variable h_tem = std::exchange(h, Variable());
      // h_tem is permuted to (B·L, N, d) once; the attention's V, the MPNN
      // and, without the conditional feature, the attention's Q/K reuse it.
      Variable h_tem_spa = FlattenSpatial(h_tem);
      if (config_.use_spatial_attention) {
        Variable sa;
        {
          Variable qk_spa =
              config_.use_conditional_feature
                  ? ReuseFlattenSpatial(h_pri, h_pri_spa != nullptr
                                                   ? *h_pri_spa
                                                   : SpatialLayout(
                                                         h_pri.value()))
                  : ReuseFlattenSpatial(h_tem, h_tem_spa.value());
          sa = UnflattenSpatial(attn_spa_.Forward(qk_spa, h_tem_spa, l), b,
                                l);
        }
        acc = AddNorm(norm_sa_, std::move(sa), h_tem);
      }
      if (config_.use_mpnn) {
        Variable mp = UnflattenSpatial(
            mpnn_.Forward(ReuseFlattenSpatial(
                h_tem, std::exchange(h_tem_spa, Variable()).value())),
            b, l);
        Variable phi_mp = AddNorm(norm_mp_, std::move(mp), h_tem);
        acc = acc.defined() ? ag::Add(acc, phi_mp) : phi_mp;
      }
    }
    h = mlp_.Forward(acc);
  }

  // Gated activation, then split into residual and skip streams.
  Variable gated;
  {
    Variable mid = mid_conv_.Forward(std::exchange(h, Variable()));
    gated = ag::GatedActivation(mid);
  }
  Variable residual_part;
  Output out;
  {
    Variable both = out_conv_.Forward(std::exchange(gated, Variable()));
    residual_part = ag::SliceAxis(both, -1, 0, config_.channels);
    out.skip = ag::SliceAxis(both, -1, config_.channels, config_.channels);
  }
  constexpr float kInvSqrt2 = 0.70710678f;
  Variable sum = ag::Add(h_in, std::exchange(residual_part, Variable()));
  out.residual = ag::MulScalar(sum, kInvSqrt2);
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
  PRISTI_CHECK_GT(config.num_nodes, 0);
  PRISTI_CHECK_GT(config.window_len, 0);
  PRISTI_CHECK_EQ(adjacency.dim(0), config.num_nodes);

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

Variable PristiModel::AuxiliaryInfo() const {
  int64_t n = config_.num_nodes;
  int64_t l = config_.window_len;
  // U_tem: (L, dt) -> broadcast to (1, N, L, dt).
  Variable u_tem = ag::Add(
      ag::Constant(Tensor::Zeros({1, n, l, config_.temporal_emb_dim})),
      ag::Constant(
          temporal_encoding_.Reshaped({1, 1, l, config_.temporal_emb_dim})));
  // U_spa: (N, ds) -> broadcast to (1, N, L, ds). Learnable.
  Variable u_spa = ag::Add(
      ag::Constant(Tensor::Zeros({1, n, l, config_.node_emb_dim})),
      ag::Reshape(node_embedding_, {1, n, 1, config_.node_emb_dim}));
  return aux_proj_.Forward(ag::Concat({u_tem, u_spa}, -1));
}

Variable PristiModel::PredictNoise(const Tensor& noisy,
                                   const DiffusionBatch& batch, int64_t t) {
  PRISTI_CHECK_EQ(noisy.ndim(), 3);
  int64_t b = noisy.dim(0);
  int64_t n = noisy.dim(1);
  int64_t l = noisy.dim(2);
  PRISTI_CHECK_EQ(n, config_.num_nodes);
  PRISTI_CHECK_EQ(l, config_.window_len);

  // Conditional channel: interpolated info (PriSTI) or raw observed values
  // (mix-STI ablation).
  const Tensor& cond = config_.use_interpolation ? batch.interpolated
                                                 : batch.cond_values;
  PRISTI_CHECK(t::ShapesEqual(cond.shape(), noisy.shape()));

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
  // stream and is never cached. U does not depend on the batch row either:
  // it is one (1, N, L, d) block, broadcast over the batch. H^pri depends
  // on the batch row only through the conditioning, which the sampler
  // repeats for the chains_per_window chains of a window: with the cache,
  // H^pri is computed and kept once per window, together with its spatial
  // layout when the spatial attention reads it, and every attention forms
  // its weights once per window.
  diffusion::StepInvariantCache* cache =
      diffusion::UsableStepCache(batch, this);
  bool cached = cache != nullptr && !cache->tensors.empty();
  const int64_t chains = cache != nullptr && config_.use_conditional_feature
                             ? batch.chains_per_window
                             : 1;
  PRISTI_CHECK_GE(chains, 1);
  PRISTI_CHECK_EQ(b % chains, 0);
  const bool spatial_prior =
      config_.use_conditional_feature && config_.use_spatial_attention;
  if (cached && config_.use_conditional_feature) {
    PRISTI_CHECK_EQ(cache->tensors[1].dim(0) * chains, b);
  }
  Variable aux = cached ? ag::Constant(cache->tensors[0]) : AuxiliaryInfo();
  h_in = ag::Add(h_in, aux);

  // Conditional prior H^pri, and its value in the spatial layout.
  Variable h_pri;
  Tensor h_pri_spa;
  if (!config_.use_conditional_feature) {
    h_pri = h_in;  // w/o CF: weights computed from the noisy stream
  } else if (cached) {
    h_pri = ag::Constant(cache->tensors[1]);
    if (spatial_prior) h_pri_spa = cache->tensors[2];
  } else {
    // A batch whose chains do not share their window's conditioning would
    // silently borrow another row's H^pri. ChainRowsShareWindow only reads.
    // pristi-lint: allow-dcheck-purity
    PRISTI_DCHECK(chains == 1 || ChainRowsShareWindow(cond, chains))
        << "chains_per_window = " << chains
        << " but the conditioning rows of a window differ";
    Variable window_cond =
        chains == 1 ? cond_channel
                    : ag::Constant(FirstChainRows(cond, chains)
                                       .Reshaped({b / chains, n, l, 1}));
    Variable h_cond = ag::Add(cond_conv_.Forward(window_cond), aux);
    h_pri = cond_module_->Forward(h_cond);
    if (spatial_prior) h_pri_spa = SpatialLayout(h_pri.value());
  }
  if (cache != nullptr && !cached) {
    cache->tensors.push_back(aux.value());
    if (config_.use_conditional_feature) {
      cache->tensors.push_back(h_pri.value());
      if (spatial_prior) cache->tensors.push_back(h_pri_spa);
    }
  }

  // Diffusion-step embedding through the shared MLP.
  Variable diff_emb = ag::Constant(
      nn::DiffusionStepEncoding(t, config_.diffusion_emb_dim));
  diff_emb = diff_mlp2_.Forward(ag::Relu(diff_mlp1_.Forward(diff_emb)));

  // H^in is the first layer's input and is released with it: only the
  // running residual and the skip sum cross the layers.
  Variable skip_sum;
  {
    Variable h = std::exchange(h_in, Variable());
    for (const auto& layer : layers_) {
      NoiseEstimationLayer::Output out = layer->Forward(
          h, h_pri, diff_emb, spatial_prior ? &h_pri_spa : nullptr);
      h = std::move(out.residual);
      skip_sum = skip_sum.defined() ? ag::Add(skip_sum, out.skip) : out.skip;
    }
  }
  float inv_sqrt_layers =
      1.0f / std::sqrt(static_cast<float>(config_.layers));
  Variable y =
      ag::MulScalar(std::exchange(skip_sum, Variable()), inv_sqrt_layers);
  y = out_conv2_.Forward(ag::Relu(out_conv1_.Forward(ag::Relu(y))));
  return ag::Reshape(y, {b, n, l});
}

}  // namespace pristi::core
