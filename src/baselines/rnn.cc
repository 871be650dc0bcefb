#include "baselines/rnn.h"

#include <algorithm>

#include "autograd/ops.h"
#include "baselines/window_batches.h"
#include "common/check.h"
#include "graph/adjacency.h"
#include "nn/gru.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace pristi::baselines {

namespace ag = ::pristi::autograd;
namespace t = ::pristi::tensor;
using autograd::Variable;

namespace {

// Weight of BRITS's forward/backward consistency term.
constexpr float kConsistencyWeight = 0.1f;

// (B, N, L) -> per-step (B, N) constant slice.
Tensor StepSlice(const Tensor& x, int64_t step) {
  int64_t b = x.dim(0), n = x.dim(1), l = x.dim(2);
  Tensor out({b, n});
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t node = 0; node < n; ++node) {
      out.at({bi, node}) = x.at({bi, node, step * 1});
    }
  }
  (void)l;
  return out;
}

// Stacks per-step (B, N) predictions into (B, N, L) along the last axis.
Variable StackSteps(const std::vector<Variable>& steps) {
  std::vector<Variable> reshaped;
  reshaped.reserve(steps.size());
  for (const Variable& s : steps) {
    int64_t b = s.value().dim(0), n = s.value().dim(1);
    reshaped.push_back(ag::Reshape(s, {b, n, 1}));
  }
  return ag::Concat(reshaped, -1);
}

// Masked mse of a (B, N, L) prediction on the batch's observed entries.
Variable ObservedLoss(const Variable& pred, const WindowBatch& batch) {
  return ag::MaskedMse(pred, t::Mul(batch.values, batch.observed),
                       batch.observed);
}

// One direction of the recurrent imputer: predicts step t from the hidden
// state after step t-1, then feeds the observation (or its own prediction)
// back in.
class RecurrentDirection : public nn::Module {
 public:
  RecurrentDirection(int64_t num_nodes, int64_t hidden, Rng& rng)
      : num_nodes_(num_nodes), cell_(2 * num_nodes, hidden, rng),
        head_(hidden, num_nodes, rng) {
    AddChild("cell", &cell_);
    AddChild("head", &head_);
  }

  // values/input_mask: (B, N, L) constants; `reversed` runs right-to-left.
  // Returns per-step predictions stacked to (B, N, L).
  Variable Run(const Tensor& values, const Tensor& input_mask,
               bool reversed) const {
    int64_t b = values.dim(0), l = values.dim(2);
    PRISTI_CHECK_EQ(values.dim(1), num_nodes_);
    Variable h = cell_.InitialState(b);
    std::vector<Variable> preds(static_cast<size_t>(l));
    for (int64_t idx = 0; idx < l; ++idx) {
      int64_t step = reversed ? l - 1 - idx : idx;
      // Predict this step from history.
      Variable pred = head_.Forward(h);  // (B, N)
      preds[static_cast<size_t>(step)] = pred;
      // Feed back: observation where present, prediction elsewhere.
      Tensor x_t = StepSlice(values, step);
      Tensor m_t = StepSlice(input_mask, step);
      Variable filled = ag::Add(
          ag::Constant(t::Mul(x_t, m_t)),
          ag::Mul(pred, ag::Constant(t::AddScalar(t::Neg(m_t), 1.0f))));
      Variable input = ag::Concat({filled, ag::Constant(m_t)}, -1);
      h = cell_.Forward(input, h);
    }
    return StackSteps(preds);
  }

 private:
  int64_t num_nodes_;
  nn::GruCell cell_;
  nn::Linear head_;
};

}  // namespace

// ---------------------------------------------------------------------------
// BRITS-like
// ---------------------------------------------------------------------------

struct BritsImputer::Net : public nn::Module {
  Net(int64_t num_nodes, int64_t hidden, Rng& rng)
      : fwd(num_nodes, hidden, rng), bwd(num_nodes, hidden, rng) {
    AddChild("fwd", &fwd);
    AddChild("bwd", &bwd);
  }
  // Returns {fwd_pred, bwd_pred}, each (B, N, L).
  std::pair<Variable, Variable> Run(const Tensor& values,
                                    const Tensor& input_mask) const {
    return {fwd.Run(values, input_mask, /*reversed=*/false),
            bwd.Run(values, input_mask, /*reversed=*/true)};
  }
  RecurrentDirection fwd;
  RecurrentDirection bwd;
};

BritsImputer::BritsImputer(int64_t num_nodes, RecurrentOptions options,
                           Rng& rng)
    : options_(options),
      net_(std::make_shared<Net>(num_nodes, options.hidden, rng)) {}

void BritsImputer::Fit(const data::ImputationTask& task, Rng& rng) {
  nn::Adam optimizer(net_->Parameters(), {.lr = kLearningRate});
  auto train_step = [&](const WindowBatch& batch) {
    net_->ZeroGrad();
    auto [pred_f, pred_b] = net_->Run(batch.values, batch.input_mask);
    // Reconstruction on every observed entry + consistency between the
    // two directions.
    Variable loss =
        ag::Add(ObservedLoss(pred_f, batch), ObservedLoss(pred_b, batch));
    loss = ag::Add(
        loss, ag::MulScalar(ag::MeanAll(ag::Square(ag::Sub(pred_f, pred_b))),
                            kConsistencyWeight));
    loss.Backward();
    optimizer.Step();
  };
  ForEachTrainingBatch(task, options_.epochs, rng, train_step);
}

Tensor BritsImputer::Impute(const data::Sample& sample, Rng&) {
  WindowBatch window = SingleWindow(sample);
  auto [pred_f, pred_b] = net_->Run(window.values, window.input_mask);
  return MergeObserved(
      sample, t::MulScalar(t::Add(pred_f.value(), pred_b.value()), 0.5f));
}

// ---------------------------------------------------------------------------
// GRIN-like
// ---------------------------------------------------------------------------

namespace {

// One direction of the node-wise graph recurrent imputer.
class GraphDirection : public nn::Module {
 public:
  GraphDirection(int64_t num_nodes, int64_t hidden, const Tensor& transition,
                 Rng& rng)
      : num_nodes_(num_nodes),
        hidden_(hidden),
        transition_(ag::Constant(transition)),
        cell_(3, hidden, rng),
        head_self_(hidden, 1, rng),
        head_spatial_(2 * hidden, 1, rng) {
    AddChild("cell", &cell_);
    AddChild("head_self", &head_self_);
    AddChild("head_spatial", &head_spatial_);
  }

  // Returns {first_stage, second_stage} predictions, each (B, N, L).
  std::pair<Variable, Variable> Run(const Tensor& values,
                                    const Tensor& input_mask,
                                    bool reversed) const {
    int64_t b = values.dim(0), n = values.dim(1), l = values.dim(2);
    PRISTI_CHECK_EQ(n, num_nodes_);
    // Node-wise hidden state: (B*N, hidden) -> view (B, N, hidden).
    Variable h = cell_.InitialState(b * n);
    std::vector<Variable> stage1(static_cast<size_t>(l));
    std::vector<Variable> stage2(static_cast<size_t>(l));
    for (int64_t idx = 0; idx < l; ++idx) {
      int64_t step = reversed ? l - 1 - idx : idx;
      // First stage: per-node prediction from its own hidden state.
      Variable y1 = head_self_.Forward(h);  // (B*N, 1)
      // Second stage: add spatially aggregated hidden states.
      Variable h3 = ag::Reshape(h, {b, n, hidden_});
      Variable h_nbr = ag::MatMulNodeDim(transition_, h3);
      Variable y2 = head_spatial_.Forward(
          ag::Concat({h3, h_nbr}, -1));  // (B, N, 1)
      Variable y1_bn = ag::Reshape(y1, {b, n});
      Variable y2_bn = ag::Reshape(y2, {b, n});
      stage1[static_cast<size_t>(step)] = y1_bn;
      stage2[static_cast<size_t>(step)] = y2_bn;
      // Feed back second-stage predictions at missing inputs.
      Tensor x_t = StepSlice(values, step);
      Tensor m_t = StepSlice(input_mask, step);
      Variable filled = ag::Add(
          ag::Constant(t::Mul(x_t, m_t)),
          ag::Mul(y2_bn, ag::Constant(t::AddScalar(t::Neg(m_t), 1.0f))));
      // Spatial input feature: neighbour average of the filled values.
      Variable filled3 = ag::Reshape(filled, {b, n, 1});
      Variable x_nbr = ag::MatMulNodeDim(transition_, filled3);
      Variable mask3 = ag::Constant(m_t.Reshaped({b, n, 1}));
      Variable input = ag::Reshape(
          ag::Concat({filled3, mask3, x_nbr}, -1), {b * n, 3});
      h = cell_.Forward(input, h);
    }
    return {StackSteps(stage1), StackSteps(stage2)};
  }

 private:
  int64_t num_nodes_;
  int64_t hidden_;
  Variable transition_;
  nn::GruCell cell_;
  nn::Linear head_self_;
  nn::Linear head_spatial_;
};

}  // namespace

struct GrinImputer::Net : public nn::Module {
  Net(int64_t num_nodes, int64_t hidden, const Tensor& adjacency, Rng& rng)
      : fwd(num_nodes, hidden, graph::TransitionMatrix(adjacency), rng),
        bwd(num_nodes, hidden, graph::TransitionMatrix(adjacency), rng) {
    AddChild("fwd", &fwd);
    AddChild("bwd", &bwd);
  }
  GraphDirection fwd;
  GraphDirection bwd;
};

GrinImputer::GrinImputer(int64_t num_nodes, const Tensor& adjacency,
                         RecurrentOptions options, Rng& rng)
    : options_(options),
      net_(std::make_shared<Net>(num_nodes, options.hidden, adjacency, rng)) {}

void GrinImputer::Fit(const data::ImputationTask& task, Rng& rng) {
  nn::Adam optimizer(net_->Parameters(), {.lr = kLearningRate});
  auto train_step = [&](const WindowBatch& batch) {
    net_->ZeroGrad();
    auto [f1, f2] = net_->fwd.Run(batch.values, batch.input_mask, false);
    auto [b1, b2] = net_->bwd.Run(batch.values, batch.input_mask, true);
    // Both stages and both directions are supervised (as in GRIN).
    Variable loss =
        ag::Add(ag::Add(ObservedLoss(f1, batch), ObservedLoss(f2, batch)),
                ag::Add(ObservedLoss(b1, batch), ObservedLoss(b2, batch)));
    loss.Backward();
    optimizer.Step();
  };
  ForEachTrainingBatch(task, options_.epochs, rng, train_step);
}

Tensor GrinImputer::Impute(const data::Sample& sample, Rng&) {
  WindowBatch window = SingleWindow(sample);
  // The second (spatial) stage imputes, averaged over the two directions.
  Variable f2 = net_->fwd.Run(window.values, window.input_mask, false).second;
  Variable b2 = net_->bwd.Run(window.values, window.input_mask, true).second;
  return MergeObserved(sample,
                       t::MulScalar(t::Add(f2.value(), b2.value()), 0.5f));
}

// ---------------------------------------------------------------------------
// rGAIN-lite
// ---------------------------------------------------------------------------

namespace {

// Per-entry discriminator: [value, hint] -> P(entry was observed).
class EntryDiscriminator : public nn::Module {
 public:
  EntryDiscriminator(int64_t hidden, Rng& rng)
      : fc1_(2, hidden, rng), fc2_(hidden, 1, rng) {
    AddChild("fc1", &fc1_);
    AddChild("fc2", &fc2_);
  }
  // imputed, hint: (B, N, L) -> probabilities (B, N, L).
  Variable Forward(const Variable& imputed, const Tensor& hint) const {
    const t::Shape& s = imputed.value().shape();
    Variable channels = ag::Concat(
        {ag::Reshape(imputed, {s[0], s[1], s[2], 1}),
         ag::Constant(hint.Reshaped({s[0], s[1], s[2], 1}))},
        -1);
    Variable p = ag::Sigmoid(
        fc2_.Forward(ag::Relu(fc1_.Forward(channels))));
    return ag::Reshape(p, {s[0], s[1], s[2]});
  }

 private:
  nn::Linear fc1_;
  nn::Linear fc2_;
};

// Numerically clamped binary cross entropy against constant labels,
// restricted to `weight_mask` entries.
Variable MaskedBce(const Variable& prob, const Tensor& labels,
                   const Tensor& weight_mask) {
  Variable p = ag::AddScalar(ag::MulScalar(prob, 0.998f), 0.001f);
  Variable pos = ag::Mul(ag::Log(p), ag::Constant(labels));
  Variable neg = ag::Mul(ag::Log(ag::AddScalar(ag::Neg(p), 1.0f)),
                         ag::Constant(t::AddScalar(t::Neg(labels), 1.0f)));
  Variable nll = ag::Neg(ag::Add(pos, neg));
  float denom = std::max(1.0f, t::SumAll(weight_mask));
  return ag::MulScalar(ag::SumAll(ag::Mul(nll, ag::Constant(weight_mask))),
                       1.0f / denom);
}

}  // namespace

struct RgainImputer::Net : public nn::Module {
  Net(int64_t num_nodes, int64_t hidden, Rng& rng)
      : fwd(num_nodes, hidden, rng),
        bwd(num_nodes, hidden, rng),
        disc(hidden, rng) {
    AddChild("fwd", &fwd);
    AddChild("bwd", &bwd);
    AddChild("disc", &disc);
  }
  // Generator output: average of the two directions, observations passed
  // through, (B, N, L).
  Variable Generate(const Tensor& values, const Tensor& input_mask) const {
    Variable mean = ag::MulScalar(
        ag::Add(fwd.Run(values, input_mask, false),
                bwd.Run(values, input_mask, true)),
        0.5f);
    // imputed = m * x + (1 - m) * pred
    return ag::Add(
        ag::Constant(t::Mul(values, input_mask)),
        ag::Mul(mean, ag::Constant(t::AddScalar(t::Neg(input_mask), 1.0f))));
  }
  RecurrentDirection fwd;
  RecurrentDirection bwd;
  EntryDiscriminator disc;
};

RgainImputer::RgainImputer(int64_t num_nodes, RecurrentOptions options,
                           Rng& rng)
    : options_(options),
      net_(std::make_shared<Net>(num_nodes, options.hidden, rng)) {}

void RgainImputer::Fit(const data::ImputationTask& task, Rng& rng) {
  nn::Adam gen_opt(net_->fwd.Parameters(), {.lr = kLearningRate});
  nn::Adam gen_opt_b(net_->bwd.Parameters(), {.lr = kLearningRate});
  nn::Adam disc_opt(net_->disc.Parameters(), {.lr = kLearningRate});
  const float kAdvWeight = 0.1f;
  auto train_step = [&](const WindowBatch& batch) {
    // GAIN hint: reveal the true mask at 90% of entries, 0.5 elsewhere.
    Tensor hint = batch.input_mask;
    for (int64_t i = 0; i < hint.numel(); ++i) {
      if (!rng.Bernoulli(0.9)) hint[i] = 0.5f;
    }
    Tensor ones = Tensor::Ones(batch.values.shape());

    // --- Discriminator step (generator detached).
    net_->ZeroGrad();
    Variable imputed_detached =
        net_->Generate(batch.values, batch.input_mask).Detach();
    Variable d_prob = net_->disc.Forward(imputed_detached, hint);
    Variable d_loss = MaskedBce(d_prob, batch.input_mask, ones);
    d_loss.Backward();
    disc_opt.Step();

    // --- Generator step: reconstruction + fooling the discriminator on
    // the imputed entries.
    net_->ZeroGrad();
    Variable imputed = net_->Generate(batch.values, batch.input_mask);
    Variable g_prob = net_->disc.Forward(imputed, hint);
    Tensor missing_mask = t::AddScalar(t::Neg(batch.input_mask), 1.0f);
    Variable adv = MaskedBce(g_prob, ones, missing_mask);
    Variable recon = ObservedLoss(imputed, batch);
    Variable g_loss = ag::Add(recon, ag::MulScalar(adv, kAdvWeight));
    g_loss.Backward();
    gen_opt.Step();
    gen_opt_b.Step();
    net_->disc.ZeroGrad();  // discard leaked discriminator grads
  };
  ForEachTrainingBatch(task, options_.epochs, rng, train_step);
}

Tensor RgainImputer::Impute(const data::Sample& sample, Rng&) {
  WindowBatch window = SingleWindow(sample);
  Tensor imputed = net_->Generate(window.values, window.input_mask).value();
  return imputed.Reshaped(sample.values.shape());
}

}  // namespace pristi::baselines
