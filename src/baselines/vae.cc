#include "baselines/vae.h"

#include "autograd/ops.h"
#include "baselines/window_batches.h"
#include "nn/gru.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace pristi::baselines {

namespace ag = ::pristi::autograd;
namespace t = ::pristi::tensor;
using autograd::Variable;

namespace {

// Weight of the KL term against the masked reconstruction.
constexpr float kKlWeight = 0.05f;
// GP-VAE only: weight of the latent smoothness penalty.
constexpr float kSmoothnessWeight = 0.5f;

// GRU encoder over the window: input per step [x*m, m] of width 2N.
// Returns the sequence of hidden states, one (B, hidden) per step.
std::vector<Variable> EncodeSequence(const nn::GruCell& cell,
                                     const Tensor& values,
                                     const Tensor& mask) {
  int64_t b = values.dim(0), n = values.dim(1), l = values.dim(2);
  Variable h = cell.InitialState(b);
  std::vector<Variable> hidden;
  hidden.reserve(static_cast<size_t>(l));
  for (int64_t step = 0; step < l; ++step) {
    Tensor x_t({b, n}), m_t({b, n});
    for (int64_t bi = 0; bi < b; ++bi) {
      for (int64_t node = 0; node < n; ++node) {
        float m = mask.at({bi, node, step});
        m_t.at({bi, node}) = m;
        x_t.at({bi, node}) = values.at({bi, node, step}) * m;
      }
    }
    Variable input =
        ag::Concat({ag::Constant(x_t), ag::Constant(m_t)}, -1);
    h = cell.Forward(input, h);
    hidden.push_back(h);
  }
  return hidden;
}

// Standard normal KL for diagonal Gaussians:
// 0.5 * sum(mu^2 + exp(logvar) - logvar - 1), averaged over elements.
Variable GaussianKl(const Variable& mu, const Variable& logvar) {
  Variable term = ag::Sub(ag::Add(ag::Square(mu), ag::Exp(logvar)),
                          ag::AddScalar(logvar, 1.0f));
  return ag::MulScalar(ag::MeanAll(term), 0.5f);
}

// Reparameterized sample z = mu + exp(0.5 logvar) * eps.
Variable Reparameterize(const Variable& mu, const Variable& logvar,
                        Rng& rng) {
  Tensor eps = Tensor::Randn(mu.value().shape(), rng);
  return ag::Add(mu, ag::Mul(ag::Exp(ag::MulScalar(logvar, 0.5f)),
                             ag::Constant(eps)));
}

}  // namespace

// ---------------------------------------------------------------------------
// VRIN-lite
// ---------------------------------------------------------------------------

struct VrinImputer::Net : public nn::Module {
  Net(int64_t num_nodes, int64_t window_len, const VaeOptions& options,
      Rng& rng)
      : n(num_nodes),
        l(window_len),
        encoder(2 * num_nodes, options.hidden, rng),
        to_mu(options.hidden, options.latent, rng),
        to_logvar(options.hidden, options.latent, rng),
        decoder(options.latent, options.hidden, num_nodes * window_len, rng) {
    AddChild("encoder", &encoder);
    AddChild("to_mu", &to_mu);
    AddChild("to_logvar", &to_logvar);
    AddChild("decoder", &decoder);
  }

  struct Encoding {
    Variable mu;
    Variable logvar;
  };

  Encoding Encode(const Tensor& values, const Tensor& mask) const {
    std::vector<Variable> hidden = EncodeSequence(encoder, values, mask);
    Variable last = hidden.back();
    return {to_mu.Forward(last), to_logvar.Forward(last)};
  }

  // z: (B, latent) -> (B, N, L).
  Variable Decode(const Variable& z) const {
    int64_t b = z.value().dim(0);
    return ag::Reshape(decoder.Forward(z), {b, n, l});
  }

  int64_t n;
  int64_t l;
  nn::GruCell encoder;
  nn::Linear to_mu;
  nn::Linear to_logvar;
  nn::Mlp decoder;
};

VrinImputer::VrinImputer(int64_t num_nodes, int64_t window_len,
                         VaeOptions options, Rng& rng)
    : options_(options),
      net_(std::make_shared<Net>(num_nodes, window_len, options, rng)) {}

void VrinImputer::Fit(const data::ImputationTask& task, Rng& rng) {
  nn::Adam optimizer(net_->Parameters(), {.lr = kLearningRate});
  auto train_step = [&](const WindowBatch& batch) {
    net_->ZeroGrad();
    auto [mu, logvar] = net_->Encode(batch.values, batch.input_mask);
    Variable z = Reparameterize(mu, logvar, rng);
    Variable decoded = net_->Decode(z);
    Variable recon = ag::MaskedMse(
        decoded, t::Mul(batch.values, batch.observed), batch.observed);
    Variable loss =
        ag::Add(recon, ag::MulScalar(GaussianKl(mu, logvar), kKlWeight));
    loss.Backward();
    optimizer.Step();
  };
  ForEachTrainingBatch(task, options_.epochs, rng, train_step);
}

Tensor VrinImputer::Impute(const data::Sample& sample, Rng&) {
  WindowBatch window = SingleWindow(sample);
  Variable mu = net_->Encode(window.values, window.input_mask).mu;
  return MergeObserved(sample, net_->Decode(mu).value());
}

diffusion::ImputationResult VrinImputer::ImputeSamples(
    const data::Sample& sample, int64_t num_samples, Rng& rng) {
  WindowBatch window = SingleWindow(sample);
  auto [mu, logvar] = net_->Encode(window.values, window.input_mask);
  diffusion::ImputationResult out;
  out.samples.reserve(static_cast<size_t>(num_samples));
  for (int64_t i = 0; i < num_samples; ++i) {
    Variable z = Reparameterize(mu, logvar, rng);
    out.samples.push_back(MergeObserved(sample, net_->Decode(z).value()));
  }
  out.FinalizeMedian();
  return out;
}

// ---------------------------------------------------------------------------
// GP-VAE-lite
// ---------------------------------------------------------------------------

struct GpVaeImputer::Net : public nn::Module {
  Net(int64_t num_nodes, const VaeOptions& options, Rng& rng)
      : n(num_nodes),
        encoder(2 * num_nodes, options.hidden, rng),
        to_mu(options.hidden, options.latent, rng),
        to_logvar(options.hidden, options.latent, rng),
        decoder(options.latent, options.hidden, num_nodes, rng) {
    AddChild("encoder", &encoder);
    AddChild("to_mu", &to_mu);
    AddChild("to_logvar", &to_logvar);
    AddChild("decoder", &decoder);
  }

  struct Encoding {
    std::vector<Variable> mu;      // per step, (B, latent)
    std::vector<Variable> logvar;  // per step, (B, latent)
  };

  Encoding Encode(const Tensor& values, const Tensor& mask) const {
    Encoding enc;
    for (const Variable& h : EncodeSequence(encoder, values, mask)) {
      enc.mu.push_back(to_mu.Forward(h));
      enc.logvar.push_back(to_logvar.Forward(h));
    }
    return enc;
  }

  // Per-step latents -> (B, N, L).
  Variable DecodeSequence(const std::vector<Variable>& z) const {
    std::vector<Variable> steps;
    steps.reserve(z.size());
    for (const Variable& zt : z) {
      int64_t b = zt.value().dim(0);
      steps.push_back(ag::Reshape(decoder.Forward(zt), {b, n, 1}));
    }
    return ag::Concat(steps, -1);
  }

  int64_t n;
  nn::GruCell encoder;
  nn::Linear to_mu;
  nn::Linear to_logvar;
  nn::Mlp decoder;
};

GpVaeImputer::GpVaeImputer(int64_t num_nodes, VaeOptions options, Rng& rng)
    : options_(options),
      net_(std::make_shared<Net>(num_nodes, options, rng)) {}

void GpVaeImputer::Fit(const data::ImputationTask& task, Rng& rng) {
  nn::Adam optimizer(net_->Parameters(), {.lr = kLearningRate});
  auto train_step = [&](const WindowBatch& batch) {
    net_->ZeroGrad();
    Net::Encoding enc = net_->Encode(batch.values, batch.input_mask);
    std::vector<Variable> z;
    z.reserve(enc.mu.size());
    Variable kl, smooth;
    for (size_t step = 0; step < enc.mu.size(); ++step) {
      z.push_back(Reparameterize(enc.mu[step], enc.logvar[step], rng));
      Variable kl_t = GaussianKl(enc.mu[step], enc.logvar[step]);
      kl = kl.defined() ? ag::Add(kl, kl_t) : kl_t;
      if (step > 0) {
        // GP prior reduced to a latent random-walk smoothness penalty.
        Variable diff = ag::MeanAll(
            ag::Square(ag::Sub(enc.mu[step], enc.mu[step - 1])));
        smooth = smooth.defined() ? ag::Add(smooth, diff) : diff;
      }
    }
    Variable decoded = net_->DecodeSequence(z);
    Variable recon = ag::MaskedMse(
        decoded, t::Mul(batch.values, batch.observed), batch.observed);
    float inv_l = 1.0f / static_cast<float>(enc.mu.size());
    Variable loss = ag::Add(
        recon, ag::Add(ag::MulScalar(kl, kKlWeight * inv_l),
                       ag::MulScalar(smooth, kSmoothnessWeight * inv_l)));
    loss.Backward();
    optimizer.Step();
  };
  ForEachTrainingBatch(task, options_.epochs, rng, train_step);
}

Tensor GpVaeImputer::Impute(const data::Sample& sample, Rng&) {
  WindowBatch window = SingleWindow(sample);
  Net::Encoding enc = net_->Encode(window.values, window.input_mask);
  return MergeObserved(sample, net_->DecodeSequence(enc.mu).value());
}

diffusion::ImputationResult GpVaeImputer::ImputeSamples(
    const data::Sample& sample, int64_t num_samples, Rng& rng) {
  WindowBatch window = SingleWindow(sample);
  Net::Encoding enc = net_->Encode(window.values, window.input_mask);
  diffusion::ImputationResult out;
  out.samples.reserve(static_cast<size_t>(num_samples));
  for (int64_t i = 0; i < num_samples; ++i) {
    std::vector<Variable> z;
    z.reserve(enc.mu.size());
    for (size_t step = 0; step < enc.mu.size(); ++step) {
      z.push_back(Reparameterize(enc.mu[step], enc.logvar[step], rng));
    }
    out.samples.push_back(
        MergeObserved(sample, net_->DecodeSequence(z).value()));
  }
  out.FinalizeMedian();
  return out;
}

}  // namespace pristi::baselines
