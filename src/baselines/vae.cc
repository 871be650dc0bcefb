#include "baselines/vae.h"

#include <algorithm>

#include "autograd/ops.h"
#include "common/logging.h"
#include "nn/optimizer.h"

namespace pristi::baselines {

namespace ag = ::pristi::autograd;
namespace t = ::pristi::tensor;

namespace {

Tensor StackWindows(const std::vector<const data::Sample*>& samples,
                    bool values) {
  int64_t b = static_cast<int64_t>(samples.size());
  int64_t n = samples[0]->values.dim(0), l = samples[0]->values.dim(1);
  Tensor out({b, n, l});
  for (int64_t i = 0; i < b; ++i) {
    const Tensor& src = values ? samples[i]->values : samples[i]->observed;
    std::copy(src.data(), src.data() + n * l, out.data() + i * n * l);
  }
  return out;
}

Tensor DropFromMask(const Tensor& mask, double rate, Rng& rng) {
  Tensor out = mask;
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (out[i] > 0.5f && rng.Bernoulli(rate)) out[i] = 0.0f;
  }
  return out;
}

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

Tensor MergeObserved(const data::Sample& sample, const Tensor& decoded) {
  Tensor out = sample.values;
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (sample.observed[i] < 0.5f) out[i] = decoded[i];
  }
  return out;
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
  std::vector<data::Sample> samples = data::ExtractSamples(task, "train");
  CHECK(!samples.empty());
  nn::Adam optimizer(net_->Parameters(), {.lr = options_.lr});
  for (int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    std::vector<int64_t> order =
        rng.Permutation(static_cast<int64_t>(samples.size()));
    for (size_t begin = 0; begin < order.size();
         begin += static_cast<size_t>(options_.batch_size)) {
      size_t end = std::min(order.size(),
                            begin + static_cast<size_t>(options_.batch_size));
      std::vector<const data::Sample*> batch;
      for (size_t i = begin; i < end; ++i) {
        batch.push_back(&samples[static_cast<size_t>(order[i])]);
      }
      Tensor values = StackWindows(batch, true);
      Tensor observed = StackWindows(batch, false);
      Tensor input_mask =
          DropFromMask(observed, options_.extra_mask_rate, rng);
      net_->ZeroGrad();
      auto [mu, logvar] = net_->Encode(values, input_mask);
      Variable z = Reparameterize(mu, logvar, rng);
      Variable decoded = net_->Decode(z);
      Variable recon =
          ag::MaskedMse(decoded, t::Mul(values, observed), observed);
      Variable loss = ag::Add(
          recon, ag::MulScalar(GaussianKl(mu, logvar), options_.kl_weight));
      loss.Backward();
      optimizer.Step();
    }
  }
}

Tensor VrinImputer::Impute(const data::Sample& sample, Rng&) {
  std::vector<const data::Sample*> batch = {&sample};
  Tensor values = StackWindows(batch, true);
  Tensor observed = StackWindows(batch, false);
  auto [mu, logvar] = net_->Encode(values, observed);
  (void)logvar;
  Tensor decoded =
      net_->Decode(mu).value().Reshaped(sample.values.shape());
  return MergeObserved(sample, decoded);
}

diffusion::ImputationResult VrinImputer::ImputeSamples(
    const data::Sample& sample, int64_t num_samples, Rng& rng) {
  std::vector<const data::Sample*> batch = {&sample};
  Tensor values = StackWindows(batch, true);
  Tensor observed = StackWindows(batch, false);
  auto [mu, logvar] = net_->Encode(values, observed);
  diffusion::ImputationResult out;
  out.samples.reserve(static_cast<size_t>(num_samples));
  for (int64_t i = 0; i < num_samples; ++i) {
    Variable z = Reparameterize(mu, logvar, rng);
    Tensor decoded =
        net_->Decode(z).value().Reshaped(sample.values.shape());
    out.samples.push_back(MergeObserved(sample, decoded));
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
  std::vector<data::Sample> samples = data::ExtractSamples(task, "train");
  CHECK(!samples.empty());
  nn::Adam optimizer(net_->Parameters(), {.lr = options_.lr});
  for (int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    std::vector<int64_t> order =
        rng.Permutation(static_cast<int64_t>(samples.size()));
    for (size_t begin = 0; begin < order.size();
         begin += static_cast<size_t>(options_.batch_size)) {
      size_t end = std::min(order.size(),
                            begin + static_cast<size_t>(options_.batch_size));
      std::vector<const data::Sample*> batch;
      for (size_t i = begin; i < end; ++i) {
        batch.push_back(&samples[static_cast<size_t>(order[i])]);
      }
      Tensor values = StackWindows(batch, true);
      Tensor observed = StackWindows(batch, false);
      Tensor input_mask =
          DropFromMask(observed, options_.extra_mask_rate, rng);
      net_->ZeroGrad();
      Net::Encoding enc = net_->Encode(values, input_mask);
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
      Variable recon =
          ag::MaskedMse(decoded, t::Mul(values, observed), observed);
      float inv_l = 1.0f / static_cast<float>(enc.mu.size());
      Variable loss = ag::Add(
          recon,
          ag::Add(ag::MulScalar(kl, options_.kl_weight * inv_l),
                  ag::MulScalar(smooth,
                                options_.smoothness_weight * inv_l)));
      loss.Backward();
      optimizer.Step();
    }
  }
}

Tensor GpVaeImputer::Impute(const data::Sample& sample, Rng&) {
  std::vector<const data::Sample*> batch = {&sample};
  Tensor values = StackWindows(batch, true);
  Tensor observed = StackWindows(batch, false);
  Net::Encoding enc = net_->Encode(values, observed);
  Tensor decoded = net_->DecodeSequence(enc.mu)
                       .value()
                       .Reshaped(sample.values.shape());
  return MergeObserved(sample, decoded);
}

diffusion::ImputationResult GpVaeImputer::ImputeSamples(
    const data::Sample& sample, int64_t num_samples, Rng& rng) {
  std::vector<const data::Sample*> batch = {&sample};
  Tensor values = StackWindows(batch, true);
  Tensor observed = StackWindows(batch, false);
  Net::Encoding enc = net_->Encode(values, observed);
  diffusion::ImputationResult out;
  out.samples.reserve(static_cast<size_t>(num_samples));
  for (int64_t i = 0; i < num_samples; ++i) {
    std::vector<Variable> z;
    z.reserve(enc.mu.size());
    for (size_t step = 0; step < enc.mu.size(); ++step) {
      z.push_back(Reparameterize(enc.mu[step], enc.logvar[step], rng));
    }
    Tensor decoded = net_->DecodeSequence(z)
                         .value()
                         .Reshaped(sample.values.shape());
    out.samples.push_back(MergeObserved(sample, decoded));
  }
  out.FinalizeMedian();
  return out;
}

}  // namespace pristi::baselines
