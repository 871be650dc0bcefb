// Property tests: invariants a component must satisfy for any input, checked
// on random instances rather than against pinned values.
//
// GraphConv (the paper's MPNN, Section III-B1) is message passing on a
// graph, so relabelling the nodes must only relabel its output, and its
// gradients must agree with finite differences. The same holds for the
// PriSTI blocks built on it: the conditional feature module (Eq. 5) and a
// noise estimation layer (Eq. 6-9) attend over nodes and pass messages, and
// nothing else in them depends on a node's index.
//
// The reverse steps of Algorithm 2 are pinned in closed form: with a stub
// predictor that returns a known epsilon and the chain's noise draws known,
// one DDPM step is the standard posterior step and one DDIM step on a kept
// subset is the eta = 0 transfer, both computed here in double from the
// schedule's constants.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "diffusion/ddpm.h"
#include "diffusion/sampler.h"
#include "diffusion/schedule.h"
#include "graph/adjacency.h"
#include "nn/graph_conv.h"
#include "pristi/pristi_model.h"

namespace pristi {
namespace {

using tensor::Tensor;

// A sensor graph whose thresholded kernel leaves many zero weights.
std::vector<Tensor> ClusteredSupports(int64_t n, uint64_t seed) {
  Rng rng(seed);
  graph::SensorGraph sensor_graph =
      graph::BuildSensorGraph(n, rng, /*num_clusters=*/n / 16,
                              /*kernel_threshold=*/0.5);
  return graph::BidirectionalTransitions(sensor_graph.adjacency);
}

// Rows of a (..., N, d) tensor reordered on the node axis: out[.., i, :] =
// x[.., perm[i], :].
Tensor PermuteNodes(const Tensor& x, const std::vector<int64_t>& perm) {
  int64_t n = x.dim(-2);
  int64_t d = x.dim(-1);
  int64_t outer = x.numel() / (n * d);
  Tensor out = Tensor::Zeros(x.shape());
  for (int64_t b = 0; b < outer; ++b) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < d; ++c) {
        out[(b * n + i) * d + c] = x[(b * n + perm[i]) * d + c];
      }
    }
  }
  return out;
}

// P A P^T for an (N, N) matrix: out[i, j] = a[perm[i], perm[j]].
Tensor PermuteSquare(const Tensor& a, const std::vector<int64_t>& perm) {
  int64_t n = a.dim(0);
  Tensor out = Tensor::Zeros(a.shape());
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      out[i * n + j] = a[perm[i] * n + perm[j]];
    }
  }
  return out;
}

TEST(GraphConvProperties, NodePermutationEquivariance) {
  const int64_t n = 48;
  const int64_t d_in = 4;
  const int64_t d_out = 5;
  std::vector<Tensor> supports = ClusteredSupports(n, 5);
  Rng perm_rng(17);
  std::vector<int64_t> perm = perm_rng.Permutation(n);
  std::vector<Tensor> permuted_supports;
  for (const Tensor& support : supports) {
    permuted_supports.push_back(PermuteSquare(support, perm));
  }

  // Same constructor seed -> identical weights; then relabel the node rows
  // of the adaptive embeddings, the only node-indexed parameters.
  Rng rng(11), permuted_rng(11);
  nn::GraphConv conv(d_in, d_out, supports, rng, /*diffusion_steps=*/2,
                     /*adaptive_rank=*/3, /*num_nodes=*/n);
  nn::GraphConv permuted_conv(d_in, d_out, permuted_supports, permuted_rng,
                              /*diffusion_steps=*/2, /*adaptive_rank=*/3,
                              /*num_nodes=*/n);
  ASSERT_TRUE(permuted_conv.has_adaptive());
  int permuted_embeddings = 0;
  for (auto& [name, param] : permuted_conv.NamedParameters()) {
    if (name == "e1" || name == "e2") {
      param.mutable_value() = PermuteNodes(param.value(), perm);
      ++permuted_embeddings;
    }
  }
  ASSERT_EQ(permuted_embeddings, 2);

  Rng data_rng(23);
  Tensor x = Tensor::Randn({3, n, d_in}, data_rng);
  Tensor y = conv.Forward(autograd::Constant(x)).value();
  Tensor permuted_y =
      permuted_conv.Forward(autograd::Constant(PermuteNodes(x, perm)))
          .value();
  Tensor expected = PermuteNodes(y, perm);
  ASSERT_EQ(permuted_y.shape(), expected.shape());
  for (int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_NEAR(permuted_y[i], expected[i], 1e-5f) << "element " << i;
  }
}

// A (B, N, ...) tensor relabelled on the node axis 1: out[b, i, ...] =
// x[b, perm[i], ...].
Tensor PermuteNodeAxis(const Tensor& x, const std::vector<int64_t>& perm) {
  const int64_t batch = x.dim(0), n = x.dim(1);
  const int64_t inner = x.numel() / (batch * n);
  Tensor out = Tensor::Zeros(x.shape());
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < inner; ++c) {
        out[(b * n + i) * inner + c] = x[(b * n + perm[i]) * inner + c];
      }
    }
  }
  return out;
}

// Columns of a (rows, N) matrix relabelled: out[r, i] = a[r, perm[i]].
Tensor PermuteColumns(const Tensor& a, const std::vector<int64_t>& perm) {
  const int64_t rows = a.dim(0), n = a.dim(1);
  Tensor out = Tensor::Zeros(a.shape());
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t i = 0; i < n; ++i) out[r * n + i] = a[r * n + perm[i]];
  }
  return out;
}

bool EndsWith(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

// Relabels every node-indexed parameter of `module`: the rows of the
// adaptive-adjacency embeddings and the node columns of the virtual-node
// projections. Returns how many it relabelled.
int PermuteNodeParameters(nn::Module& module,
                          const std::vector<int64_t>& perm) {
  int relabelled = 0;
  for (auto& [name, param] : module.NamedParameters()) {
    if (EndsWith(name, ".e1") || EndsWith(name, ".e2")) {
      param.mutable_value() = PermuteNodes(param.value(), perm);
      ++relabelled;
    } else if (EndsWith(name, ".pk") || EndsWith(name, ".pv")) {
      param.mutable_value() = PermuteColumns(param.value(), perm);
      ++relabelled;
    }
  }
  return relabelled;
}

void ExpectNear(const Tensor& got, const Tensor& want,
                const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-5f) << what << " element " << i;
  }
}

// A module and its node-relabelled twin: the same constructor seed gives
// identical weights, then the supports, adaptive embeddings and virtual-node
// projection columns are relabelled.
struct PermutedPair {
  core::PristiConfig config;
  std::vector<int64_t> perm;
  std::vector<Tensor> supports;
  std::vector<Tensor> permuted_supports;
};

PermutedPair MakePermutedPair() {
  PermutedPair pair;
  pair.config.num_nodes = 48;
  pair.config.window_len = 5;
  pair.config.channels = 8;
  pair.config.heads = 2;
  pair.config.virtual_nodes = 6;
  pair.config.diffusion_emb_dim = 8;
  pair.config.adaptive_rank = 3;
  pair.supports = ClusteredSupports(pair.config.num_nodes, 5);
  Rng perm_rng(19);
  pair.perm = perm_rng.Permutation(pair.config.num_nodes);
  for (const Tensor& support : pair.supports) {
    pair.permuted_supports.push_back(PermuteSquare(support, pair.perm));
  }
  return pair;
}

TEST(PristiProperties, ConditionalFeatureModuleNodePermutationEquivariance) {
  PermutedPair pair = MakePermutedPair();
  Rng rng(29), permuted_rng(29);
  core::ConditionalFeatureModule module(pair.config, pair.supports, rng);
  core::ConditionalFeatureModule permuted(pair.config,
                                          pair.permuted_supports,
                                          permuted_rng);
  ASSERT_EQ(PermuteNodeParameters(permuted, pair.perm), 4);

  Rng data_rng(31);
  const core::PristiConfig& c = pair.config;
  Tensor h =
      Tensor::Randn({2, c.num_nodes, c.window_len, c.channels}, data_rng);
  Tensor out = module.Forward(autograd::Constant(h)).value();
  Tensor permuted_out =
      permuted.Forward(autograd::Constant(PermuteNodeAxis(h, pair.perm)))
          .value();
  ExpectNear(permuted_out, PermuteNodeAxis(out, pair.perm), "H^pri");
}

TEST(PristiProperties, NoiseEstimationLayerNodePermutationEquivariance) {
  PermutedPair pair = MakePermutedPair();
  Rng rng(37), permuted_rng(37);
  core::NoiseEstimationLayer layer(pair.config, pair.supports, rng);
  core::NoiseEstimationLayer permuted(pair.config, pair.permuted_supports,
                                      permuted_rng);
  ASSERT_EQ(PermuteNodeParameters(permuted, pair.perm), 4);

  Rng data_rng(41);
  const core::PristiConfig& c = pair.config;
  const tensor::Shape shape = {2, c.num_nodes, c.window_len, c.channels};
  Tensor h_in = Tensor::Randn(shape, data_rng);
  Tensor h_pri = Tensor::Randn(shape, data_rng);
  autograd::Variable diff_emb =
      autograd::Constant(Tensor::Randn({c.diffusion_emb_dim}, data_rng));
  core::NoiseEstimationLayer::Output out = layer.Forward(
      autograd::Constant(h_in), autograd::Constant(h_pri), diff_emb);
  core::NoiseEstimationLayer::Output permuted_out = permuted.Forward(
      autograd::Constant(PermuteNodeAxis(h_in, pair.perm)),
      autograd::Constant(PermuteNodeAxis(h_pri, pair.perm)), diff_emb);
  ExpectNear(permuted_out.residual.value(),
             PermuteNodeAxis(out.residual.value(), pair.perm), "residual");
  ExpectNear(permuted_out.skip.value(),
             PermuteNodeAxis(out.skip.value(), pair.perm), "skip");
}

TEST(GraphConvProperties, GradCheck) {
  const int64_t n = 32;
  Rng rng(11);
  nn::GraphConv conv(3, 2, ClusteredSupports(n, 5), rng,
                     /*diffusion_steps=*/2, /*adaptive_rank=*/0,
                     /*num_nodes=*/n);
  auto fn = [&](std::vector<autograd::Variable>& inputs) {
    return autograd::SumAll(conv.Forward(inputs[0]));
  };
  Rng data_rng(23);
  auto result =
      autograd::CheckGradients(fn, {Tensor::Randn({2, n, 3}, data_rng)});
  EXPECT_TRUE(result.ok) << result.message;
}

// ---------------------------------------------------------------------------
// Algorithm 2 in closed form
// ---------------------------------------------------------------------------

// A noise predictor that returns the same epsilon for every call.
class FixedEpsilon : public diffusion::ConditionalNoisePredictor {
 public:
  explicit FixedEpsilon(Tensor eps) : eps_(std::move(eps)) {}
  autograd::Variable PredictNoise(const Tensor& noisy,
                                  const diffusion::DiffusionBatch&,
                                  int64_t) override {
    EXPECT_EQ(noisy.shape(), eps_.shape());
    return autograd::Constant(eps_);
  }
  std::vector<autograd::Variable> Parameters() override { return {}; }
  void ZeroGrad() override {}

 private:
  Tensor eps_;
};

// The schedule's alpha_bar_t, widened: the closed forms below run in double
// from the schedule's own constants, so 1 - alpha_bar near t = 1 carries no
// more cancellation than the sampler's float arithmetic does.
double AlphaBar(const diffusion::NoiseSchedule& schedule, int64_t t) {
  return static_cast<double>(schedule.alpha_bar(t));
}

struct StepInputs {
  Tensor x, eps, mask;
};

// A (1, N, L) state, epsilon and target mask, scaled so that the implied
// clean sample stays well inside the sampler's x0 clamp at `alpha_bar`.
StepInputs MakeStepInputs(double alpha_bar, uint64_t seed) {
  const int64_t n = 5, l = 7;
  Rng rng(seed);
  StepInputs in{Tensor::Randn({1, n, l}, rng), Tensor::Randn({1, n, l}, rng),
                Tensor::Zeros({1, n, l})};
  for (int64_t i = 0; i < in.mask.numel(); ++i) {
    in.mask[i] = rng.Bernoulli(0.7) ? 1.0f : 0.0f;
    in.x[i] *= in.mask[i];
    // x0 = (x - sqrt(1 - ab) eps) / sqrt(ab) stays within +-4.
    in.x[i] = static_cast<float>(in.x[i] * std::sqrt(alpha_bar));
    in.eps[i] = static_cast<float>(in.eps[i] * std::sqrt(alpha_bar));
  }
  return in;
}

// The sampler runs in float on the schedule's float alpha_bar, whose
// rounding (a few 1e-8) is amplified by 1 / (1 - alpha_bar_t) where the
// step's coefficients cancel, so the bound scales with it: about 2e-6 at
// mid t, 4e-4 at t = 5. Returns the largest bound used.
double ExpectStepMatches(const Tensor& got, const std::vector<double>& want,
                         double alpha_bar, const std::string& what) {
  EXPECT_EQ(got.numel(), static_cast<int64_t>(want.size()));
  double widest = 0.0;
  for (int64_t i = 0; i < got.numel(); ++i) {
    const double w = want[static_cast<size_t>(i)];
    const double bound = 1e-6 * (1.0 + std::fabs(w)) / (1.0 - alpha_bar);
    EXPECT_NEAR(got[i], w, bound) << what << ", flat index " << i;
    widest = std::max(widest, bound);
  }
  return widest;
}

// One DDPM reverse step at t:
//   x_{t-1} = (x_t - beta_t / sqrt(1 - alpha_bar_t) eps) / sqrt(alpha_t)
//             + sigma_t z,  sigma_t^2 = (1 - alpha_bar_{t-1})
//                                       / (1 - alpha_bar_t) beta_t,
// the standard posterior step with the 1/sqrt(alpha_t) scaling (EXPERIMENTS.md
// deviation 1: the paper's Algorithm 2 prints 1/sqrt(alpha_bar_t)), projected
// onto the target mask. z is the chain's next N(0, 1) draw per entry, masked
// entries included, so a copy of the chain's Rng predicts it.
TEST(Algorithm2, DdpmStepIsTheStandardPosteriorStep) {
  diffusion::NoiseSchedule schedule =
      diffusion::NoiseSchedule::Quadratic(50, 1e-4f, 0.2f);
  std::vector<diffusion::ReverseStep> plan =
      diffusion::PlanReverseSteps(schedule, 0);
  for (size_t index : {size_t{10}, size_t{30}, size_t{45}}) {
    const int64_t t = plan[index].step;
    ASSERT_EQ(plan[index].prev_step, t - 1);
    const double ab = AlphaBar(schedule, t);
    const double ab_prev = AlphaBar(schedule, t - 1);
    const double beta = schedule.beta(t);
    const double alpha = schedule.alpha(t);
    const double sigma = std::sqrt((1.0 - ab_prev) / (1.0 - ab) * beta);
    StepInputs in = MakeStepInputs(ab, 500 + static_cast<uint64_t>(t));
    FixedEpsilon model(in.eps);
    Tensor x = in.x;
    Rng chain(77), z_rng(77);
    diffusion::MakeSamplerStepper(diffusion::SamplerKind::kDdpm, plan.size())
        ->Step(&model, diffusion::DiffusionBatch{}, plan, index, &x, &chain,
               1, in.mask);

    std::vector<double> want, paper_literal;
    for (int64_t i = 0; i < x.numel(); ++i) {
      const double z = z_rng.Normal() * in.mask[i];
      const double reduced = in.x[i] - beta / std::sqrt(1.0 - ab) * in.eps[i];
      want.push_back((reduced / std::sqrt(alpha) + sigma * z) *
                     in.mask[i]);
      paper_literal.push_back((reduced / std::sqrt(ab) + sigma * z) *
                              in.mask[i]);
    }
    double bound = ExpectStepMatches(x, want, ab, "t=" + std::to_string(t));
    // The paper's printed 1/sqrt(alpha_bar_t) scaling is a different step,
    // far outside the bound once alpha_bar_t has moved away from alpha_t
    // (near t = 1 the two nearly coincide).
    if (t < 10) continue;
    double apart = 0.0;
    for (int64_t i = 0; i < x.numel(); ++i) {
      apart = std::max(apart, std::fabs(x[i] - paper_literal[i]));
    }
    EXPECT_GT(apart, 100 * bound) << "t=" << t;
  }
}

// One DDIM step (eta = 0) across a kept subset that skips steps:
//   x0 = (x_t - sqrt(1 - alpha_bar_t) eps) / sqrt(alpha_bar_t),
//   x_prev = sqrt(alpha_bar_prev) x0 + sqrt(1 - alpha_bar_prev) eps,
// with prev the next kept step, projected onto the target mask.
TEST(Algorithm2, DdimStepOnAKeptSubsetIsTheEtaZeroTransfer) {
  diffusion::NoiseSchedule schedule =
      diffusion::NoiseSchedule::Quadratic(50, 1e-4f, 0.2f);
  std::vector<diffusion::ReverseStep> plan =
      diffusion::PlanReverseSteps(schedule, 10);
  ASSERT_EQ(plan.size(), 10u);
  for (size_t index : {size_t{0}, size_t{4}, size_t{8}}) {
    const int64_t t = plan[index].step;
    const int64_t prev = plan[index].prev_step;
    ASSERT_LT(prev, t - 1) << "the subset must skip steps";
    ASSERT_GT(prev, 0);
    const double ab = AlphaBar(schedule, t);
    const double ab_prev = AlphaBar(schedule, prev);
    StepInputs in = MakeStepInputs(ab, 600 + static_cast<uint64_t>(t));
    FixedEpsilon model(in.eps);
    Tensor x = in.x;
    diffusion::MakeSamplerStepper(diffusion::SamplerKind::kDdim, plan.size())
        ->Step(&model, diffusion::DiffusionBatch{}, plan, index, &x, nullptr,
               1, in.mask);

    std::vector<double> want;
    for (int64_t i = 0; i < x.numel(); ++i) {
      const double x0 =
          (in.x[i] - std::sqrt(1.0 - ab) * in.eps[i]) / std::sqrt(ab);
      want.push_back((std::sqrt(ab_prev) * x0 +
                      std::sqrt(1.0 - ab_prev) * in.eps[i]) *
                     in.mask[i]);
    }
    ExpectStepMatches(x, want, ab,
                      "t=" + std::to_string(t) + " -> " + std::to_string(prev));
  }
}

}  // namespace
}  // namespace pristi
