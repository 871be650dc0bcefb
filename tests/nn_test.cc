// Tests for the NN module library: layer shapes, gradient flow, optimizer
// convergence, serialization round trips, attention semantics.

#include <cmath>
#include <cstring>
#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "nn/attention.h"
#include "nn/embeddings.h"
#include "nn/graph_conv.h"
#include "nn/gru.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "tensor/storage.h"

namespace pristi::nn {
namespace {

namespace ag = ::pristi::autograd;
namespace t = ::pristi::tensor;
using ag::Variable;
using t::AllClose;
using t::Shape;
using t::Tensor;

TEST(LinearLayer, ShapeAndBias) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  Variable x = ag::Constant(Tensor::Ones({2, 5, 4}));
  Variable y = layer.Forward(x);
  EXPECT_EQ(y.value().shape(), (Shape{2, 5, 3}));
  EXPECT_EQ(layer.ParameterCount(), 4 * 3 + 3);
}

TEST(LinearLayer, NoBiasOption) {
  Rng rng(2);
  Linear layer(4, 3, rng, /*bias=*/false);
  EXPECT_EQ(layer.ParameterCount(), 12);
  // Zero input -> zero output without bias.
  Variable y = layer.Forward(ag::Constant(Tensor::Zeros({1, 4})));
  EXPECT_TRUE(AllClose(y.value(), Tensor::Zeros({1, 3})));
}

TEST(LinearLayer, GradientFlowsToParameters) {
  Rng rng(3);
  Linear layer(3, 2, rng);
  Variable x = ag::Constant(Tensor::Ones({4, 3}));
  ag::SumAll(ag::Square(layer.Forward(x))).Backward();
  for (auto& [name, param] : layer.NamedParameters()) {
    EXPECT_TRUE(param.has_grad()) << name;
  }
}

TEST(LayerNormLayer, NormalizesLastAxis) {
  Rng rng(4);
  LayerNorm norm(8);
  Variable x = ag::Constant(Tensor::Randn({5, 8}, rng));
  Variable y = norm.Forward(x);
  // With gamma=1, beta=0, every row should be ~zero-mean unit-variance.
  for (int64_t r = 0; r < 5; ++r) {
    double mean = 0, var = 0;
    for (int64_t c = 0; c < 8; ++c) mean += y.value().at({r, c});
    mean /= 8;
    for (int64_t c = 0; c < 8; ++c) {
      double d = y.value().at({r, c}) - mean;
      var += d * d;
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(MlpLayer, ShapesCompose) {
  Rng rng(5);
  Mlp mlp(6, 12, 4, rng);
  Variable y = mlp.Forward(ag::Constant(Tensor::Ones({3, 6})));
  EXPECT_EQ(y.value().shape(), (Shape{3, 4}));
}

TEST(GatedActivationFn, SplitsAndGates) {
  // filter=0 -> tanh(0)=0 regardless of gate.
  Tensor x({1, 4}, {0.0f, 0.0f, 5.0f, -5.0f});
  Variable y = GatedActivation(ag::Constant(x));
  EXPECT_EQ(y.value().shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.value()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.value()[1], 0.0f);
  // filter large positive, gate large positive -> ~1.
  Tensor x2({1, 2}, {10.0f, 10.0f});
  Variable y2 = GatedActivation(ag::Constant(x2));
  EXPECT_NEAR(y2.value()[0], 1.0f, 1e-3f);
}

// ---------------------------------------------------------------------------
// Attention
// ---------------------------------------------------------------------------

TEST(Attention, OutputShape) {
  Rng rng(6);
  MultiHeadAttention attn(8, 2, rng);
  Variable x = ag::Constant(Tensor::Randn({3, 5, 8}, rng));
  Variable y = attn.Forward(x);
  EXPECT_EQ(y.value().shape(), (Shape{3, 5, 8}));
}

TEST(Attention, DecoupledSourcesDifferFromSelfAttention) {
  Rng rng(7);
  MultiHeadAttention attn(8, 2, rng);
  Variable a = ag::Constant(Tensor::Randn({2, 4, 8}, rng));
  Variable b = ag::Constant(Tensor::Randn({2, 4, 8}, rng));
  Variable self_attn = attn.Forward(a, a);
  Variable cross = attn.Forward(a, b);
  EXPECT_FALSE(AllClose(self_attn.value(), cross.value(), 1e-3f));
}

TEST(Attention, PermutationEquivariantOverBatch) {
  // Swapping two batch entries swaps the outputs.
  Rng rng(8);
  MultiHeadAttention attn(4, 2, rng);
  Tensor x = Tensor::Randn({2, 3, 4}, rng);
  Tensor swapped = t::Concat(
      {t::SliceAxis(x, 0, 1, 1), t::SliceAxis(x, 0, 0, 1)}, 0);
  Tensor y = attn.Forward(ag::Constant(x)).value();
  Tensor y_swapped = attn.Forward(ag::Constant(swapped)).value();
  EXPECT_TRUE(AllClose(t::SliceAxis(y, 0, 0, 1),
                       t::SliceAxis(y_swapped, 0, 1, 1), 1e-5f));
  EXPECT_TRUE(AllClose(t::SliceAxis(y, 0, 1, 1),
                       t::SliceAxis(y_swapped, 0, 0, 1), 1e-5f));
}

TEST(Attention, VirtualNodesReduceKeyCount) {
  Rng rng(9);
  const int64_t n = 10, k = 3;
  MultiHeadAttention attn(8, 2, rng, /*virtual_nodes=*/k, /*seq_len=*/n);
  Variable x = ag::Constant(Tensor::Randn({2, n, 8}, rng));
  Variable y = attn.Forward(x);
  EXPECT_EQ(y.value().shape(), (Shape{2, n, 8}));
  EXPECT_EQ(attn.virtual_nodes(), k);
}

TEST(Attention, GradientsReachAllParameters) {
  Rng rng(10);
  MultiHeadAttention attn(4, 2, rng, /*virtual_nodes=*/2, /*seq_len=*/5);
  Variable qk = ag::Constant(Tensor::Randn({1, 5, 4}, rng));
  Variable v = ag::Constant(Tensor::Randn({1, 5, 4}, rng));
  ag::SumAll(ag::Square(attn.Forward(qk, v))).Backward();
  for (auto& [name, param] : attn.NamedParameters()) {
    EXPECT_TRUE(param.has_grad()) << name;
  }
}

// ---------------------------------------------------------------------------
// GraphConv
// ---------------------------------------------------------------------------

Tensor RowNormalizedRing(int64_t n) {
  // Ring graph transition matrix: each node averages its two neighbours.
  Tensor a = Tensor::Zeros({n, n});
  for (int64_t i = 0; i < n; ++i) {
    a.at({i, (i + 1) % n}) = 0.5f;
    a.at({i, (i + n - 1) % n}) = 0.5f;
  }
  return a;
}

TEST(GraphConvLayer, ShapeWithSupports) {
  Rng rng(11);
  GraphConv conv(4, 6, {RowNormalizedRing(5)}, rng, /*diffusion_steps=*/2);
  Variable x = ag::Constant(Tensor::Randn({3, 5, 4}, rng));
  Variable y = conv.Forward(x);
  EXPECT_EQ(y.value().shape(), (Shape{3, 5, 6}));
}

TEST(GraphConvLayer, AdaptiveAdjacencyIsRowStochastic) {
  Rng rng(12);
  GraphConv conv(4, 4, {}, rng, 2, /*adaptive_rank=*/3, /*num_nodes=*/6);
  Tensor adj = conv.AdaptiveAdjacency().value();
  EXPECT_EQ(adj.shape(), (Shape{6, 6}));
  for (int64_t r = 0; r < 6; ++r) {
    float row_sum = 0;
    for (int64_t c = 0; c < 6; ++c) {
      float v = adj.at({r, c});
      EXPECT_GE(v, 0.0f);
      row_sum += v;
    }
    EXPECT_NEAR(row_sum, 1.0f, 1e-5f);
  }
}

TEST(GraphConvLayer, PropagatesInformationAlongEdges) {
  // Delta input on node 0: after one layer with a ring support, neighbours
  // 1 and n-1 must receive nonzero features (before mixing weights, the
  // diffused channel is nonzero only there).
  Rng rng(13);
  const int64_t n = 6;
  GraphConv conv(1, 1, {RowNormalizedRing(n)}, rng, /*diffusion_steps=*/1,
                 /*adaptive_rank=*/0);
  Tensor x = Tensor::Zeros({1, n, 1});
  x.at({0, 0, 0}) = 1.0f;
  Variable y = conv.Forward(ag::Constant(x));
  // Output should differ between a neighbour of node 0 and a distant node:
  // neighbour sees diffused mass, node 3 does not (1-step diffusion).
  float neighbour = y.value().at({0, 1, 0});
  float distant = y.value().at({0, 3, 0});
  EXPECT_NE(neighbour, distant);
}

TEST(GraphConvLayer, GradientsFlow) {
  Rng rng(14);
  GraphConv conv(3, 3, {RowNormalizedRing(4)}, rng, 2, /*adaptive_rank=*/2,
                 /*num_nodes=*/4);
  Variable x = ag::Constant(Tensor::Randn({2, 4, 3}, rng));
  ag::SumAll(ag::Square(conv.Forward(x))).Backward();
  for (auto& [name, param] : conv.NamedParameters()) {
    EXPECT_TRUE(param.has_grad()) << name;
  }
}

// A dense row-stochastic support with no symmetry, so a transposed read of
// it in the backward would show.
Tensor RandomRowStochastic(int64_t n, Rng& rng) {
  Tensor a = Tensor::Rand({n, n}, rng, 0.1f, 1.0f);
  for (int64_t i = 0; i < n; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < n; ++j) sum += a.at({i, j});
    for (int64_t j = 0; j < n; ++j) a.at({i, j}) /= sum;
  }
  return a;
}

void ExpectBitEqual(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(got.numel())),
            0)
      << what << " is not bit-equal";
}

// GraphConv's forward spelled out the way it was built before the mix was
// streamed: every diffusion step kept, concatenated on the channel axis,
// then one MatMulLastDim against the whole weight.
Variable ConcatThenMatMulGraphConv(GraphConv& conv,
                                   const std::vector<Tensor>& supports,
                                   int64_t steps, const Variable& x) {
  std::map<std::string, Variable> params;
  for (auto& [name, param] : conv.NamedParameters()) params[name] = param;
  std::vector<Variable> features = {x};
  for (const Tensor& support : supports) {
    Variable diffused = x;
    for (int64_t k = 0; k < steps; ++k) {
      diffused = ag::MatMulNodeDim(ag::Constant(support), diffused);
      features.push_back(diffused);
    }
  }
  if (conv.has_adaptive()) {
    Variable adaptive = conv.AdaptiveAdjacency();
    Variable diffused = x;
    for (int64_t k = 0; k < steps; ++k) {
      diffused = ag::MatMulNodeDim(adaptive, diffused);
      features.push_back(diffused);
    }
  }
  Variable mixed = ag::Concat(features, -1);
  return ag::Add(ag::MatMulLastDim(mixed, params.at("weight")),
                 params.at("bias"));
}

TEST(GraphConvLayer, StreamedMixIsBitEqualToConcatThenMatMul) {
  // Odd widths and row counts leave partial GEMM tiles on both axes.
  const int64_t batch = 3, n = 7, d_in = 5, d_out = 19;
  for (bool adaptive : {false, true}) {
    for (int64_t steps : {1, 2}) {
      for (bool grad_mode : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << "adaptive=" << adaptive << " steps=" << steps
                     << " grad_mode=" << grad_mode);
        Rng rng(21);
        std::vector<Tensor> supports = {RowNormalizedRing(n),
                                        RandomRowStochastic(n, rng)};
        GraphConv conv(d_in, d_out, supports, rng, steps,
                       adaptive ? 3 : 0, n);
        Tensor x_value = Tensor::Randn({batch, n, d_in}, rng);
        Tensor probe = Tensor::Randn({batch, n, d_out}, rng);
        if (!grad_mode) {
          ag::NoGradGuard no_grad;
          ExpectBitEqual(
              conv.Forward(ag::Constant(x_value)).value(),
              ConcatThenMatMulGraphConv(conv, supports, steps,
                                        ag::Constant(x_value))
                  .value(),
              "forward");
          continue;
        }
        Variable x(x_value, /*requires_grad=*/true);
        Variable y = conv.Forward(x);
        ag::SumAll(ag::Mul(y, ag::Constant(probe))).Backward();
        std::map<std::string, Tensor> streamed_grads;
        for (auto& [name, param] : conv.NamedParameters()) {
          streamed_grads[name] = param.grad().Clone();
        }
        conv.ZeroGrad();

        Variable x_ref(x_value, /*requires_grad=*/true);
        Variable y_ref =
            ConcatThenMatMulGraphConv(conv, supports, steps, x_ref);
        ag::SumAll(ag::Mul(y_ref, ag::Constant(probe))).Backward();
        ExpectBitEqual(y.value(), y_ref.value(), "forward");
        ExpectBitEqual(x.grad(), x_ref.grad(), "dx");
        for (auto& [name, param] : conv.NamedParameters()) {
          ExpectBitEqual(streamed_grads.at(name), param.grad(), "d" + name);
        }
        EXPECT_EQ(streamed_grads.size(), adaptive ? 4u : 2u);
      }
    }
  }
}

// Live bytes of one zero-filled tensor of `shape`: the pool's size class,
// the unit the inference-peak tests count in.
uint64_t BlockBytes(const Shape& shape) {
  const uint64_t before = t::GetAllocStats().live_bytes;
  Tensor block(shape);
  return t::GetAllocStats().live_bytes - before;
}

// Peak live bytes that `fn` adds above what is live when it starts.
template <typename Fn>
uint64_t PeakAboveLive(Fn&& fn) {
  const uint64_t base = t::GetAllocStats().live_bytes;
  t::ResetPeakLiveBytes();
  fn();
  return t::GetAllocStats().peak_live_bytes - base;
}

TEST(GraphConvLayer, InferencePeakStaysWithinFourOutputBlocks) {
  // Under NoGradGuard the streamed mix holds the output and two consecutive
  // diffusion steps, however many supports x steps the layer mixes; keeping
  // every step plus their concatenation grows with that count.
  const int64_t batch = 64, n = 16, d = 16;
  const std::vector<std::tuple<int64_t, int64_t, bool>> configs = {
      {1, 1, false}, {2, 2, false}, {2, 2, true}, {3, 3, true}};
  for (const auto& [num_supports, steps, adaptive] : configs) {
    SCOPED_TRACE(::testing::Message()
                 << "supports=" << num_supports << " steps=" << steps
                 << " adaptive=" << adaptive);
    Rng rng(31);
    std::vector<Tensor> supports;
    for (int64_t s = 0; s < num_supports; ++s) {
      supports.push_back(RandomRowStochastic(n, rng));
    }
    GraphConv conv(d, d, supports, rng, steps, adaptive ? 4 : 0, n);
    Variable x = ag::Constant(Tensor::Randn({batch, n, d}, rng));
    ag::NoGradGuard no_grad;
    const uint64_t block = BlockBytes({batch, n, d});
    ASSERT_GT(block, 0u);
    Variable y;
    const uint64_t peak_above_input =
        PeakAboveLive([&] { y = conv.Forward(x); });
    EXPECT_LE(peak_above_input, 4 * block)
        << "peak " << peak_above_input << " B above the input, output block "
        << block << " B";
  }
}

TEST(Attention, InferencePeakStaysWithinFourOutputBlocks) {
  // Under NoGradGuard the heads are read from the (B, S, d) projections in
  // place: Q, K, V and the context, then the context and the output. Head-
  // split copies of Q/K/V and a merged copy of the context would add four.
  const int64_t batch = 48, s = 24, d = 16;
  for (int64_t heads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "heads=" << heads);
    Rng rng(32);
    MultiHeadAttention attn(d, heads, rng);
    Variable qk = ag::Constant(Tensor::Randn({batch, s, d}, rng));
    Variable v = ag::Constant(Tensor::Randn({batch, s, d}, rng));
    ag::NoGradGuard no_grad;
    const uint64_t block = BlockBytes({batch, s, d});
    ASSERT_GT(block, 0u);
    Variable y;
    const uint64_t peak = PeakAboveLive([&] { y = attn.Forward(qk, v); });
    EXPECT_LE(peak, 4 * block)
        << "peak " << peak << " B above the inputs, output block " << block
        << " B";
  }
}

TEST(GatedActivationFn, InferencePeakIsOneOutputBlock) {
  // Slices, tanh, sigmoid and product were five half-width blocks.
  const int64_t rows = 4096, d = 32;
  Rng rng(33);
  Variable x = ag::Constant(Tensor::Randn({rows, 2 * d}, rng));
  ag::NoGradGuard no_grad;
  const uint64_t block = BlockBytes({rows, d});
  Variable y;
  const uint64_t peak =
      PeakAboveLive([&] { y = ag::GatedActivation(x); });
  EXPECT_LE(peak, block) << "peak " << peak << " B, output block " << block
                         << " B";
}

TEST(LinearLayer, InferencePeakIsOneOutputBlock) {
  // The bias lands in the product's own block instead of an Add's.
  const int64_t rows = 4096, d_in = 16, d_out = 32;
  Rng rng(34);
  Linear linear(d_in, d_out, rng);
  Variable x = ag::Constant(Tensor::Randn({rows, d_in}, rng));
  ag::NoGradGuard no_grad;
  const uint64_t block = BlockBytes({rows, d_out});
  Variable y;
  const uint64_t peak = PeakAboveLive([&] { y = linear.Forward(x); });
  EXPECT_LE(peak, block) << "peak " << peak << " B, output block " << block
                         << " B";
}

// ---------------------------------------------------------------------------
// GRU
// ---------------------------------------------------------------------------

TEST(Gru, StateShapeAndUpdate) {
  Rng rng(15);
  GruCell cell(3, 5, rng);
  Variable h = cell.InitialState(2);
  EXPECT_EQ(h.value().shape(), (Shape{2, 5}));
  Variable x = ag::Constant(Tensor::Randn({2, 3}, rng));
  Variable h1 = cell.Forward(x, h);
  EXPECT_EQ(h1.value().shape(), (Shape{2, 5}));
  EXPECT_FALSE(AllClose(h1.value(), h.value()));
}

TEST(Gru, HiddenStateIsBounded) {
  // GRU hidden state is a convex combination of tanh outputs and prior
  // state, so it stays in (-1, 1) from a zero start.
  Rng rng(16);
  GruCell cell(2, 4, rng);
  Variable h = cell.InitialState(1);
  for (int step = 0; step < 20; ++step) {
    Variable x = ag::Constant(Tensor::Randn({1, 2}, rng));
    h = cell.Forward(x, h);
  }
  EXPECT_LE(t::MaxAll(h.value()), 1.0f);
  EXPECT_GE(t::MinAll(h.value()), -1.0f);
}

// ---------------------------------------------------------------------------
// Embeddings
// ---------------------------------------------------------------------------

TEST(Embeddings, SinusoidalRangeAndFirstRow) {
  Tensor table = SinusoidalEncoding(10, 8);
  EXPECT_EQ(table.shape(), (Shape{10, 8}));
  // Position 0: sin(0)=0 on even channels, cos(0)=1 on odd channels.
  for (int64_t i = 0; i < 8; i += 2) EXPECT_FLOAT_EQ(table.at({0, i}), 0.0f);
  for (int64_t i = 1; i < 8; i += 2) EXPECT_FLOAT_EQ(table.at({0, i}), 1.0f);
  EXPECT_LE(t::MaxAll(table), 1.0f);
  EXPECT_GE(t::MinAll(table), -1.0f);
}

TEST(Embeddings, DistinctPositionsDistinctRows) {
  Tensor table = SinusoidalEncoding(16, 16);
  Tensor row3 = t::SliceAxis(table, 0, 3, 1);
  Tensor row7 = t::SliceAxis(table, 0, 7, 1);
  EXPECT_FALSE(AllClose(row3, row7, 1e-3f));
}

TEST(Embeddings, StepEncodingMatchesTableRow) {
  Tensor table = SinusoidalEncoding(20, 8);
  Tensor row = DiffusionStepEncoding(13, 8);
  EXPECT_TRUE(AllClose(row, t::SliceAxis(table, 0, 13, 1).Reshaped({8})));
}

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

TEST(AdamOptimizer, MinimizesQuadratic) {
  // minimize ||x - target||^2.
  Tensor target({4}, {1.0f, -2.0f, 0.5f, 3.0f});
  Variable x(Tensor::Zeros({4}), /*requires_grad=*/true);
  Adam opt({x}, {.lr = 0.1f});
  for (int iter = 0; iter < 300; ++iter) {
    opt.ZeroGrad();
    Variable loss = ag::SumAll(ag::Square(ag::Sub(x, ag::Constant(target))));
    loss.Backward();
    opt.Step();
  }
  EXPECT_TRUE(AllClose(x.value(), target, 1e-2f, 1e-2f));
}

TEST(AdamOptimizer, TrainsLinearRegression) {
  Rng rng(17);
  // y = X w_true; recover w.
  Tensor w_true({3, 1}, {2.0f, -1.0f, 0.5f});
  Tensor xs = Tensor::Randn({64, 3}, rng);
  Tensor ys = t::MatMul(xs, w_true);
  Linear model(3, 1, rng);
  Adam opt(model.Parameters(), {.lr = 0.05f});
  float final_loss = 1e9f;
  for (int iter = 0; iter < 500; ++iter) {
    model.ZeroGrad();
    Variable pred = model.Forward(ag::Constant(xs));
    Variable loss = ag::MeanAll(ag::Square(ag::Sub(pred, ag::Constant(ys))));
    loss.Backward();
    opt.Step();
    final_loss = loss.value()[0];
  }
  EXPECT_LT(final_loss, 1e-3f);
}

TEST(MultiStepSchedule, DecaysAtMilestones) {
  Variable x(Tensor::Zeros({1}), true);
  Adam opt({x}, {.lr = 1e-3f});
  MultiStepLr sched(&opt, {75, 90}, 0.1f);
  sched.Step(10);
  EXPECT_NEAR(opt.lr(), 1e-3f, 1e-9f);
  sched.Step(80);
  EXPECT_NEAR(opt.lr(), 1e-4f, 1e-9f);
  sched.Step(95);
  EXPECT_NEAR(opt.lr(), 1e-5f, 1e-10f);
}

// ---------------------------------------------------------------------------
// Module registry & serialization
// ---------------------------------------------------------------------------

TEST(ModuleRegistry, HierarchicalNames) {
  Rng rng(18);
  Mlp mlp(2, 3, 2, rng);
  auto named = mlp.NamedParameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "fc1.weight");
  EXPECT_EQ(named[1].first, "fc1.bias");
  EXPECT_EQ(named[2].first, "fc2.weight");
  EXPECT_EQ(named[3].first, "fc2.bias");
}

TEST(ModuleRegistry, OptimizerUpdatesLayerWeights) {
  // The aliasing contract: Variables returned by Parameters() share storage
  // with the layer, so optimizer steps change layer behaviour.
  Rng rng(21);
  Linear layer(2, 1, rng);
  Tensor probe = Tensor::Ones({1, 2});
  float before = layer.Forward(ag::Constant(probe)).value()[0];
  Adam opt(layer.Parameters(), {.lr = 0.5f});
  layer.ZeroGrad();
  ag::SumAll(layer.Forward(ag::Constant(probe))).Backward();
  opt.Step();
  float after = layer.Forward(ag::Constant(probe)).value()[0];
  EXPECT_NE(before, after);
}

// Parameterized sweep: attention output shape holds across head counts and
// virtual-node settings.
class AttentionConfigTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AttentionConfigTest, ForwardShape) {
  auto [heads, virtual_nodes] = GetParam();
  Rng rng(30 + heads);
  const int64_t n = 9, d = 8;
  MultiHeadAttention attn(d, heads, rng, virtual_nodes,
                          virtual_nodes > 0 ? n : 0);
  Variable x = ag::Constant(Tensor::Randn({2, n, d}, rng));
  EXPECT_EQ(attn.Forward(x).value().shape(), (Shape{2, n, d}));
}

INSTANTIATE_TEST_SUITE_P(Configs, AttentionConfigTest,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(0, 2, 4)));

}  // namespace
}  // namespace pristi::nn

namespace pristi::nn {
namespace {

namespace ag3 = ::pristi::autograd;
namespace t3 = ::pristi::tensor;

TEST(Attention, OutputLinearInValueSource) {
  // With Q/K fixed to the conditional stream, the attention output is a
  // LINEAR function of the value stream (weights don't depend on V) — the
  // property PriSTI exploits in Eq. 7-8: the noisy stream cannot corrupt
  // the attention pattern, only the mixed values.
  Rng rng(61);
  MultiHeadAttention attn(8, 2, rng);
  t3::Tensor qk = t3::Tensor::Randn({2, 5, 8}, rng);
  t3::Tensor v1 = t3::Tensor::Randn({2, 5, 8}, rng);
  t3::Tensor v2 = t3::Tensor::Randn({2, 5, 8}, rng);
  auto f = [&](const t3::Tensor& v) {
    return attn.Forward(ag3::Constant(qk), ag3::Constant(v)).value();
  };
  t3::Tensor sum_of_outputs = t3::Add(f(v1), f(v2));
  t3::Tensor output_of_sum = f(t3::Add(v1, v2));
  EXPECT_TRUE(t3::AllClose(output_of_sum, sum_of_outputs, 1e-4f, 1e-4f));
  // Sanity: the same is FALSE for self-attention (weights depend on input).
  auto self = [&](const t3::Tensor& x) {
    return attn.Forward(ag3::Constant(x)).value();
  };
  EXPECT_FALSE(t3::AllClose(self(t3::Add(v1, v2)),
                            t3::Add(self(v1), self(v2)), 1e-3f, 1e-3f));
}

TEST(Attention, ForwardIsDeterministic) {
  Rng rng(62);
  MultiHeadAttention attn(8, 4, rng);
  t3::Tensor x = t3::Tensor::Randn({1, 6, 8}, rng);
  t3::Tensor a = attn.Forward(ag3::Constant(x)).value();
  t3::Tensor b = attn.Forward(ag3::Constant(x)).value();
  EXPECT_TRUE(t3::AllClose(a, b, 0.0f, 0.0f));
}

}  // namespace
}  // namespace pristi::nn
