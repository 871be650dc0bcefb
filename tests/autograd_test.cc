// Tests for the reverse-mode autodiff tape: closed-form gradients plus
// finite-difference property checks over every operator.

#include "autograd/ops.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "tensor/kernels/kernels.h"

namespace pristi::autograd {
namespace {

namespace t = ::pristi::tensor;
using t::AllClose;
using t::Shape;

TEST(VariableBasics, LeafProperties) {
  Variable v(Tensor::Ones({2, 2}), /*requires_grad=*/true);
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  EXPECT_EQ(v.numel(), 4);
}

TEST(VariableBasics, BackwardThroughSum) {
  Variable x(Tensor({3}, {1, 2, 3}), true);
  Variable loss = SumAll(x);
  loss.Backward();
  EXPECT_TRUE(AllClose(x.grad(), Tensor::Ones({3})));
}

TEST(VariableBasics, GradAccumulatesAcrossBackwardCalls) {
  Variable x(Tensor({2}, {1, 1}), true);
  SumAll(x).Backward();
  SumAll(x).Backward();
  EXPECT_TRUE(AllClose(x.grad(), Tensor::Full({2}, 2.0f)));
  x.ZeroGrad();
  EXPECT_TRUE(AllClose(x.grad(), Tensor::Zeros({2})));
}

TEST(VariableBasics, DetachCutsGraph) {
  Variable x(Tensor({2}, {3, 4}), true);
  Variable y = MulScalar(x, 2.0f);
  Variable z = SumAll(y.Detach());
  z.Backward();
  EXPECT_FALSE(x.has_grad());
}

TEST(VariableBasics, ConstantInputsPruneGraph) {
  Variable c = Constant(Tensor({2}, {1, 2}));
  Variable y = MulScalar(c, 3.0f);
  // No grads anywhere: the op node should not even hold a backward edge.
  EXPECT_EQ(y.node()->parents.size(), 0u);
}

TEST(ChainRule, TwoLayerComposition) {
  // f(x) = sum((2x + 1)^2); df/dx = 2 * (2x+1) * 2 = 8x + 4.
  Variable x(Tensor({3}, {0, 1, -2}), true);
  Variable y = Square(AddScalar(MulScalar(x, 2.0f), 1.0f));
  SumAll(y).Backward();
  EXPECT_TRUE(AllClose(x.grad(), Tensor({3}, {4, 12, -12})));
}

TEST(ChainRule, DiamondGraphAccumulates) {
  // f(x) = sum(x * x + x): both branches contribute to dx.
  Variable x(Tensor({2}, {3, -1}), true);
  Variable y = Add(Mul(x, x), x);
  SumAll(y).Backward();
  EXPECT_TRUE(AllClose(x.grad(), Tensor({2}, {7, -1})));
}

TEST(MatMulGrad, ClosedForm) {
  // f = sum(A B); dA = 1 B^T, dB = A^T 1.
  Variable a(Tensor({2, 2}, {1, 2, 3, 4}), true);
  Variable b(Tensor({2, 2}, {5, 6, 7, 8}), true);
  SumAll(MatMul(a, b)).Backward();
  EXPECT_TRUE(AllClose(a.grad(), Tensor({2, 2}, {11, 15, 11, 15})));
  EXPECT_TRUE(AllClose(b.grad(), Tensor({2, 2}, {4, 4, 6, 6})));
}

TEST(BroadcastGrad, ReducesToParentShape) {
  Variable a(Tensor::Ones({2, 3}), true);
  Variable row(Tensor({1, 3}, {1, 2, 3}), true);
  SumAll(Mul(a, row)).Backward();
  EXPECT_EQ(row.grad().shape(), (Shape{1, 3}));
  // Each row entry is multiplied against 2 ones.
  EXPECT_TRUE(AllClose(row.grad(), Tensor({1, 3}, {2, 2, 2})));
  EXPECT_TRUE(AllClose(a.grad(), Tensor({2, 3}, {1, 2, 3, 1, 2, 3})));
}

TEST(MaskedMseGrad, ZeroAtOptimumAndOnMaskedOut) {
  Tensor target({2, 2}, {1, 2, 3, 4});
  Tensor mask({2, 2}, {1, 0, 1, 0});
  Variable pred(Tensor({2, 2}, {1, 9, 5, 9}), true);
  Variable loss = MaskedMse(pred, target, mask);
  // loss = ((1-1)^2 + (5-3)^2) / 2 = 2.
  EXPECT_NEAR(loss.value()[0], 2.0f, 1e-5f);
  loss.Backward();
  const Tensor& g = pred.grad();
  EXPECT_FLOAT_EQ(g[0], 0.0f);   // at optimum
  EXPECT_FLOAT_EQ(g[1], 0.0f);   // masked out
  EXPECT_FLOAT_EQ(g[3], 0.0f);   // masked out
  EXPECT_NEAR(g[2], 2.0f * 2.0f / 2.0f, 1e-5f);
}

// ---------------------------------------------------------------------------
// Finite-difference checks for every operator (property-based).
// ---------------------------------------------------------------------------

TEST(GradCheck, Add) {
  Rng rng(1);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) { return SumAll(Mul(Add(v[0], v[1]), v[0])); },
      {Tensor::Randn({3, 2}, rng), Tensor::Randn({3, 2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, SubDivBroadcast) {
  Rng rng(2);
  Tensor b = t::AddScalar(t::Abs(Tensor::Randn({1, 4}, rng)), 1.0f);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(Div(Sub(v[0], v[1]), v[1])));
      },
      {Tensor::Randn({3, 4}, rng), b});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, UnaryChain) {
  Rng rng(3);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Tanh(Sigmoid(MulScalar(v[0], 1.5f))));
      },
      {Tensor::Randn({5}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, ExpLogSqrt) {
  Rng rng(4);
  Tensor x = t::AddScalar(t::Abs(Tensor::Randn({4}, rng)), 0.8f);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Log(Sqrt(Exp(MulScalar(v[0], 0.5f)))));
      },
      {x});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, ReluAwayFromKink) {
  Rng rng(5);
  // Shift inputs away from 0 so finite differences are valid.
  Tensor x = Tensor::Randn({6}, rng);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x[i]) < 0.15f) x[i] = 0.5f;
  }
  auto r = CheckGradients(
      [](std::vector<Variable>& v) { return SumAll(Square(Relu(v[0]))); },
      {x});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, MatMulBoth) {
  Rng rng(6);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(MatMul(v[0], v[1])));
      },
      {Tensor::Randn({3, 4}, rng), Tensor::Randn({4, 2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, BatchedMatMul) {
  Rng rng(7);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(BatchedMatMul(v[0], v[1])));
      },
      {Tensor::Randn({2, 3, 2}, rng), Tensor::Randn({2, 2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, MatMulNT) {
  Rng rng(61);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(MatMulNT(v[0], v[1])));
      },
      {Tensor::Randn({3, 4}, rng), Tensor::Randn({2, 4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, MatMulTN) {
  Rng rng(62);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(MatMulTN(v[0], v[1])));
      },
      {Tensor::Randn({4, 3}, rng), Tensor::Randn({4, 2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, BatchedMatMulNT) {
  Rng rng(63);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(BatchedMatMulNT(v[0], v[1])));
      },
      {Tensor::Randn({2, 3, 4}, rng), Tensor::Randn({2, 5, 4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, BatchedMatMulTN) {
  Rng rng(64);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(BatchedMatMulTN(v[0], v[1])));
      },
      {Tensor::Randn({2, 4, 3}, rng), Tensor::Randn({2, 4, 5}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, BatchedMatMulNTScaled) {
  Rng rng(66);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(BatchedMatMulNTScaled(v[0], v[1], 0.37f)));
      },
      {Tensor::Randn({2, 3, 4}, rng), Tensor::Randn({2, 5, 4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

// The scaled NT product must equal the MulScalar composition it replaced,
// bitwise, forward and backward (the reference attention path's goldens
// depend on it).
TEST(BatchedMatMulNTScaledGrad, MatchesMulScalarComposition) {
  Rng rng(67);
  const float scale = 1.0f / std::sqrt(8.0f);
  Tensor a0 = Tensor::Randn({3, 4, 6}, rng);
  Tensor b0 = Tensor::Randn({3, 5, 6}, rng);
  Variable a1 = Variable(a0, true), b1 = Variable(b0, true);
  Variable a2 = Variable(a0, true), b2 = Variable(b0, true);
  Variable fused = BatchedMatMulNTScaled(a1, b1, scale);
  Variable composed = MulScalar(BatchedMatMulNT(a2, b2), scale);
  ASSERT_EQ(fused.value().numel(), composed.value().numel());
  for (int64_t i = 0; i < fused.value().numel(); ++i) {
    ASSERT_EQ(fused.value()[i], composed.value()[i]) << "forward at " << i;
  }
  SumAll(Square(fused)).Backward();
  SumAll(Square(composed)).Backward();
  for (int64_t i = 0; i < a0.numel(); ++i) {
    ASSERT_EQ(a1.grad()[i], a2.grad()[i]) << "da at " << i;
  }
  for (int64_t i = 0; i < b0.numel(); ++i) {
    ASSERT_EQ(b1.grad()[i], b2.grad()[i]) << "db at " << i;
  }
}

// Fused streaming attention: the custom backward (block recomputation from
// the saved logsumexp) against central differences. Plain self-attention
// shape, a virtual-node shape (s_k << s_q, the pk_/pv_ path's geometry),
// and ragged sizes that exercise the kv-block tail (s_k not a multiple of
// the kColTile block width) and an odd head_dim, each with one head, then
// heads read in place at their row stride.
TEST(GradCheck, FusedAttention) {
  Rng rng(68);
  auto attn_heads = [](int64_t heads) {
    return [heads](std::vector<Variable>& v) {
      int64_t dh = v[0].value().dim(-1) / heads;
      float scale = 1.0f / std::sqrt(static_cast<float>(dh));
      return SumAll(Square(FusedAttention(v[0], v[1], v[2], heads, scale)));
    };
  };
  auto attn = attn_heads(1);
  // Plain: s_q == s_k == 5, dh = 4, batched (2, 2) leading dims.
  auto r = CheckGradients(attn, {Tensor::Randn({2, 2, 5, 4}, rng),
                                 Tensor::Randn({2, 2, 5, 4}, rng),
                                 Tensor::Randn({2, 2, 5, 4}, rng)});
  EXPECT_TRUE(r.ok) << "plain: " << r.message;
  // Virtual-node geometry: 7 query positions against 2 compressed kv rows.
  r = CheckGradients(attn, {Tensor::Randn({2, 7, 4}, rng),
                            Tensor::Randn({2, 2, 4}, rng),
                            Tensor::Randn({2, 2, 4}, rng)});
  EXPECT_TRUE(r.ok) << "virtual-node: " << r.message;
  // Tail block + odd head_dim: s_k = 19 spans one full kv block and a
  // ragged remainder; dh = 3 is not a SIMD-friendly width.
  r = CheckGradients(attn, {Tensor::Randn({2, 6, 3}, rng),
                            Tensor::Randn({2, 19, 3}, rng),
                            Tensor::Randn({2, 19, 3}, rng)});
  EXPECT_TRUE(r.ok) << "tail: " << r.message;
  // Strided heads: 3 heads of dh = 2 share each row of the (2, 5, 6)
  // operands, and 2 heads of dh = 3 against a ragged s_k = 17.
  r = CheckGradients(attn_heads(3), {Tensor::Randn({2, 5, 6}, rng),
                                     Tensor::Randn({2, 5, 6}, rng),
                                     Tensor::Randn({2, 5, 6}, rng)});
  EXPECT_TRUE(r.ok) << "3 heads: " << r.message;
  r = CheckGradients(attn_heads(2), {Tensor::Randn({2, 4, 6}, rng),
                                     Tensor::Randn({2, 17, 6}, rng),
                                     Tensor::Randn({2, 17, 6}, rng)});
  EXPECT_TRUE(r.ok) << "2 heads, tail: " << r.message;
}

// The NT composition must also agree with the transpose-then-multiply
// spelling it replaced, both forward (bitwise) and backward.
TEST(MatMulNTGrad, MatchesExplicitTransposeComposition) {
  Rng rng(65);
  Tensor a_init = Tensor::Randn({3, 4}, rng);
  Tensor b_init = Tensor::Randn({2, 4}, rng);

  Variable a1(a_init.Clone(), true), b1(b_init.Clone(), true);
  Variable out_nt = MatMulNT(a1, b1);
  SumAll(Square(out_nt)).Backward();

  Variable a2(a_init.Clone(), true), b2(b_init.Clone(), true);
  Variable out_tr = MatMul(a2, TransposeLast2(b2));
  SumAll(Square(out_tr)).Backward();

  EXPECT_TRUE(AllClose(out_nt.value(), out_tr.value(), 0.0f, 0.0f));
  EXPECT_TRUE(AllClose(a1.grad(), a2.grad(), 1e-6f, 1e-6f));
  EXPECT_TRUE(AllClose(b1.grad(), b2.grad(), 1e-6f, 1e-6f));
}

TEST(GradCheck, MatMulLastDim) {
  Rng rng(8);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(MatMulLastDim(v[0], v[1])));
      },
      {Tensor::Randn({2, 3, 4}, rng), Tensor::Randn({4, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, MatMulLastDimBias) {
  Rng rng(69);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(MatMulLastDimBias(v[0], v[1], v[2])));
      },
      {Tensor::Randn({2, 3, 4}, rng), Tensor::Randn({4, 3}, rng),
       Tensor::Randn({3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, GatedActivation) {
  Rng rng(70);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(GatedActivation(v[0])));
      },
      {Tensor::Randn({2, 3, 6}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

void ExpectBitEqual(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(got.numel())),
            0)
      << what << " is not bit-equal";
}

// An upstream gradient with exact zeros of both signs, so the chain's
// `0 +` steps, which turn -0 into +0, are exercised.
Tensor ProbeWithSignedZeros(const Shape& shape, Rng& rng) {
  Tensor g = Tensor::Randn(shape, rng);
  for (int64_t i = 0; i < g.numel(); i += 3) g[i] = i % 2 == 0 ? 0.0f : -0.0f;
  return g;
}

// The fused op against the SliceAxis -> Tanh / Sigmoid -> Mul chain it
// replaced: forward bits in both modes, and the gradient bits of an input
// that a second consumer also reads, so the op's addend must land in the
// same order the chain's did. The rows are long enough to split across
// workers.
TEST(GatedActivationOp, BitEqualToSliceTanhSigmoidMulChain) {
  Rng rng(71);
  const Shape shape = {4, 37, 130};
  Tensor x_value = Tensor::Randn(shape, rng);
  for (int64_t i = 0; i < x_value.numel(); i += 7) x_value[i] = 0.0f;
  Tensor probe = ProbeWithSignedZeros({4, 37, 65}, rng);
  Tensor side = Tensor::Randn(shape, rng);
  auto chain = [](const Variable& x) {
    int64_t d = x.value().dim(-1);
    return Mul(Tanh(SliceAxis(x, -1, 0, d / 2)),
               Sigmoid(SliceAxis(x, -1, d / 2, d / 2)));
  };
  auto run = [&](bool fused, Tensor* out, Tensor* grad) {
    Variable x(x_value, /*requires_grad=*/true);
    Variable y = fused ? GatedActivation(x) : chain(x);
    *out = y.value();
    Add(SumAll(Mul(y, Constant(probe))), SumAll(Mul(x, Constant(side))))
        .Backward();
    *grad = x.grad();
  };
  Tensor out_fused, grad_fused, out_chain, grad_chain;
  run(true, &out_fused, &grad_fused);
  run(false, &out_chain, &grad_chain);
  ExpectBitEqual(out_fused, out_chain, "forward");
  ExpectBitEqual(grad_fused, grad_chain, "dx");
  NoGradGuard no_grad;
  ExpectBitEqual(GatedActivation(Constant(x_value)).value(), out_chain,
                 "inference forward");
}

// Bias folded into the product against Add(MatMulLastDim(x, w), b): forward
// and all three gradients, with the weight and bias used twice so their
// addends must arrive in the same order.
TEST(MatMulLastDimBiasOp, BitEqualToMatMulThenAdd) {
  Rng rng(72);
  Tensor x_value = Tensor::Randn({3, 41, 7}, rng);
  Tensor w_value = Tensor::Randn({7, 19}, rng);
  Tensor b_value = Tensor::Randn({19}, rng);
  Tensor probe = ProbeWithSignedZeros({3, 41, 19}, rng);
  struct Grads {
    Tensor out, dx, dw, db;
  };
  auto run = [&](bool fused) {
    Variable x(x_value, true), w(w_value, true), b(b_value, true);
    auto affine = [&](const Variable& in) {
      return fused ? MatMulLastDimBias(in, w, b)
                   : Add(MatMulLastDim(in, w), b);
    };
    Variable y = affine(x);
    Variable y2 = affine(Tanh(x));
    SumAll(Mul(Add(y, y2), Constant(probe))).Backward();
    return Grads{y.value(), x.grad(), w.grad(), b.grad()};
  };
  Grads fused = run(true);
  Grads chain = run(false);
  ExpectBitEqual(fused.out, chain.out, "forward");
  ExpectBitEqual(fused.dx, chain.dx, "dx");
  ExpectBitEqual(fused.dw, chain.dw, "dw");
  ExpectBitEqual(fused.db, chain.db, "db");
}

TEST(GradCheck, MatMulNodeDim) {
  Rng rng(9);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(MatMulNodeDim(v[0], v[1])));
      },
      {Tensor::Randn({2, 4}, rng), Tensor::Randn({3, 4, 2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

// A fixed support (a Constant p, as GraphConv's supports are) gets no dp:
// the backward runs only the dx GEMM, and dx keeps the bits it has when p
// is a parameter. An interior p — a softmax over a parameter, shaped like
// the adaptive adjacency — still gets both gradients.
TEST(MatMulNodeDimGrad, ConstantSupportSkipsItsGradient) {
  Rng rng(41);
  Tensor p_value = Tensor::Randn({5, 5}, rng);
  Tensor x_value = Tensor::Randn({6, 5, 3}, rng);
  Tensor probe = Tensor::Randn({6, 5, 3}, rng);
  // GEMM calls made by the backward sweep of sum(probe * (p @ x)).
  auto backward_gemms = [&](const Variable& p, const Variable& x) {
    Variable loss = SumAll(Mul(MatMulNodeDim(p, x), Constant(probe)));
    uint64_t before = t::kernels::GetKernelStats().gemm_calls;
    loss.Backward();
    return t::kernels::GetKernelStats().gemm_calls - before;
  };

  Variable x_fixed(x_value, /*requires_grad=*/true);
  Variable support = Constant(p_value);
  EXPECT_EQ(backward_gemms(support, x_fixed), 1u);
  EXPECT_FALSE(support.has_grad());

  Variable x_param(x_value, /*requires_grad=*/true);
  Variable p_param(p_value, /*requires_grad=*/true);
  EXPECT_EQ(backward_gemms(p_param, x_param), 2u);
  EXPECT_TRUE(p_param.has_grad());
  ASSERT_EQ(x_fixed.grad().numel(), x_param.grad().numel());
  EXPECT_EQ(std::memcmp(x_fixed.grad().data(), x_param.grad().data(),
                        sizeof(float) *
                            static_cast<size_t>(x_param.grad().numel())),
            0)
      << "dx changed when dp was skipped";

  Variable x_adaptive(x_value, /*requires_grad=*/true);
  Variable logits(p_value, /*requires_grad=*/true);
  EXPECT_EQ(backward_gemms(SoftmaxLastDim(logits), x_adaptive), 2u);
  EXPECT_TRUE(logits.has_grad());
  EXPECT_TRUE(x_adaptive.has_grad());
}

using BinaryOp = std::function<Variable(const Variable&, const Variable&)>;

// GEMM calls made by the backward sweep of sum(probe * op(a, b)).
uint64_t BackwardGemms(const BinaryOp& op, const Variable& a,
                       const Variable& b, const Tensor& probe) {
  Variable loss = SumAll(Mul(op(a, b), Constant(probe)));
  uint64_t before = t::kernels::GetKernelStats().gemm_calls;
  loss.Backward();
  return t::kernels::GetKernelStats().gemm_calls - before;
}

// Every MatMul-family closure skips the GEMM of a constant operand's
// gradient, and the other operand's gradient keeps its bits.
TEST(ConstantOperandGrad, MatMulFamilySkipsTheConstantsGemm) {
  Rng rng(43);
  struct Case {
    const char* name;
    BinaryOp op;
    Shape a, b, out;
  };
  const Case cases[] = {
      {"MatMul", MatMul, {3, 4}, {4, 5}, {3, 5}},
      {"MatMulNT", MatMulNT, {3, 4}, {5, 4}, {3, 5}},
      {"MatMulTN", MatMulTN, {4, 3}, {4, 5}, {3, 5}},
      {"BatchedMatMul", BatchedMatMul, {2, 3, 4}, {2, 4, 5}, {2, 3, 5}},
      {"BatchedMatMulNT", BatchedMatMulNT, {2, 3, 4}, {2, 5, 4}, {2, 3, 5}},
      {"BatchedMatMulTN", BatchedMatMulTN, {2, 4, 3}, {2, 4, 5}, {2, 3, 5}},
      {"MatMulLastDim", MatMulLastDim, {2, 3, 4}, {4, 5}, {2, 3, 5}},
      {"BatchedMatMulNTScaled",
       [](const Variable& a, const Variable& b) {
         return BatchedMatMulNTScaled(a, b, 0.5f);
       },
       {2, 3, 4},
       {2, 5, 4},
       {2, 3, 5}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Tensor a_value = Tensor::Randn(c.a, rng);
    Tensor b_value = Tensor::Randn(c.b, rng);
    Tensor probe = Tensor::Randn(c.out, rng);
    Variable a_param(a_value, true), b_param(b_value, true);
    EXPECT_EQ(BackwardGemms(c.op, a_param, b_param, probe), 2u);

    Variable a_only(a_value, true), b_fixed = Constant(b_value);
    EXPECT_EQ(BackwardGemms(c.op, a_only, b_fixed, probe), 1u);
    EXPECT_FALSE(b_fixed.has_grad());
    EXPECT_TRUE(AllClose(a_only.grad(), a_param.grad(), 0.0f, 0.0f));

    Variable a_fixed = Constant(a_value), b_only(b_value, true);
    EXPECT_EQ(BackwardGemms(c.op, a_fixed, b_only, probe), 1u);
    EXPECT_FALSE(a_fixed.has_grad());
    EXPECT_TRUE(AllClose(b_only.grad(), b_param.grad(), 0.0f, 0.0f));
  }
}

// The elementwise, Where and Concat closures leave a constant operand
// without a gradient and give the other operand the same bits as when both
// are parameters.
TEST(ConstantOperandGrad, ElementwiseWhereConcatSkipTheConstant) {
  Rng rng(44);
  Tensor a_value = Tensor::Randn({3, 4}, rng);
  Tensor b_value = Tensor::Rand({3, 4}, rng, 1.0f, 2.0f);
  Tensor cond = Tensor::Rand({3, 4}, rng);
  Tensor probe = Tensor::Randn({3, 4}, rng);
  Tensor probe_cat = Tensor::Randn({3, 8}, rng);
  const std::pair<const char*, BinaryOp> ops[] = {
      {"Add", Add},
      {"Sub", Sub},
      {"Mul", Mul},
      {"Div", Div},
      {"Where",
       [&](const Variable& a, const Variable& b) {
         return Where(cond, a, b);
       }},
      {"Concat",
       [](const Variable& a, const Variable& b) {
         return Concat({a, b}, -1);
       }},
  };
  for (const auto& [name, op] : ops) {
    SCOPED_TRACE(name);
    const Tensor& p = std::string(name) == "Concat" ? probe_cat : probe;
    auto backward = [&](const Variable& a, const Variable& b) {
      SumAll(Mul(op(a, b), Constant(p))).Backward();
    };
    Variable a_param(a_value, true), b_param(b_value, true);
    backward(a_param, b_param);

    Variable a_only(a_value, true), b_fixed = Constant(b_value);
    backward(a_only, b_fixed);
    EXPECT_FALSE(b_fixed.has_grad());
    EXPECT_TRUE(AllClose(a_only.grad(), a_param.grad(), 0.0f, 0.0f));

    Variable a_fixed = Constant(a_value), b_only(b_value, true);
    backward(a_fixed, b_only);
    EXPECT_FALSE(a_fixed.has_grad());
    EXPECT_TRUE(AllClose(b_only.grad(), b_param.grad(), 0.0f, 0.0f));
  }
}

TEST(GradCheck, SoftmaxLastDim) {
  Rng rng(10);
  Tensor probe = Tensor::Randn({3, 4}, rng);
  auto r = CheckGradients(
      [probe](std::vector<Variable>& v) {
        return SumAll(Mul(SoftmaxLastDim(v[0]), Constant(probe)));
      },
      {Tensor::Randn({3, 4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, LayerNorm) {
  Rng rng(11);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(LayerNormLastDim(v[0], v[1], v[2])));
      },
      {Tensor::Randn({3, 5}, rng), Tensor::Randn({5}, rng),
       Tensor::Randn({5}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, PermuteReshapeConcatSlice) {
  Rng rng(12);
  Tensor probe = Tensor::Randn({4, 2, 3}, rng);
  auto r = CheckGradients(
      [probe](std::vector<Variable>& v) {
        Variable p = Permute(v[0], {2, 0, 1});       // (2,3,4) -> (4,2,3)
        Variable c = Concat({p, Constant(probe)}, 0);  // (8,2,3)
        Variable s = SliceAxis(c, 0, 1, 5);
        return SumAll(Square(Reshape(s, {5, 6})));
      },
      {Tensor::Randn({2, 3, 4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, MeanAll) {
  Rng rng(13);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) { return MeanAll(Square(v[0])); },
      {Tensor::Randn({3, 4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, MaskedMse) {
  Rng rng(14);
  Tensor target = Tensor::Randn({2, 3}, rng);
  Tensor mask({2, 3}, {1, 0, 1, 1, 0, 1});
  auto r = CheckGradients(
      [target, mask](std::vector<Variable>& v) {
        return MaskedMse(v[0], target, mask);
      },
      {Tensor::Randn({2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

// Attention-shaped composite: the exact computation pattern PriSTI uses for
// prior-conditioned attention (Q/K from one stream, V from another).
TEST(GradCheck, AttentionComposite) {
  Rng rng(15);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        Variable q = MatMulLastDim(v[0], v[2]);
        Variable k = MatMulLastDim(v[0], v[3]);
        Variable val = MatMulLastDim(v[1], v[4]);
        Variable scores =
            MulScalar(BatchedMatMul(q, TransposeLast2(k)), 1.0f / 2.0f);
        Variable attn = SoftmaxLastDim(scores);
        return SumAll(Square(BatchedMatMul(attn, val)));
      },
      {Tensor::Randn({2, 3, 4}, rng), Tensor::Randn({2, 3, 4}, rng),
       Tensor::Randn({4, 4}, rng), Tensor::Randn({4, 4}, rng),
       Tensor::Randn({4, 4}, rng)},
      /*epsilon=*/1e-2f, /*atol=*/5e-2f, /*rtol=*/8e-2f);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, Neg) {
  Rng rng(16);
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Mul(Neg(v[0]), Exp(Neg(v[0]))));
      },
      {Tensor::Randn({3, 2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, ClampStraddlingRange) {
  // Values chosen away from the clamp boundaries (+-2) so the subgradient
  // kink does not invalidate central differences: two clipped low, one
  // clipped high, three passed through.
  Tensor x({6}, {0.5f, -0.3f, 7.0f, -8.0f, 1.2f, -3.0f});
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        return SumAll(Square(Clamp(v[0], -2.0f, 2.0f)));
      },
      {x});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, WhereRoutesGradientBySide) {
  Rng rng(17);
  Tensor cond({2, 3}, {1, 0, 1, 0, 0, 1});
  auto r = CheckGradients(
      [cond](std::vector<Variable>& v) {
        return SumAll(Square(Where(cond, v[0], v[1])));
      },
      {Tensor::Randn({2, 3}, rng), Tensor::Randn({2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, MakeCustomOp) {
  Rng rng(18);
  // Hand-built op y = 2x with a manual backward closure, mirroring how
  // specialized kernels hook into the tape.
  auto r = CheckGradients(
      [](std::vector<Variable>& v) {
        auto node = v[0].node();
        Variable y = MakeCustomOp(
            t::MulScalar(v[0].value(), 2.0f), {v[0]},
            [node](const Tensor& grad_out) {
              node->AccumulateGrad(t::MulScalar(grad_out, 2.0f));
            });
        return SumAll(Square(y));
      },
      {Tensor::Randn({4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

// ---------------------------------------------------------------------------
// Gradient lifetime: Backward() frees each interior gradient once its
// closure has run; only leaves keep theirs.
// ---------------------------------------------------------------------------

// Live allocator bytes seen from the bottom of a chain of `k` Reshapes (zero-
// copy views, so the forward pass allocates nothing per link) when the
// sweep reaches it. Every link's gradient is a fresh buffer; freed as the
// sweep passes, they never pile up, so the reading does not depend on `k`.
uint64_t LiveBytesAtChainBottom(int k) {
  Variable x(Tensor::Ones({64, 64}), /*requires_grad=*/true);
  uint64_t live = 0;
  auto xn = x.node();
  Variable y = MakeCustomOp(x.value(), {x}, [xn, &live](const Tensor& g) {
    live = t::GetAllocStats().live_bytes;
    xn->AccumulateGrad(g);
  });
  for (int i = 0; i < k; ++i) {
    y = Reshape(y, i % 2 == 0 ? Shape{4096} : Shape{64, 64});
  }
  SumAll(y).Backward();
  return live;
}

TEST(GradientLifetime, PeakDoesNotGrowWithChainLength) {
  const int64_t grad_bytes = 4096 * sizeof(float);
  const int64_t short_chain = static_cast<int64_t>(LiveBytesAtChainBottom(8));
  const int64_t long_chain = static_cast<int64_t>(LiveBytesAtChainBottom(64));
  EXPECT_LT(std::abs(long_chain - short_chain), grad_bytes)
      << "live bytes at the chain bottom grew from " << short_chain << " (K=8)"
      << " to " << long_chain << " (K=64)";
}

TEST(GradientLifetime, OnlyLeavesKeepGradientsAfterBackward) {
  Rng rng(45);
  Variable x(Tensor::Randn({3, 4}, rng), /*requires_grad=*/true);
  Variable w(Tensor::Randn({4, 2}, rng), /*requires_grad=*/true);
  Variable hidden = MatMul(x, w);
  Variable activated = Tanh(hidden);
  Variable loss = SumAll(Square(activated));
  loss.Backward();
  EXPECT_TRUE(x.has_grad());
  EXPECT_TRUE(w.has_grad());
  EXPECT_FALSE(hidden.has_grad());
  EXPECT_FALSE(activated.has_grad());
  EXPECT_FALSE(loss.has_grad());
  // The consumed closures still flag a second sweep through the graph.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(loss.Backward(), "double backward through op");
}

// ---------------------------------------------------------------------------
// Inference mode (NoGradGuard)
// ---------------------------------------------------------------------------

TEST(InferenceMode, GuardDisablesRecordingAndNests) {
  EXPECT_TRUE(GradModeEnabled());
  {
    NoGradGuard outer;
    EXPECT_FALSE(GradModeEnabled());
    {
      NoGradGuard inner;
      EXPECT_FALSE(GradModeEnabled());
    }
    // Still inside the outer guard after the inner one unwinds.
    EXPECT_FALSE(GradModeEnabled());
  }
  EXPECT_TRUE(GradModeEnabled());
}

TEST(InferenceMode, OpsUnderGuardBuildNoTape) {
  Variable x(Tensor({2}, {3, 4}), /*requires_grad=*/true);
  NoGradGuard no_grad;
  Variable y = MulScalar(x, 2.0f);
  // Values are computed normally...
  EXPECT_TRUE(AllClose(y.value(), Tensor({2}, {6, 8})));
  // ...but the node holds no graph: no parents, no backward closure.
  EXPECT_TRUE(y.node()->inference_mode);
  EXPECT_EQ(y.node()->parents.size(), 0u);
  EXPECT_FALSE(y.requires_grad());
}

TEST(InferenceMode, InferenceResultsActAsConstantsInGradGraphs) {
  Variable x(Tensor({2}, {1, 2}), /*requires_grad=*/true);
  Variable frozen = [&] {
    NoGradGuard no_grad;
    return MulScalar(x, 5.0f);
  }();
  // Outside the guard, mixing the frozen value into a differentiable graph
  // treats it like Constant(): gradients flow to x only through the live
  // branch.
  Variable live = MulScalar(x, 3.0f);
  Variable loss = SumAll(Mul(frozen, live));
  loss.Backward();
  // d/dx of sum(5x ⊙ 3x) through the live branch only: 3 * frozen = 15x.
  EXPECT_TRUE(AllClose(x.grad(), Tensor({2}, {15, 30})));
}

TEST(InferenceMode, BackwardThroughInferenceGraphDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Variable x(Tensor({2}, {1, 2}), /*requires_grad=*/true);
        NoGradGuard no_grad;
        Variable y = SumAll(MulScalar(x, 2.0f));
        y.Backward();
      },
      "built under NoGradGuard");
}

// ---------------------------------------------------------------------------
// GradCaptureScope: the shard-parallel trainer's leaf-gradient redirect
// ---------------------------------------------------------------------------

TEST(GradCaptureScope, RedirectsLeafGradsIntoCallerBuffers) {
  Variable x(Tensor({2}, {1, 2}), true);
  Variable y(Tensor({2}, {3, 4}), true);
  std::vector<Variable> targets = {x, y};
  std::vector<Tensor> buffers(2);
  {
    GradCaptureScope scope(targets, &buffers);
    SumAll(Mul(x, y)).Backward();
    SumAll(Mul(x, y)).Backward();  // second pass accumulates into buffers
  }
  // The shared leaf nodes stayed untouched...
  EXPECT_FALSE(x.has_grad());
  EXPECT_FALSE(y.has_grad());
  // ...and the buffers caught both passes: d/dx sum(x*y) = y, twice.
  EXPECT_TRUE(AllClose(buffers[0], Tensor({2}, {6, 8})));
  EXPECT_TRUE(AllClose(buffers[1], Tensor({2}, {2, 4})));
}

TEST(GradCaptureScope, UntouchedTargetBufferStaysEmpty) {
  Variable x(Tensor({2}, {1, 2}), true);
  Variable unused(Tensor({3}, {1, 1, 1}), true);
  std::vector<Variable> targets = {x, unused};
  std::vector<Tensor> buffers(2);
  {
    GradCaptureScope scope(targets, &buffers);
    SumAll(x).Backward();
  }
  EXPECT_TRUE(AllClose(buffers[0], Tensor::Ones({2})));
  // Empty buffer == "this leaf never reached the parameter": the sharded
  // tree reduce treats it as an identity.
  EXPECT_EQ(buffers[1].numel(), 0);
}

TEST(GradCaptureScope, DropsUnregisteredConstantGrads) {
  // A pure-constant leaf (no requires_grad, no backward — e.g. a GraphConv
  // support matrix shared by all shards) must not be written from inside a
  // capture scope: its gradient is never consumed, and the node is shared
  // across concurrent sweeps. Constants are normally pruned from the tape,
  // so drive AccumulateGrad directly — the redirect layer is what's under
  // test.
  Variable x(Tensor({2}, {1, 2}), true);
  Variable shared = Constant(Tensor({2}, {5, 6}));
  std::vector<Variable> targets = {x};
  std::vector<Tensor> buffers(1);
  {
    GradCaptureScope scope(targets, &buffers);
    SumAll(x).Backward();
    shared.node()->AccumulateGrad(Tensor::Ones({2}));
    EXPECT_FALSE(shared.has_grad()) << "constant grad not dropped in scope";
  }
  EXPECT_TRUE(AllClose(buffers[0], Tensor::Ones({2})));
  // Outside the scope, accumulation reaches the node again.
  shared.node()->AccumulateGrad(Tensor::Ones({2}));
  EXPECT_TRUE(AllClose(shared.grad(), Tensor::Ones({2})));
}

TEST(GradCaptureScope, NestingDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Variable x(Tensor({2}, {1, 2}), true);
        std::vector<Variable> targets = {x};
        std::vector<Tensor> outer_buffers(1);
        std::vector<Tensor> inner_buffers(1);
        GradCaptureScope outer(targets, &outer_buffers);
        GradCaptureScope inner(targets, &inner_buffers);
      },
      "");
}

}  // namespace
}  // namespace pristi::autograd
