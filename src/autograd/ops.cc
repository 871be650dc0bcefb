#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "tensor/kernels/attention.h"
#include "tensor/kernels/kernels.h"

namespace pristi::autograd {

namespace {

namespace t = ::pristi::tensor;
namespace kn = ::pristi::tensor::kernels;

using internal::Node;

// Under PRISTI_DEBUG_NANCHECK, aborts if `value` holds a NaN/Inf, naming
// the op that produced it and every input shape — so a diverging training
// run points at the first bad kernel rather than the final loss.
void MaybeCheckFinite(const char* name, const Tensor& value,
                      const std::vector<Variable>& inputs) {
  if (!NanCheckEnabled()) return;
  int64_t bad = FirstNonFinite(value.data(), value.numel());
  if (bad < 0) return;
  std::ostringstream input_shapes;
  for (const Variable& v : inputs) {
    input_shapes << " " << t::ShapeToString(v.value().shape());
  }
  PRISTI_LOG_FATAL << "PRISTI_DEBUG_NANCHECK: op '" << name
                   << "' produced non-finite value " << value[bad]
                   << " at flat index " << bad << "; output shape "
                   << t::ShapeToString(value.shape()) << ", input shapes:"
                   << input_shapes.str();
}

// Builds an interior node. `backward` receives the output gradient and is
// expected to call AccumulateGrad on the captured parent nodes. If no input
// requires grad, the edge is pruned and the output is a constant. `name`
// labels the op in NaN-attribution and tape-misuse diagnostics.
//
// Templated on the closure so that under NoGradGuard the lambda is never
// converted to a std::function (skipping its heap allocation): inference
// nodes carry the value only — no parent edges, no closure — which lets the
// buffers of intermediate activations return to the pool as soon as their
// last Variable dies.
template <typename BackwardFn>
Variable MakeOp(const char* name, const Tensor& value,
                const std::vector<Variable>& inputs, BackwardFn&& backward) {
  bool needs_grad = false;
  for (const Variable& v : inputs) {
    PRISTI_CHECK(v.defined())
        << "op '" << name << "' received an undefined Variable";
    if (!v.node()->IsConstant()) needs_grad = true;
  }
  // NaN attribution stays on in inference mode: sampling is where a bad
  // kernel would otherwise surface as silently wrong imputations.
  MaybeCheckFinite(name, value, inputs);
  auto node = std::make_shared<Node>();
  node->value = value;
  node->requires_grad = false;
  node->op_name = name;
  if (!GradModeEnabled()) {
    node->inference_mode = true;
    return Variable::FromNode(std::move(node));
  }
  if (needs_grad) {
    node->parents.reserve(inputs.size());
    node->parent_versions.reserve(inputs.size());
    for (const Variable& v : inputs) {
      node->parents.push_back(v.node());
      node->parent_versions.push_back(v.node()->value_version);
    }
    node->backward = std::forward<BackwardFn>(backward);
  }
  return Variable::FromNode(std::move(node));
}

// Elements per worker below which a row-parallel elementwise pass stays on
// one thread: the tensor layer's elementwise threshold.
constexpr int64_t kRowPassMinElements = 1 << 14;

int64_t MinRowsPerChunk(int64_t row_len) {
  return std::max<int64_t>(1,
                           kRowPassMinElements / std::max<int64_t>(1, row_len));
}

// out[r, j] = out[r, j] + bias[j] for every row r of `out`: the row path of
// t::Add(out, bias), element for element, without the second block.
void AddBiasInPlace(Tensor* out, const Tensor& bias) {
  const int64_t row = bias.numel();
  PRISTI_CHECK_EQ(bias.ndim(), 1) << "bias must be a vector";
  PRISTI_CHECK_EQ(out->dim(-1), row) << "bias width mismatch";
  const float* pb = bias.data();
  float* po = out->data();
  ParallelFor(
      0, out->numel() / row,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          float* dst = po + r * row;
          for (int64_t j = 0; j < row; ++j) dst[j] = dst[j] + pb[j];
        }
      },
      MinRowsPerChunk(row));
}

}  // namespace

// ---------------------------------------------------------------------------
// Elementwise binary
// ---------------------------------------------------------------------------

namespace {

// Shared implementation for add/sub: gradient is (+/-) identity reduced to
// each parent's shape.
Variable AddLike(const Variable& a, const Variable& b, float sign_b) {
  const char* name = sign_b > 0 ? "Add" : "Sub";
  Tensor out = sign_b > 0 ? t::Add(a.value(), b.value())
                          : t::Sub(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(name, std::move(out), {a, b}, [an, bn, sign_b](const Tensor& g) {
    if (!an->IsConstant()) {
      an->AccumulateGrad(t::SumToShape(g, an->value.shape()));
    }
    if (bn->IsConstant()) return;
    Tensor gb = t::SumToShape(g, bn->value.shape());
    if (sign_b < 0) gb = t::Neg(gb);
    bn->AccumulateGrad(gb);
  });
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) { return AddLike(a, b, 1); }
Variable Sub(const Variable& a, const Variable& b) { return AddLike(a, b, -1); }

Variable Mul(const Variable& a, const Variable& b) {
  Tensor out = t::Mul(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("Mul", std::move(out), {a, b}, [an, bn](const Tensor& g) {
    if (!an->IsConstant()) {
      an->AccumulateGrad(
          t::SumToShape(t::Mul(g, bn->value), an->value.shape()));
    }
    if (bn->IsConstant()) return;
    bn->AccumulateGrad(t::SumToShape(t::Mul(g, an->value), bn->value.shape()));
  });
}

Variable Div(const Variable& a, const Variable& b) {
  Tensor out = t::Div(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("Div", std::move(out), {a, b}, [an, bn](const Tensor& g) {
    if (!an->IsConstant()) {
      an->AccumulateGrad(
          t::SumToShape(t::Div(g, bn->value), an->value.shape()));
    }
    if (bn->IsConstant()) return;
    // d/db (a/b) = -a / b^2
    Tensor db = t::Neg(t::Div(t::Mul(g, an->value), t::Square(bn->value)));
    bn->AccumulateGrad(t::SumToShape(db, bn->value.shape()));
  });
}

// ---------------------------------------------------------------------------
// Scalar / unary
// ---------------------------------------------------------------------------

Variable AddScalar(const Variable& a, float s) {
  auto an = a.node();
  return MakeOp("AddScalar", t::AddScalar(a.value(), s), {a},
                [an](const Tensor& g) { an->AccumulateGrad(g); });
}

Variable MulScalar(const Variable& a, float s) {
  auto an = a.node();
  return MakeOp("MulScalar", t::MulScalar(a.value(), s), {a}, [an, s](const Tensor& g) {
    an->AccumulateGrad(t::MulScalar(g, s));
  });
}

Variable Neg(const Variable& a) { return MulScalar(a, -1.0f); }

Variable Exp(const Variable& a) {
  Tensor out = t::Exp(a.value());
  auto an = a.node();
  Tensor out_copy = out;
  return MakeOp("Exp", std::move(out), {a}, [an, out_copy](const Tensor& g) {
    an->AccumulateGrad(t::Mul(g, out_copy));
  });
}

Variable Log(const Variable& a) {
  auto an = a.node();
  return MakeOp("Log", t::Log(a.value()), {a}, [an](const Tensor& g) {
    an->AccumulateGrad(t::Div(g, an->value));
  });
}

Variable Sqrt(const Variable& a) {
  Tensor out = t::Sqrt(a.value());
  auto an = a.node();
  Tensor out_copy = out;
  return MakeOp("Sqrt", std::move(out), {a}, [an, out_copy](const Tensor& g) {
    // d sqrt(x) = 0.5 / sqrt(x)
    an->AccumulateGrad(t::Div(t::MulScalar(g, 0.5f), out_copy));
  });
}

Variable Square(const Variable& a) {
  auto an = a.node();
  return MakeOp("Square", t::Square(a.value()), {a}, [an](const Tensor& g) {
    an->AccumulateGrad(t::Mul(g, t::MulScalar(an->value, 2.0f)));
  });
}

Variable Relu(const Variable& a) {
  auto an = a.node();
  return MakeOp("Relu", t::Relu(a.value()), {a}, [an](const Tensor& g) {
    Tensor masked(g.shape());
    const float* pg = g.data();
    const float* px = std::as_const(an->value).data();
    float* po = masked.data();
    for (int64_t i = 0; i < g.numel(); ++i) {
      po[i] = px[i] > 0.0f ? pg[i] : 0.0f;
    }
    an->AccumulateGrad(masked);
  });
}

Variable Sigmoid(const Variable& a) {
  Tensor out = t::Sigmoid(a.value());
  auto an = a.node();
  Tensor out_copy = out;
  return MakeOp("Sigmoid", std::move(out), {a}, [an, out_copy](const Tensor& g) {
    // s' = s (1 - s)
    Tensor ds = t::Mul(out_copy, t::AddScalar(t::Neg(out_copy), 1.0f));
    an->AccumulateGrad(t::Mul(g, ds));
  });
}

Variable Tanh(const Variable& a) {
  Tensor out = t::Tanh(a.value());
  auto an = a.node();
  Tensor out_copy = out;
  return MakeOp("Tanh", std::move(out), {a}, [an, out_copy](const Tensor& g) {
    // tanh' = 1 - tanh^2
    Tensor dt = t::AddScalar(t::Neg(t::Square(out_copy)), 1.0f);
    an->AccumulateGrad(t::Mul(g, dt));
  });
}

Variable Clamp(const Variable& a, float lo, float hi) {
  auto an = a.node();
  return MakeOp("Clamp", t::Clamp(a.value(), lo, hi), {a},
                [an, lo, hi](const Tensor& g) {
                  Tensor masked(g.shape());
                  const float* pg = g.data();
                  const float* px = std::as_const(an->value).data();
                  float* po = masked.data();
                  for (int64_t i = 0; i < g.numel(); ++i) {
                    po[i] = (px[i] > lo && px[i] < hi) ? pg[i] : 0.0f;
                  }
                  an->AccumulateGrad(masked);
                });
}

Variable GatedActivation(const Variable& x) {
  const Tensor& xv = x.value();
  const int64_t d = xv.dim(-1);
  PRISTI_CHECK_EQ(d % 2, 0) << "GatedActivation needs an even channel count";
  const int64_t half = d / 2;
  const int64_t rows = d > 0 ? xv.numel() / d : 0;
  Shape out_shape = xv.shape();
  out_shape.back() = half;
  Tensor out(out_shape);
  // The backward reads tanh of the filter half and sigmoid of the gate half,
  // kept side by side in x's layout; inference keeps neither.
  const bool record = GradModeEnabled() && !x.node()->IsConstant();
  Tensor act = record ? Tensor(xv.shape()) : Tensor();
  {
    const float* px = xv.data();
    float* po = out.data();
    float* pa = record ? act.data() : nullptr;
    ParallelFor(
        0, rows,
        [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            const float* src = px + r * d;
            float* dst = po + r * half;
            for (int64_t j = 0; j < half; ++j) {
              // t::Tanh, t::Sigmoid and t::Mul, element for element.
              const float th = std::tanh(src[j]);
              const float sg = 1.0f / (1.0f + std::exp(-src[half + j]));
              dst[j] = th * sg;
              if (pa != nullptr) {
                pa[r * d + j] = th;
                pa[r * d + half + j] = sg;
              }
            }
          }
        },
        MinRowsPerChunk(d));
  }
  auto xn = x.node();
  return MakeOp(
      "GatedActivation", std::move(out), {x},
      [xn, act, rows, d, half](const Tensor& g) {
        Tensor dx(act.shape());
        const float* pg = g.data();
        const float* pa = act.data();
        float* pd = dx.data();
        ParallelFor(
            0, rows,
            [&](int64_t lo, int64_t hi) {
              for (int64_t r = lo; r < hi; ++r) {
                const float* grow = pg + r * half;
                const float* th = pa + r * d;
                const float* sg = th + half;
                float* dfilt = pd + r * d;
                float* dgate = dfilt + half;
                for (int64_t j = 0; j < half; ++j) {
                  // The chain's expressions in order: Mul's backward lands
                  // in the zeroed Tanh / Sigmoid gradients (0 + g·other),
                  // their closures multiply by 1 - tanh² and s·(1 - s)
                  // spelled as Neg and AddScalar, and each SliceAxis
                  // scatters into a zeroed block (0 + v).
                  const float g_th = 0.0f + grow[j] * sg[j];
                  const float d_th = g_th * (-(th[j] * th[j]) + 1.0f);
                  const float g_sg = 0.0f + grow[j] * th[j];
                  const float d_sg = g_sg * (sg[j] * (-sg[j] + 1.0f));
                  dfilt[j] = 0.0f + d_th;
                  dgate[j] = 0.0f + d_sg;
                }
              }
            },
            MinRowsPerChunk(d));
        xn->AccumulateGrad(dx);
      });
}

Variable Where(const Tensor& cond, const Variable& a, const Variable& b) {
  Tensor out = t::Where(cond, a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  Tensor cond_copy = cond;
  return MakeOp("Where", std::move(out), {a, b}, [an, bn, cond_copy](const Tensor& g) {
    // Each side receives g where cond routes to it and zero elsewhere.
    auto routed = [&](bool to_a) {
      Tensor side(g.shape());
      for (int64_t i = 0; i < g.numel(); ++i) {
        if ((cond_copy[i] > 0.5f) == to_a) side[i] = g[i];
      }
      return side;
    };
    if (!an->IsConstant()) an->AccumulateGrad(routed(true));
    if (!bn->IsConstant()) bn->AccumulateGrad(routed(false));
  });
}

// ---------------------------------------------------------------------------
// Matrix products
// ---------------------------------------------------------------------------

// Every backward below uses the NT/TN kernel entry points, which read the
// transposed operand in place — no TransposeLast2 copy is materialized
// anywhere on the MatMul-family backward paths (the no-materialized-
// transpose lint rule enforces this).

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor out = t::MatMul(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("MatMul", std::move(out), {a, b}, [an, bn](const Tensor& g) {
    if (!an->IsConstant()) an->AccumulateGrad(t::MatMulNT(g, bn->value));
    if (!bn->IsConstant()) bn->AccumulateGrad(t::MatMulTN(an->value, g));
  });
}

Variable MatMulNT(const Variable& a, const Variable& b) {
  Tensor out = t::MatMulNT(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("MatMulNT", std::move(out), {a, b}, [an, bn](const Tensor& g) {
    // out = a bᵀ: da = g b, db = gᵀ a.
    if (!an->IsConstant()) an->AccumulateGrad(t::MatMul(g, bn->value));
    if (!bn->IsConstant()) bn->AccumulateGrad(t::MatMulTN(g, an->value));
  });
}

Variable MatMulTN(const Variable& a, const Variable& b) {
  Tensor out = t::MatMulTN(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("MatMulTN", std::move(out), {a, b}, [an, bn](const Tensor& g) {
    // out = aᵀ b: da = b gᵀ, db = a g.
    if (!an->IsConstant()) an->AccumulateGrad(t::MatMulNT(bn->value, g));
    if (!bn->IsConstant()) bn->AccumulateGrad(t::MatMul(an->value, g));
  });
}

Variable BatchedMatMul(const Variable& a, const Variable& b) {
  Tensor out = t::BatchedMatMul(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("BatchedMatMul", std::move(out), {a, b}, [an, bn](const Tensor& g) {
    if (!an->IsConstant()) {
      an->AccumulateGrad(t::BatchedMatMulNT(g, bn->value));
    }
    if (!bn->IsConstant()) {
      bn->AccumulateGrad(t::BatchedMatMulTN(an->value, g));
    }
  });
}

Variable BatchedMatMulNT(const Variable& a, const Variable& b) {
  Tensor out = t::BatchedMatMulNT(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("BatchedMatMulNT", std::move(out), {a, b},
                [an, bn](const Tensor& g) {
                  // Per batch item: da = g b, db = gᵀ a.
                  if (!an->IsConstant()) {
                    an->AccumulateGrad(t::BatchedMatMul(g, bn->value));
                  }
                  if (!bn->IsConstant()) {
                    bn->AccumulateGrad(t::BatchedMatMulTN(g, an->value));
                  }
                });
}

Variable BatchedMatMulTN(const Variable& a, const Variable& b) {
  Tensor out = t::BatchedMatMulTN(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("BatchedMatMulTN", std::move(out), {a, b},
                [an, bn](const Tensor& g) {
                  // Per batch item: da = b gᵀ, db = a g.
                  if (!an->IsConstant()) {
                    an->AccumulateGrad(t::BatchedMatMulNT(bn->value, g));
                  }
                  if (!bn->IsConstant()) {
                    bn->AccumulateGrad(t::BatchedMatMul(an->value, g));
                  }
                });
}

Variable BatchedMatMulNTScaled(const Variable& a, const Variable& b,
                               float scale) {
  Tensor out = t::BatchedMatMulNT(a.value(), b.value());
  // In-place epilogue: each element rounds exactly as the old separate
  // MulScalar pass did (one multiply per element), so the reference
  // attention path stays bitwise-unchanged — only the intermediate tensor
  // and its tape node disappear.
  out.ScaleInPlace(scale);
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("BatchedMatMulNTScaled", std::move(out), {a, b},
                [an, bn, scale](const Tensor& g) {
                  // The old MulScalar -> BatchedMatMulNT backward chain,
                  // verbatim: scale the upstream grad once, then
                  // da = gs b, db = gsᵀ a.
                  Tensor gs = t::MulScalar(g, scale);
                  if (!an->IsConstant()) {
                    an->AccumulateGrad(t::BatchedMatMul(gs, bn->value));
                  }
                  if (!bn->IsConstant()) {
                    bn->AccumulateGrad(t::BatchedMatMulTN(gs, an->value));
                  }
                });
}

Variable FusedAttention(const Variable& q, const Variable& k,
                        const Variable& v, int64_t num_heads, float scale) {
  const Tensor& qv = q.value();
  const Tensor& kv = k.value();
  const Tensor& vv = v.value();
  int64_t nd = qv.ndim();
  PRISTI_CHECK_GE(nd, 2) << "FusedAttention needs (..., seq, heads*head_dim)";
  PRISTI_CHECK_EQ(kv.ndim(), nd);
  PRISTI_CHECK_EQ(vv.ndim(), nd);
  PRISTI_CHECK_GT(num_heads, 0);
  int64_t width = qv.dim(nd - 1);
  PRISTI_CHECK_EQ(width % num_heads, 0)
      << "FusedAttention heads must divide the last axis";
  int64_t dh = width / num_heads;
  int64_t s_q = qv.dim(nd - 2);
  int64_t s_k = kv.dim(nd - 2);
  PRISTI_CHECK_GT(qv.numel(), 0) << "FusedAttention on an empty tensor";
  PRISTI_CHECK_EQ(kv.dim(nd - 1), width) << "FusedAttention width mismatch";
  PRISTI_CHECK_EQ(vv.dim(nd - 1), width) << "FusedAttention width mismatch";
  PRISTI_CHECK_EQ(vv.dim(nd - 2), s_k) << "FusedAttention kv length mismatch";
  int64_t batch = qv.numel() / (s_q * width);
  PRISTI_CHECK_EQ(kv.numel(), batch * s_k * width)
      << "FusedAttention leading dims mismatch";
  Tensor out(qv.shape());
  // The logsumexp is backward state: inference leaves it out.
  const bool record = GradModeEnabled();
  Tensor lse = record ? Tensor(Shape{batch * num_heads, s_q}) : Tensor();
  kn::FusedAttentionForward(batch, num_heads, s_q, s_k, dh, scale, qv.data(),
                            kv.data(), vv.data(), out.data(),
                            record ? lse.data() : nullptr, &kv);
  auto qn = q.node();
  auto kn = k.node();
  auto vn = v.node();
  Tensor out_copy = out;
  return MakeOp(
      "FusedAttention", std::move(out), {q, k, v},
      [qn, kn, vn, out_copy, lse, scale, batch, num_heads, s_q, s_k,
       dh](const Tensor& g) {
        // Const views so reading the saved inputs never bumps a storage
        // version (which would evict the packed K panels the backward is
        // about to reuse).
        const Tensor& qt = qn->value;
        const Tensor& kt = kn->value;
        const Tensor& vt = vn->value;
        Tensor dq(qt.shape());
        Tensor dk(kt.shape());
        Tensor dv(vt.shape());
        kn::FusedAttentionBackward(batch, num_heads, s_q, s_k, dh, scale,
                                   qt.data(), kt.data(), vt.data(),
                                   out_copy.data(), lse.data(), g.data(),
                                   dq.data(), dk.data(), dv.data(), &kt);
        qn->AccumulateGrad(dq);
        kn->AccumulateGrad(dk);
        vn->AccumulateGrad(dv);
      });
}

namespace {

// MatMulLastDim's backward: dx and dw from the output gradient `g`.
void MatMulLastDimBackward(Node* xn, Node* wn, const Tensor& g) {
  // dx = g @ w^T applied along the last axis (w read transposed in place).
  if (!xn->IsConstant()) xn->AccumulateGrad(t::MatMulLastDimT(g, wn->value));
  if (wn->IsConstant()) return;
  // dw = x2d^T @ g2d where both are flattened to (rows, features).
  int64_t k_in = xn->value.dim(-1);
  int64_t k_out = g.dim(-1);
  int64_t rows = xn->value.numel() / k_in;
  Tensor x2d = xn->value.Reshaped({rows, k_in});
  Tensor g2d = g.Reshaped({rows, k_out});
  wn->AccumulateGrad(t::MatMulTN(x2d, g2d));
}

}  // namespace

Variable MatMulLastDim(const Variable& x, const Variable& w) {
  Tensor out = t::MatMulLastDim(x.value(), w.value());
  auto xn = x.node();
  auto wn = w.node();
  return MakeOp("MatMulLastDim", std::move(out), {x, w},
                [xn, wn](const Tensor& g) {
                  MatMulLastDimBackward(xn.get(), wn.get(), g);
                });
}

Variable MatMulLastDimBias(const Variable& x, const Variable& w,
                           const Variable& b) {
  Tensor out = t::MatMulLastDim(x.value(), w.value());
  AddBiasInPlace(&out, b.value());
  auto xn = x.node();
  auto wn = w.node();
  auto bn = b.node();
  return MakeOp(
      "MatMulLastDimBias", std::move(out), {x, w, b},
      [xn, wn, bn](const Tensor& g) {
        // Add's backward, then MatMulLastDim's, on the same gradient.
        if (!bn->IsConstant()) {
          bn->AccumulateGrad(t::SumToShape(g, bn->value.shape()));
        }
        MatMulLastDimBackward(xn.get(), wn.get(), g);
      });
}

ConcatMatMulLastDim::ConcatMatMulLastDim(const Variable& w, int64_t num_parts)
    : w_(w), num_parts_(num_parts), record_(GradModeEnabled()) {
  PRISTI_CHECK_EQ(w_.value().ndim(), 2);
  PRISTI_CHECK_GT(num_parts_, 0);
  PRISTI_CHECK_EQ(w_.value().dim(0) % num_parts_, 0)
      << "weight rows must split evenly across the parts";
  d_in_ = w_.value().dim(0) / num_parts_;
  if (record_) parts_.reserve(static_cast<size_t>(num_parts_) + 1);
}

void ConcatMatMulLastDim::Append(const Variable& part) {
  PRISTI_CHECK(part.defined())
      << "ConcatMatMulLastDim received an undefined part";
  PRISTI_CHECK_LT(appended_, num_parts_) << "more parts than the weight has";
  const Tensor& x = part.value();
  PRISTI_CHECK_EQ(x.dim(-1), d_in_) << "ConcatMatMulLastDim part width";
  const int64_t d_out = w_.value().dim(1);
  Shape out_shape = x.shape();
  out_shape.back() = d_out;
  if (appended_ == 0) {
    out_ = Tensor(std::move(out_shape));
  } else {
    PRISTI_CHECK(t::ShapesEqual(out_shape, out_.shape()))
        << "ConcatMatMulLastDim parts disagree on their leading dims";
  }
  // A const view: the mutable data() would fork the weight's storage and
  // miss the pack cache on every call.
  const Tensor w_slice = w_.value().SliceLeading(appended_ * d_in_, d_in_);
  kn::Gemm(kn::Layout::kNormal, kn::Layout::kNormal, x.numel() / d_in_, d_out,
           d_in_, x.data(), w_slice.data(), out_.data(), /*cache_a=*/nullptr,
           /*cache_b=*/&w_slice);
  if (record_) parts_.push_back(part);
  ++appended_;
}

Variable ConcatMatMulLastDim::Finish(const Variable& bias) {
  PRISTI_CHECK_EQ(appended_, num_parts_)
      << "ConcatMatMulLastDim is missing parts";
  PRISTI_CHECK_EQ(record_, GradModeEnabled())
      << "grad mode changed while ConcatMatMulLastDim was open";
  PRISTI_CHECK(bias.defined()) << "ConcatMatMulLastDim needs a bias";
  std::vector<Variable> inputs = std::move(parts_);
  std::vector<std::shared_ptr<Node>> part_nodes;
  part_nodes.reserve(inputs.size());
  for (const Variable& part : inputs) part_nodes.push_back(part.node());
  inputs.push_back(w_);
  inputs.push_back(bias);
  auto wn = w_.node();
  auto bn = bias.node();
  const int64_t d_in = d_in_;
  Tensor out = std::move(out_);
  AddBiasInPlace(&out, bias.value());
  return MakeOp(
      "ConcatMatMulLastDim", std::move(out), inputs,
      [part_nodes, wn, bn, d_in](const Tensor& g) {
        // Add's backward into the bias first, then the product's.
        if (!bn->IsConstant()) {
          bn->AccumulateGrad(t::SumToShape(g, bn->value.shape()));
        }
        // dpart_i = g @ w_iᵀ, in part order as Concat's slices were.
        for (size_t i = 0; i < part_nodes.size(); ++i) {
          if (part_nodes[i]->IsConstant()) continue;
          part_nodes[i]->AccumulateGrad(t::MatMulLastDimT(
              g, wn->value.SliceLeading(static_cast<int64_t>(i) * d_in, d_in)));
        }
        if (wn->IsConstant()) return;
        // dw = concatᵀ @ g, one TN GEMM per d_in-row slice of dw.
        const int64_t d_out = g.dim(-1);
        const int64_t rows = g.numel() / d_out;
        Tensor dw(wn->value.shape());
        float* pdw = dw.data();
        for (size_t i = 0; i < part_nodes.size(); ++i) {
          kn::Gemm(kn::Layout::kTransposed, kn::Layout::kNormal, d_in, d_out,
                   rows, std::as_const(part_nodes[i]->value).data(), g.data(),
                   pdw + static_cast<int64_t>(i) * d_in * d_out);
        }
        wn->AccumulateGrad(dw);
      });
}

Variable MatMulNodeDim(const Variable& p, const Variable& x) {
  Tensor out = t::MatMulNodeDim(p.value(), x.value());
  auto pn = p.node();
  auto xn = x.node();
  return MakeOp("MatMulNodeDim", std::move(out), {p, x}, [pn, xn](const Tensor& g) {
    // dx = p^T @ g along the node axis (p read transposed in place).
    xn->AccumulateGrad(t::MatMulNodeDimT(pn->value, g));
    // A fixed support would drop dp unread: skip its (batch, N, N) GEMM.
    if (pn->IsConstant()) return;
    // dp = sum_batch g_b @ x_b^T.
    int64_t rows_out = pn->value.dim(0);
    int64_t rows_in = pn->value.dim(1);
    int64_t d = xn->value.dim(-1);
    int64_t batch = xn->value.numel() / (rows_in * d);
    Tensor g3 = g.Reshaped({batch, rows_out, d});
    Tensor x3 = xn->value.Reshaped({batch, rows_in, d});
    Tensor per_batch = t::BatchedMatMulNT(g3, x3);
    pn->AccumulateGrad(t::SumAxis(per_batch, 0));
  });
}

// ---------------------------------------------------------------------------
// Softmax / LayerNorm
// ---------------------------------------------------------------------------

Variable SoftmaxLastDim(const Variable& a) {
  Tensor out = t::SoftmaxLastDim(a.value());
  auto an = a.node();
  Tensor out_copy = out;
  return MakeOp("SoftmaxLastDim", std::move(out), {a}, [an, out_copy](const Tensor& g) {
    // dx = s * (g - sum(g * s, last, keepdim))
    Tensor gs = t::Mul(g, out_copy);
    Tensor row_sum = t::SumAxis(gs, -1, /*keepdim=*/true);
    an->AccumulateGrad(t::Mul(out_copy, t::Sub(g, row_sum)));
  });
}

Variable LayerNormLastDim(const Variable& x, const Variable& gamma,
                          const Variable& beta, float eps) {
  const Tensor& xv = x.value();
  int64_t d = xv.dim(-1);
  PRISTI_CHECK_EQ(gamma.value().numel(), d);
  PRISTI_CHECK_EQ(beta.value().numel(), d);
  int64_t rows = xv.numel() / d;

  Tensor xhat(xv.shape());
  Tensor inv_std(Shape{rows});
  Tensor out(xv.shape());
  {
    const float* px = xv.data();
    const float* pg = gamma.value().data();
    const float* pb = beta.value().data();
    float* ph = xhat.data();
    float* ps = inv_std.data();
    float* po = out.data();
    // Rows are independent; fuse normalize + affine in one parallel pass.
    pristi::ParallelFor(
        0, rows,
        [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            const float* src = px + r * d;
            double mean = 0.0;
            for (int64_t i = 0; i < d; ++i) mean += src[i];
            mean /= d;
            double var = 0.0;
            for (int64_t i = 0; i < d; ++i) {
              double c = src[i] - mean;
              var += c * c;
            }
            var /= d;
            float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
            ps[r] = istd;
            float* dst = ph + r * d;
            float* orow = po + r * d;
            for (int64_t i = 0; i < d; ++i) {
              dst[i] = (src[i] - static_cast<float>(mean)) * istd;
              orow[i] = dst[i] * pg[i] + pb[i];
            }
          }
        },
        std::max<int64_t>(1, 4096 / std::max<int64_t>(d, 1)));
  }
  auto xn = x.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  return MakeOp("LayerNormLastDim", 
      std::move(out), {x, gamma, beta},
      [xn, gn, bn, xhat, inv_std, rows, d](const Tensor& g) {
        Tensor dgamma(Shape{d});
        Tensor dbeta(Shape{d});
        Tensor dx(xn->value.shape());
        const float* pg = g.data();
        const float* ph = xhat.data();
        // A const read: gamma is a parameter that concurrent shard sweeps
        // share, and the mutable data() would fork its storage whenever
        // another tensor header shares it.
        const float* pgam = std::as_const(gn->value).data();
        const float* pistd = inv_std.data();
        float* pdg = dgamma.data();
        float* pdb = dbeta.data();
        float* pdx = dx.data();
        for (int64_t r = 0; r < rows; ++r) {
          const float* grow = pg + r * d;
          const float* hrow = ph + r * d;
          double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
          for (int64_t i = 0; i < d; ++i) {
            float dxhat = grow[i] * pgam[i];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += dxhat * hrow[i];
            pdg[i] += grow[i] * hrow[i];
            pdb[i] += grow[i];
          }
          float mean_dxhat = static_cast<float>(sum_dxhat / d);
          float mean_dxhat_xhat = static_cast<float>(sum_dxhat_xhat / d);
          float istd = pistd[r];
          float* dxrow = pdx + r * d;
          for (int64_t i = 0; i < d; ++i) {
            float dxhat = grow[i] * pgam[i];
            dxrow[i] =
                istd * (dxhat - mean_dxhat - hrow[i] * mean_dxhat_xhat);
          }
        }
        xn->AccumulateGrad(dx);
        Tensor dgamma_shaped = dgamma.Reshaped(gn->value.shape());
        Tensor dbeta_shaped = dbeta.Reshaped(bn->value.shape());
        gn->AccumulateGrad(dgamma_shaped);
        bn->AccumulateGrad(dbeta_shaped);
      });
}

// ---------------------------------------------------------------------------
// Shape ops
// ---------------------------------------------------------------------------

Variable Reshape(const Variable& a, Shape new_shape) {
  Tensor out = a.value().Reshaped(new_shape);
  auto an = a.node();
  return MakeOp("Reshape", std::move(out), {a}, [an](const Tensor& g) {
    an->AccumulateGrad(g.Reshaped(an->value.shape()));
  });
}

Variable Permute(const Variable& a, const std::vector<int64_t>& perm) {
  Tensor out = t::Permute(a.value(), perm);
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    inverse[static_cast<size_t>(perm[i])] = static_cast<int64_t>(i);
  }
  auto an = a.node();
  return MakeOp("Permute", std::move(out), {a}, [an, inverse](const Tensor& g) {
    an->AccumulateGrad(t::Permute(g, inverse));
  });
}

Variable TransposeLast2(const Variable& a) {
  std::vector<int64_t> perm(static_cast<size_t>(a.value().ndim()));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int64_t>(i);
  std::swap(perm[perm.size() - 1], perm[perm.size() - 2]);
  return Permute(a, perm);
}

Variable Concat(const std::vector<Variable>& parts, int64_t axis) {
  PRISTI_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  Tensor out = t::Concat(values, axis);
  int64_t nd = parts[0].value().ndim();
  int64_t norm_axis = axis < 0 ? axis + nd : axis;
  std::vector<std::shared_ptr<Node>> nodes;
  std::vector<int64_t> lengths;
  for (const Variable& p : parts) {
    nodes.push_back(p.node());
    lengths.push_back(p.value().dim(norm_axis));
  }
  return MakeOp("Concat", std::move(out), parts,
                [nodes, lengths, norm_axis](const Tensor& g) {
                  int64_t offset = 0;
                  for (size_t i = 0; i < nodes.size(); ++i) {
                    if (!nodes[i]->IsConstant()) {
                      nodes[i]->AccumulateGrad(
                          t::SliceAxis(g, norm_axis, offset, lengths[i]));
                    }
                    offset += lengths[i];
                  }
                });
}

Variable SliceAxis(const Variable& a, int64_t axis, int64_t start,
                   int64_t length) {
  Tensor out = t::SliceAxis(a.value(), axis, start, length);
  int64_t nd = a.value().ndim();
  int64_t norm_axis = axis < 0 ? axis + nd : axis;
  auto an = a.node();
  return MakeOp("SliceAxis", std::move(out), {a},
                [an, norm_axis, start, length](const Tensor& g) {
                  // Scatter-add g back into the sliced region.
                  Tensor dx = Tensor::Zeros(an->value.shape());
                  int64_t outer = 1, mid = an->value.dim(norm_axis),
                          inner = 1;
                  for (int64_t i = 0; i < norm_axis; ++i) {
                    outer *= an->value.dim(i);
                  }
                  for (int64_t i = norm_axis + 1; i < an->value.ndim(); ++i) {
                    inner *= an->value.dim(i);
                  }
                  const float* pg = g.data();
                  float* pd = dx.data();
                  for (int64_t o = 0; o < outer; ++o) {
                    for (int64_t m = 0; m < length; ++m) {
                      const float* src = pg + (o * length + m) * inner;
                      float* dst = pd + (o * mid + start + m) * inner;
                      for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
                    }
                  }
                  an->AccumulateGrad(dx);
                });
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

Variable SumAll(const Variable& a) {
  Tensor out = Tensor::Scalar(t::SumAll(a.value()));
  auto an = a.node();
  return MakeOp("SumAll", std::move(out), {a}, [an](const Tensor& g) {
    an->AccumulateGrad(Tensor::Full(an->value.shape(), g[0]));
  });
}

Variable MeanAll(const Variable& a) {
  float inv = 1.0f / static_cast<float>(a.value().numel());
  return MulScalar(SumAll(a), inv);
}

Variable SumAxisKeepdim(const Variable& a, int64_t axis) {
  Tensor out = t::SumAxis(a.value(), axis, /*keepdim=*/true);
  auto an = a.node();
  return MakeOp("SumAxisKeepdim", std::move(out), {a}, [an](const Tensor& g) {
    // Broadcast the reduced gradient back across the summed axis.
    an->AccumulateGrad(t::Add(Tensor::Zeros(an->value.shape()), g));
  });
}

Variable MeanAxisKeepdim(const Variable& a, int64_t axis) {
  int64_t norm_axis = axis < 0 ? axis + a.value().ndim() : axis;
  float inv = 1.0f / static_cast<float>(a.value().dim(norm_axis));
  return MulScalar(SumAxisKeepdim(a, axis), inv);
}

// ---------------------------------------------------------------------------
// Custom ops
// ---------------------------------------------------------------------------

Variable MakeCustomOp(const Tensor& value, const std::vector<Variable>& inputs,
                      std::function<void(const Tensor& grad_out)> backward) {
  return MakeOp("CustomOp", value, inputs, std::move(backward));
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

Variable MaskedMse(const Variable& pred, const Tensor& target,
                   const Tensor& mask) {
  PRISTI_CHECK(t::ShapesEqual(pred.value().shape(), target.shape()));
  PRISTI_CHECK(t::ShapesEqual(pred.value().shape(), mask.shape()));
  float denom = std::max(1.0f, t::SumAll(mask));
  Variable diff = Sub(pred, Constant(target));
  Variable masked = Mul(Square(diff), Constant(mask));
  return MulScalar(SumAll(masked), 1.0f / denom);
}

}  // namespace pristi::autograd
