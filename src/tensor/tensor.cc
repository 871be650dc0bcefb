#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "tensor/kernels/kernels.h"

namespace pristi::tensor {

namespace {

// Minimum indices per chunk for parallel elementwise kernels: below this,
// enqueue/wake overhead on the persistent pool outweighs the loop body, so
// ParallelFor degenerates to the inline path for small tensors.
constexpr int64_t kElementwiseMinChunk = 1 << 14;

// min_chunk for a parallel loop over rows of `row_len` elements, so each
// chunk still covers at least kElementwiseMinChunk elements.
int64_t MinRowsPerChunk(int64_t row_len) {
  return std::max<int64_t>(1,
                           kElementwiseMinChunk / std::max<int64_t>(1, row_len));
}

}  // namespace

std::string ShapeToString(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

int64_t ShapeNumel(const Shape& shape) {
  int64_t numel = 1;
  for (int64_t d : shape) {
    PRISTI_CHECK_GE(d, 0) << "negative dimension in shape " << ShapeToString(shape);
    numel *= d;
  }
  return numel;
}

bool ShapesEqual(const Shape& a, const Shape& b) { return a == b; }

Tensor::Tensor() : shape_{0} {}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  numel_ = ShapeNumel(shape_);
  if (numel_ > 0) {
    storage_ = Storage::Allocate(numel_);
    // Zero-fill unconditionally: accumulation kernels (MatMul*, SumAxis)
    // rely on zeroed outputs, and recycled pool blocks arrive dirty.
    std::fill(storage_->data(), storage_->data() + numel_, 0.0f);
  }
}

Tensor::Tensor(Shape shape, std::vector<float> data) : shape_(std::move(shape)) {
  numel_ = ShapeNumel(shape_);
  PRISTI_CHECK_EQ(numel_, static_cast<int64_t>(data.size()))
      << "data size does not match shape " << ShapeToString(shape_);
  if (numel_ > 0) {
    storage_ = Storage::Allocate(numel_);
    std::memcpy(storage_->data(), data.data(),
                static_cast<size_t>(numel_) * sizeof(float));
  }
}

Tensor::Tensor(Shape shape, std::shared_ptr<Storage> storage, int64_t offset)
    : shape_(std::move(shape)),
      numel_(ShapeNumel(shape_)),
      offset_(offset),
      storage_(std::move(storage)) {}

void Tensor::Unshare() {
  std::shared_ptr<Storage> fresh = Storage::Allocate(numel_);
  std::memcpy(fresh->data(), storage_->data() + offset_,
              static_cast<size_t>(numel_) * sizeof(float));
  storage_ = std::move(fresh);
  offset_ = 0;
}

Tensor Tensor::Clone() const {
  Tensor out;
  out.shape_ = shape_;
  out.numel_ = numel_;
  if (numel_ > 0) {
    out.storage_ = Storage::Allocate(numel_);
    std::memcpy(out.storage_->data(), data(),
                static_cast<size_t>(numel_) * sizeof(float));
  }
  return out;
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Ones(Shape shape) { return Full(std::move(shape), 1.0f); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t((Shape()));
  t.data()[0] = value;
  return t;
}

Tensor Tensor::Randn(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel_; ++i) p[i] = static_cast<float>(rng.Normal());
  return t;
}

Tensor Tensor::Rand(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel_; ++i) {
    p[i] = static_cast<float>(rng.Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::Arange(int64_t n) {
  Tensor t(Shape{n});
  float* p = t.data();
  for (int64_t i = 0; i < n; ++i) p[i] = float(i);
  return t;
}

int64_t Tensor::dim(int64_t axis) const {
  if (axis < 0) axis += ndim();
  PRISTI_CHECK_GE(axis, 0);
  PRISTI_CHECK_LT(axis, ndim());
  return shape_[static_cast<size_t>(axis)];
}

namespace {

int64_t FlatIndex(const Shape& shape, std::initializer_list<int64_t> idx) {
  PRISTI_CHECK_EQ(idx.size(), shape.size());
  int64_t flat = 0;
  size_t axis = 0;
  for (int64_t i : idx) {
    PRISTI_CHECK_GE(i, 0);
    PRISTI_CHECK_LT(i, shape[axis]);
    flat = flat * shape[axis] + i;
    ++axis;
  }
  return flat;
}

}  // namespace

float& Tensor::at(std::initializer_list<int64_t> idx) {
  return data()[FlatIndex(shape_, idx)];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  return data()[FlatIndex(shape_, idx)];
}

float& Tensor::operator[](int64_t flat_index) {
  // Hot path: full bounds checks only in debug/sanitizer builds (`at()`
  // stays checked in every build).
  PRISTI_DCHECK_GE(flat_index, 0);
  PRISTI_DCHECK_LT(flat_index, numel());
  return data()[flat_index];
}

float Tensor::operator[](int64_t flat_index) const {
  PRISTI_DCHECK_GE(flat_index, 0);
  PRISTI_DCHECK_LT(flat_index, numel());
  return data()[flat_index];
}

void Tensor::Fill(float value) {
  if (numel_ == 0) return;
  float* p = data();
  std::fill(p, p + numel_, value);
}

void Tensor::AddInPlace(const Tensor& other) {
  PRISTI_CHECK(ShapesEqual(shape_, other.shape_))
      << "AddInPlace shape mismatch: " << ShapeToString(shape_) << " vs "
      << ShapeToString(other.shape_);
  if (numel_ == 0) return;
  float* p = data();
  const float* q = other.data();
  for (int64_t i = 0; i < numel_; ++i) p[i] += q[i];
}

void Tensor::ScaleInPlace(float factor) {
  if (numel_ == 0) return;
  float* p = data();
  for (int64_t i = 0; i < numel_; ++i) p[i] *= factor;
}

Tensor Tensor::Reshaped(Shape new_shape) const {
  PRISTI_CHECK_EQ(ShapeNumel(new_shape), numel())
      << "reshape " << ShapeToString(shape_) << " -> "
      << ShapeToString(new_shape);
  return Tensor(std::move(new_shape), storage_, offset_);
}

Tensor Tensor::SliceLeading(int64_t start, int64_t length) const {
  PRISTI_CHECK_GE(ndim(), 1) << "SliceLeading needs a leading axis";
  PRISTI_CHECK_GE(start, 0);
  PRISTI_CHECK_GE(length, 0);
  PRISTI_CHECK_LE(start + length, dim(0));
  int64_t inner = dim(0) > 0 ? numel_ / dim(0) : 0;
  Shape out_shape = shape_;
  out_shape[0] = length;
  if (length == 0 || inner == 0) return Tensor(std::move(out_shape));
  return Tensor(std::move(out_shape), storage_, offset_ + start * inner);
}

std::string Tensor::ToString(int64_t max_entries) const {
  std::ostringstream out;
  out << "Tensor" << ShapeToString(shape_) << " {";
  int64_t n = std::min<int64_t>(numel(), max_entries);
  const float* p = data();
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) out << ", ";
    out << p[i];
  }
  if (numel() > n) out << ", ...";
  out << "}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Broadcasting machinery
// ---------------------------------------------------------------------------

Shape BroadcastShape(const Shape& a, const Shape& b) {
  size_t out_ndim = std::max(a.size(), b.size());
  Shape out(out_ndim);
  for (size_t i = 0; i < out_ndim; ++i) {
    int64_t da = i < out_ndim - a.size() ? 1 : a[i - (out_ndim - a.size())];
    int64_t db = i < out_ndim - b.size() ? 1 : b[i - (out_ndim - b.size())];
    PRISTI_CHECK(da == db || da == 1 || db == 1)
        << "incompatible broadcast: " << ShapeToString(a) << " vs "
        << ShapeToString(b);
    out[i] = std::max(da, db);
  }
  return out;
}

namespace {

// Row-major strides, with stride 0 for broadcast (size-1) dims relative to
// the output shape.
std::vector<int64_t> BroadcastStrides(const Shape& in, const Shape& out) {
  std::vector<int64_t> strides(out.size(), 0);
  int64_t stride = 1;
  // Natural strides of `in`, aligned to the right of `out`.
  size_t offset = out.size() - in.size();
  std::vector<int64_t> in_strides(in.size());
  for (size_t i = in.size(); i-- > 0;) {
    in_strides[i] = stride;
    stride *= in[i];
  }
  for (size_t i = 0; i < out.size(); ++i) {
    if (i < offset) {
      strides[i] = 0;
    } else {
      int64_t d = in[i - offset];
      strides[i] = (d == 1 && out[i] != 1) ? 0 : in_strides[i - offset];
    }
  }
  return strides;
}

// True when `small`, less its leading size-1 axes, equals the trailing
// axes of `full`: `small` then repeats once per row of its numel in `full`.
bool IsSuffixShape(const Shape& small, const Shape& full) {
  size_t lead = 0;
  while (lead < small.size() && small[lead] == 1) ++lead;
  const size_t tail = small.size() - lead;
  return tail <= full.size() &&
         std::equal(small.begin() + static_cast<std::ptrdiff_t>(lead),
                    small.end(), full.end() - static_cast<std::ptrdiff_t>(tail));
}

// Every path below writes each output element once, from one worker, as
// fn(a-element, b-element), so results do not depend on the thread count.
template <typename BinaryFn>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, BinaryFn fn) {
  // Fast path: identical shapes.
  if (ShapesEqual(a.shape(), b.shape())) {
    Tensor out(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    int64_t n = a.numel();
    ParallelFor(
        0, n,
        [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i], pb[i]);
        },
        kElementwiseMinChunk);
    return out;
  }
  Shape out_shape = BroadcastShape(a.shape(), b.shape());
  Tensor out(out_shape);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  int64_t n = out.numel();
  if (n == 0) return out;

  // Row path: one operand has the output shape and the other matches its
  // trailing axes (bias adds, per-step embeddings).
  const bool a_full = ShapesEqual(a.shape(), out_shape);
  if ((a_full && IsSuffixShape(b.shape(), out_shape)) ||
      (ShapesEqual(b.shape(), out_shape) &&
       IsSuffixShape(a.shape(), out_shape))) {
    const int64_t row = a_full ? b.numel() : a.numel();
    ParallelFor(
        0, n / row,
        [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            float* dst = po + r * row;
            if (a_full) {
              const float* src = pa + r * row;
              for (int64_t j = 0; j < row; ++j) dst[j] = fn(src[j], pb[j]);
            } else {
              const float* src = pb + r * row;
              for (int64_t j = 0; j < row; ++j) dst[j] = fn(pa[j], src[j]);
            }
          }
        },
        MinRowsPerChunk(row));
    return out;
  }

  // General path: walk the output multi-index, carrying both input
  // offsets. Each chunk starts its walk at its own first flat index.
  std::vector<int64_t> sa = BroadcastStrides(a.shape(), out_shape);
  std::vector<int64_t> sb = BroadcastStrides(b.shape(), out_shape);
  const size_t ndim = out_shape.size();
  ParallelFor(
      0, n,
      [&](int64_t lo, int64_t hi) {
        std::vector<int64_t> idx(ndim, 0);
        int64_t oa = 0, ob = 0;
        int64_t rest = lo;
        for (size_t i = ndim; i-- > 0;) {
          idx[i] = rest % out_shape[i];
          rest /= out_shape[i];
          oa += idx[i] * sa[i];
          ob += idx[i] * sb[i];
        }
        for (int64_t flat = lo; flat < hi; ++flat) {
          po[flat] = fn(pa[oa], pb[ob]);
          // Increment the multi-index (row-major) and the two offsets.
          for (size_t i = ndim; i-- > 0;) {
            ++idx[i];
            oa += sa[i];
            ob += sb[i];
            if (idx[i] < out_shape[i]) break;
            oa -= sa[i] * out_shape[i];
            ob -= sb[i] * out_shape[i];
            idx[i] = 0;
          }
        }
      },
      kElementwiseMinChunk);
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x + y; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x - y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x * y; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x / y; });
}

Tensor SumToShape(const Tensor& t, const Shape& target_shape) {
  if (ShapesEqual(t.shape(), target_shape)) return t;
  PRISTI_CHECK_LE(target_shape.size(), t.shape().size());
  // Sum leading extra axes first.
  Tensor cur = t;
  while (cur.shape().size() > target_shape.size()) {
    cur = SumAxis(cur, 0, /*keepdim=*/false);
  }
  // Then sum broadcast (size-1) axes.
  for (size_t i = 0; i < target_shape.size(); ++i) {
    if (target_shape[i] == 1 && cur.shape()[i] != 1) {
      cur = SumAxis(cur, static_cast<int64_t>(i), /*keepdim=*/true);
    } else {
      PRISTI_CHECK_EQ(target_shape[i], cur.shape()[i])
          << "SumToShape cannot reduce " << ShapeToString(t.shape())
          << " to " << ShapeToString(target_shape);
    }
  }
  return cur;
}

// ---------------------------------------------------------------------------
// Unary ops
// ---------------------------------------------------------------------------

namespace {

template <typename Fn>
Tensor UnaryOp(const Tensor& a, Fn fn) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  int64_t n = a.numel();
  ParallelFor(
      0, n,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i]);
      },
      kElementwiseMinChunk);
  return out;
}

}  // namespace

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x + s; });
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x * s; });
}
Tensor Neg(const Tensor& a) {
  return UnaryOp(a, [](float x) { return -x; });
}
Tensor Exp(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::exp(x); });
}
Tensor Log(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::sqrt(x); });
}
Tensor Square(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x * x; });
}
Tensor Abs(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::fabs(x); });
}
Tensor Relu(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
Tensor Tanh(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::tanh(x); });
}

Tensor Clamp(const Tensor& a, float lo, float hi) {
  PRISTI_CHECK_LE(lo, hi);
  return UnaryOp(a, [lo, hi](float x) { return std::clamp(x, lo, hi); });
}

Tensor Where(const Tensor& cond, const Tensor& a, const Tensor& b) {
  PRISTI_CHECK(ShapesEqual(cond.shape(), a.shape()));
  PRISTI_CHECK(ShapesEqual(cond.shape(), b.shape()));
  Tensor out(a.shape());
  const float* pc = cond.data();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ParallelFor(
      0, out.numel(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          po[i] = pc[i] > 0.5f ? pa[i] : pb[i];
        }
      },
      kElementwiseMinChunk);
  return out;
}

// ---------------------------------------------------------------------------
// Matrix products
// ---------------------------------------------------------------------------

// All products dispatch to the tiled kernel layer (tensor/kernels/): packed
// panels, a 4x16 register-tiled micro-kernel, and the pack cache for the
// shared-weight entry points. Outputs are freshly zeroed tensors, which is
// the precondition for the layer's bit-identity contract; parallel
// partitioning (rows for single GEMMs, items for batched) lives inside the
// layer and keeps every output element on one thread.

namespace {

using kernels::Layout;

// Shared shape plumbing for the batched entry points: checks leading dims
// match and builds the (..., m, n) output shape.
Tensor BatchedOutput(const Tensor& a, const Tensor& b, int64_t m, int64_t n,
                     const char* op_name) {
  PRISTI_CHECK_GE(a.ndim(), 2);
  PRISTI_CHECK_EQ(a.ndim(), b.ndim());
  int64_t nd = a.ndim();
  for (int64_t i = 0; i < nd - 2; ++i) {
    PRISTI_CHECK_EQ(a.dim(i), b.dim(i))
        << op_name << " leading dim mismatch";
  }
  Shape out_shape(a.shape().begin(), a.shape().end() - 2);
  out_shape.push_back(m);
  out_shape.push_back(n);
  return Tensor(out_shape);
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  PRISTI_CHECK_EQ(a.ndim(), 2);
  PRISTI_CHECK_EQ(b.ndim(), 2);
  int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  PRISTI_CHECK_EQ(k, b.dim(0)) << "MatMul inner dim mismatch";
  Tensor out(Shape{m, n});
  kernels::Gemm(Layout::kNormal, Layout::kNormal, m, n, k, a.data(), b.data(),
                out.data());
  return out;
}

Tensor MatMulNT(const Tensor& a, const Tensor& b) {
  PRISTI_CHECK_EQ(a.ndim(), 2);
  PRISTI_CHECK_EQ(b.ndim(), 2);
  int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  PRISTI_CHECK_EQ(k, b.dim(1)) << "MatMulNT inner dim mismatch";
  Tensor out(Shape{m, n});
  kernels::Gemm(Layout::kNormal, Layout::kTransposed, m, n, k, a.data(),
                b.data(), out.data());
  return out;
}

Tensor MatMulTN(const Tensor& a, const Tensor& b) {
  PRISTI_CHECK_EQ(a.ndim(), 2);
  PRISTI_CHECK_EQ(b.ndim(), 2);
  int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  PRISTI_CHECK_EQ(k, b.dim(0)) << "MatMulTN inner dim mismatch";
  Tensor out(Shape{m, n});
  kernels::Gemm(Layout::kTransposed, Layout::kNormal, m, n, k, a.data(),
                b.data(), out.data());
  return out;
}

Tensor BatchedMatMul(const Tensor& a, const Tensor& b) {
  int64_t nd = a.ndim();
  int64_t m = a.dim(nd - 2), k = a.dim(nd - 1), n = b.dim(nd - 1);
  PRISTI_CHECK_EQ(k, b.dim(nd - 2)) << "BatchedMatMul inner dim mismatch";
  Tensor out = BatchedOutput(a, b, m, n, "BatchedMatMul");
  kernels::BatchedGemm(Layout::kNormal, Layout::kNormal, a.numel() / (m * k),
                       m, n, k, a.data(), m * k, b.data(), k * n, out.data());
  return out;
}

Tensor BatchedMatMulNT(const Tensor& a, const Tensor& b) {
  int64_t nd = a.ndim();
  int64_t m = a.dim(nd - 2), k = a.dim(nd - 1), n = b.dim(nd - 2);
  PRISTI_CHECK_EQ(k, b.dim(nd - 1)) << "BatchedMatMulNT inner dim mismatch";
  Tensor out = BatchedOutput(a, b, m, n, "BatchedMatMulNT");
  kernels::BatchedGemm(Layout::kNormal, Layout::kTransposed,
                       a.numel() / (m * k), m, n, k, a.data(), m * k,
                       b.data(), n * k, out.data());
  return out;
}

Tensor BatchedMatMulTN(const Tensor& a, const Tensor& b) {
  int64_t nd = a.ndim();
  int64_t k = a.dim(nd - 2), m = a.dim(nd - 1), n = b.dim(nd - 1);
  PRISTI_CHECK_EQ(k, b.dim(nd - 2)) << "BatchedMatMulTN inner dim mismatch";
  Tensor out = BatchedOutput(a, b, m, n, "BatchedMatMulTN");
  kernels::BatchedGemm(Layout::kTransposed, Layout::kNormal,
                       a.numel() / (m * k), m, n, k, a.data(), k * m,
                       b.data(), k * n, out.data());
  return out;
}

Tensor MatMulLastDim(const Tensor& x, const Tensor& w) {
  PRISTI_CHECK_EQ(w.ndim(), 2);
  PRISTI_CHECK_GE(x.ndim(), 1);
  int64_t k_in = x.dim(-1);
  PRISTI_CHECK_EQ(k_in, w.dim(0)) << "MatMulLastDim inner dim mismatch";
  int64_t k_out = w.dim(1);
  int64_t rows = x.numel() / k_in;
  Shape out_shape = x.shape();
  out_shape.back() = k_out;
  Tensor out(out_shape);
  // Rows scale with the full batch (B*N*L for Linear layers), so this is
  // the dominant parallel axis for the sample-batched sampler. `w` is a
  // long-lived layer weight: its packed panel comes from the pack cache.
  kernels::Gemm(Layout::kNormal, Layout::kNormal, rows, k_out, k_in, x.data(),
                w.data(), out.data(), /*cache_a=*/nullptr, /*cache_b=*/&w);
  return out;
}

Tensor MatMulLastDimT(const Tensor& x, const Tensor& w) {
  PRISTI_CHECK_EQ(w.ndim(), 2);
  PRISTI_CHECK_GE(x.ndim(), 1);
  int64_t k_out = x.dim(-1);
  PRISTI_CHECK_EQ(k_out, w.dim(1)) << "MatMulLastDimT inner dim mismatch";
  int64_t k_in = w.dim(0);
  int64_t rows = x.numel() / k_out;
  Shape out_shape = x.shape();
  out_shape.back() = k_in;
  Tensor out(out_shape);
  // w is read through its transpose in place — the MatMulLastDim backward
  // needs no materialized wᵀ — and caches a T-layout panel separately from
  // the forward's N-layout panel.
  kernels::Gemm(Layout::kNormal, Layout::kTransposed, rows, k_in, k_out,
                x.data(), w.data(), out.data(), /*cache_a=*/nullptr,
                /*cache_b=*/&w);
  return out;
}

Tensor MatMulNodeDim(const Tensor& p, const Tensor& x) {
  PRISTI_CHECK_EQ(p.ndim(), 2);
  PRISTI_CHECK_GE(x.ndim(), 2);
  int64_t rows_out = p.dim(0), rows_in = p.dim(1);
  PRISTI_CHECK_EQ(rows_in, x.dim(-2)) << "MatMulNodeDim node-axis mismatch";
  int64_t d = x.dim(-1);
  int64_t batch = x.numel() / (rows_in * d);
  Shape out_shape = x.shape();
  out_shape[out_shape.size() - 2] = rows_out;
  Tensor out(out_shape);
  // p broadcasts across the batch (stride 0) and is a long-lived operator
  // (graph-conv support, virtual-node projection): cached packed panel.
  kernels::BatchedGemm(Layout::kNormal, Layout::kNormal, batch, rows_out, d,
                       rows_in, p.data(), /*stride_a=*/0, x.data(),
                       /*stride_b=*/rows_in * d, out.data(),
                       /*cache_a=*/&p);
  return out;
}

Tensor MatMulNodeDimT(const Tensor& p, const Tensor& x) {
  PRISTI_CHECK_EQ(p.ndim(), 2);
  PRISTI_CHECK_GE(x.ndim(), 2);
  int64_t rows_out = p.dim(0), rows_in = p.dim(1);
  PRISTI_CHECK_EQ(rows_out, x.dim(-2)) << "MatMulNodeDimT node-axis mismatch";
  int64_t d = x.dim(-1);
  int64_t batch = x.numel() / (rows_out * d);
  Shape out_shape = x.shape();
  out_shape[out_shape.size() - 2] = rows_in;
  Tensor out(out_shape);
  // pᵀ applied in place (the MatMulNodeDim backward), broadcast + cached.
  kernels::BatchedGemm(Layout::kTransposed, Layout::kNormal, batch, rows_in,
                       d, rows_out, p.data(), /*stride_a=*/0, x.data(),
                       /*stride_b=*/rows_out * d, out.data(),
                       /*cache_a=*/&p);
  return out;
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

float SumAll(const Tensor& a) {
  // Kahan summation keeps reductions stable for large tensors.
  double sum = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) sum += a[i];
  return static_cast<float>(sum);
}

float MeanAll(const Tensor& a) {
  PRISTI_CHECK_GT(a.numel(), 0);
  return SumAll(a) / static_cast<float>(a.numel());
}

float MaxAll(const Tensor& a) {
  PRISTI_CHECK_GT(a.numel(), 0);
  float m = a[0];
  for (int64_t i = 1; i < a.numel(); ++i) m = std::max(m, a[i]);
  return m;
}

float MinAll(const Tensor& a) {
  PRISTI_CHECK_GT(a.numel(), 0);
  float m = a[0];
  for (int64_t i = 1; i < a.numel(); ++i) m = std::min(m, a[i]);
  return m;
}

Tensor SumAxis(const Tensor& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.ndim();
  PRISTI_CHECK_GE(axis, 0);
  PRISTI_CHECK_LT(axis, a.ndim());
  int64_t outer = 1, mid = a.dim(axis), inner = 1;
  for (int64_t i = 0; i < axis; ++i) outer *= a.dim(i);
  for (int64_t i = axis + 1; i < a.ndim(); ++i) inner *= a.dim(i);
  Shape out_shape;
  for (int64_t i = 0; i < a.ndim(); ++i) {
    if (i == axis) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(a.dim(i));
    }
  }
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t m = 0; m < mid; ++m) {
      const float* src = pa + (o * mid + m) * inner;
      float* dst = po + o * inner;
      for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
    }
  }
  return out;
}

Tensor MeanAxis(const Tensor& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.ndim();
  Tensor out = SumAxis(a, axis, keepdim);
  out.ScaleInPlace(1.0f / static_cast<float>(a.dim(axis)));
  return out;
}

// ---------------------------------------------------------------------------
// Shape manipulation
// ---------------------------------------------------------------------------

Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm) {
  PRISTI_CHECK_EQ(static_cast<int64_t>(perm.size()), a.ndim());
  int64_t nd = a.ndim();
  std::vector<bool> seen(static_cast<size_t>(nd), false);
  Shape out_shape(static_cast<size_t>(nd));
  for (int64_t i = 0; i < nd; ++i) {
    int64_t p = perm[static_cast<size_t>(i)];
    PRISTI_CHECK_GE(p, 0);
    PRISTI_CHECK_LT(p, nd);
    PRISTI_CHECK(!seen[static_cast<size_t>(p)]) << "perm is not a permutation";
    seen[static_cast<size_t>(p)] = true;
    out_shape[static_cast<size_t>(i)] = a.dim(p);
  }
  // Strides of the input, then walk the output in row-major order. When
  // the last axis stays last, the walk moves whole rows of it; otherwise
  // single elements.
  std::vector<int64_t> in_strides(static_cast<size_t>(nd));
  int64_t stride = 1;
  for (int64_t i = nd; i-- > 0;) {
    in_strides[static_cast<size_t>(i)] = stride;
    stride *= a.dim(i);
  }
  const bool keep_last = nd > 0 && perm.back() == nd - 1;
  const size_t walk_nd = static_cast<size_t>(keep_last ? nd - 1 : nd);
  std::vector<int64_t> out_strides_in(walk_nd);
  for (size_t i = 0; i < walk_nd; ++i) {
    out_strides_in[i] = in_strides[static_cast<size_t>(perm[i])];
  }
  Tensor out(out_shape);
  const int64_t n = out.numel();
  if (n == 0) return out;
  const int64_t run = keep_last ? out_shape.back() : 1;
  const float* pa = a.data();
  float* po = out.data();
  // Each chunk starts its walk at the multi-index of its first run.
  ParallelFor(
      0, n / run,
      [&](int64_t lo, int64_t hi) {
        std::vector<int64_t> idx(walk_nd, 0);
        int64_t in_off = 0;
        int64_t rest = lo;
        for (size_t i = walk_nd; i-- > 0;) {
          idx[i] = rest % out_shape[i];
          rest /= out_shape[i];
          in_off += idx[i] * out_strides_in[i];
        }
        for (int64_t r = lo; r < hi; ++r) {
          if (run == 1) {
            po[r] = pa[in_off];
          } else {
            std::memcpy(po + r * run, pa + in_off,
                        static_cast<size_t>(run) * sizeof(float));
          }
          for (size_t i = walk_nd; i-- > 0;) {
            ++idx[i];
            in_off += out_strides_in[i];
            if (idx[i] < out_shape[i]) break;
            in_off -= out_strides_in[i] * out_shape[i];
            idx[i] = 0;
          }
        }
      },
      MinRowsPerChunk(run));
  return out;
}

Tensor TransposeLast2(const Tensor& a) {
  PRISTI_CHECK_GE(a.ndim(), 2);
  std::vector<int64_t> perm(static_cast<size_t>(a.ndim()));
  for (int64_t i = 0; i < a.ndim(); ++i) perm[static_cast<size_t>(i)] = i;
  std::swap(perm[perm.size() - 1], perm[perm.size() - 2]);
  return Permute(a, perm);
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  PRISTI_CHECK(!parts.empty());
  int64_t nd = parts[0].ndim();
  if (axis < 0) axis += nd;
  PRISTI_CHECK_GE(axis, 0);
  PRISTI_CHECK_LT(axis, nd);
  int64_t axis_total = 0;
  for (const Tensor& p : parts) {
    PRISTI_CHECK_EQ(p.ndim(), nd);
    for (int64_t i = 0; i < nd; ++i) {
      if (i != axis) PRISTI_CHECK_EQ(p.dim(i), parts[0].dim(i));
    }
    axis_total += p.dim(axis);
  }
  Shape out_shape = parts[0].shape();
  out_shape[static_cast<size_t>(axis)] = axis_total;
  Tensor out(out_shape);
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < axis; ++i) outer *= out.dim(i);
  for (int64_t i = axis + 1; i < nd; ++i) inner *= out.dim(i);
  // Each outer index owns one output row of axis_total * inner floats,
  // built from one run per part.
  std::vector<std::pair<const float*, int64_t>> runs;
  for (const Tensor& p : parts) {
    const int64_t run = p.dim(axis) * inner;
    if (run > 0) runs.emplace_back(p.data(), run);
  }
  const int64_t row = axis_total * inner;
  float* po = out.data();
  ParallelFor(
      0, outer,
      [&](int64_t lo, int64_t hi) {
        for (int64_t o = lo; o < hi; ++o) {
          float* dst = po + o * row;
          for (const auto& [src, run] : runs) {
            std::memcpy(dst, src + o * run,
                        static_cast<size_t>(run) * sizeof(float));
            dst += run;
          }
        }
      },
      MinRowsPerChunk(row));
  return out;
}

Tensor Stack(const std::vector<Tensor>& parts) {
  PRISTI_CHECK(!parts.empty());
  Shape item_shape = parts[0].shape();
  Shape out_shape;
  out_shape.push_back(static_cast<int64_t>(parts.size()));
  for (int64_t d : item_shape) out_shape.push_back(d);
  Tensor out(out_shape);
  int64_t item_numel = parts[0].numel();
  float* po = out.data();
  for (size_t i = 0; i < parts.size(); ++i) {
    PRISTI_CHECK(ShapesEqual(parts[i].shape(), item_shape))
        << "Stack requires identical shapes";
    if (item_numel == 0) continue;
    std::memcpy(po + static_cast<int64_t>(i) * item_numel, parts[i].data(),
                static_cast<size_t>(item_numel) * sizeof(float));
  }
  return out;
}

Tensor SliceAxis(const Tensor& a, int64_t axis, int64_t start,
                 int64_t length) {
  int64_t nd = a.ndim();
  if (axis < 0) axis += nd;
  PRISTI_CHECK_GE(axis, 0);
  PRISTI_CHECK_LT(axis, nd);
  PRISTI_CHECK_GE(start, 0);
  PRISTI_CHECK_GE(length, 0);
  PRISTI_CHECK_LE(start + length, a.dim(axis));
  // A leading-axis slice of a contiguous tensor is itself contiguous, so it
  // can alias the parent storage instead of copying.
  if (axis == 0) return a.SliceLeading(start, length);
  int64_t outer = 1, mid = a.dim(axis), inner = 1;
  for (int64_t i = 0; i < axis; ++i) outer *= a.dim(i);
  for (int64_t i = axis + 1; i < nd; ++i) inner *= a.dim(i);
  Shape out_shape = a.shape();
  out_shape[static_cast<size_t>(axis)] = length;
  Tensor out(out_shape);
  const int64_t run = length * inner;
  if (run == 0) return out;
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(
      0, outer,
      [&](int64_t lo, int64_t hi) {
        for (int64_t o = lo; o < hi; ++o) {
          std::memcpy(po + o * run, pa + (o * mid + start) * inner,
                      static_cast<size_t>(run) * sizeof(float));
        }
      },
      MinRowsPerChunk(run));
  return out;
}

// ---------------------------------------------------------------------------
// Softmax
// ---------------------------------------------------------------------------

Tensor SoftmaxLastDim(const Tensor& a) {
  PRISTI_CHECK_GE(a.ndim(), 1);
  int64_t d = a.dim(-1);
  PRISTI_CHECK_GT(d, 0);
  int64_t rows = a.numel() / d;
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(
      0, rows,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* src = pa + r * d;
          float* dst = po + r * d;
          float row_max = src[0];
          for (int64_t i = 1; i < d; ++i) row_max = std::max(row_max, src[i]);
          double denom = 0.0;
          for (int64_t i = 0; i < d; ++i) {
            dst[i] = std::exp(src[i] - row_max);
            denom += dst[i];
          }
          float inv = static_cast<float>(1.0 / denom);
          for (int64_t i = 0; i < d; ++i) dst[i] *= inv;
        }
      },
      MinRowsPerChunk(d));
  return out;
}

// ---------------------------------------------------------------------------
// Comparisons & serialization
// ---------------------------------------------------------------------------

bool AllClose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (!ShapesEqual(a.shape(), b.shape())) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    float x = a[i], y = b[i];
    if (std::isnan(x) || std::isnan(y)) return false;
    if (std::fabs(x - y) > atol + rtol * std::fabs(y)) return false;
  }
  return true;
}

void WriteTensor(std::ostream& out, const Tensor& t) {
  int64_t nd = t.ndim();
  out.write(reinterpret_cast<const char*>(&nd), sizeof(nd));
  for (int64_t i = 0; i < nd; ++i) {
    int64_t d = t.dim(i);
    out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  if (t.numel() > 0) {
    out.write(reinterpret_cast<const char*>(t.data()),
              static_cast<std::streamsize>(t.numel() * sizeof(float)));
  }
}

Tensor ReadTensor(std::istream& in) {
  int64_t nd = 0;
  in.read(reinterpret_cast<char*>(&nd), sizeof(nd));
  PRISTI_CHECK(in.good()) << "truncated tensor stream";
  PRISTI_CHECK_GE(nd, 0);
  PRISTI_CHECK_LE(nd, 8) << "implausible tensor rank";
  Shape shape(static_cast<size_t>(nd));
  for (int64_t i = 0; i < nd; ++i) {
    in.read(reinterpret_cast<char*>(&shape[static_cast<size_t>(i)]),
            sizeof(int64_t));
  }
  Tensor t(shape);
  if (t.numel() > 0) {
    in.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
  }
  PRISTI_CHECK(in.good()) << "truncated tensor payload";
  return t;
}

}  // namespace pristi::tensor
