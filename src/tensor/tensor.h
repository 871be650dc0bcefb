#ifndef PRISTI_TENSOR_TENSOR_H_
#define PRISTI_TENSOR_TENSOR_H_

// Dense row-major float32 tensor with value semantics over shared storage.
//
// This is the numerical substrate for the whole library: the autograd tape
// (src/autograd) wraps these tensors, and every model (PriSTI, CSDI, the RNN
// baselines) is expressed in terms of the kernels declared here. The design
// favours clarity and testability over peak throughput — experiment shapes
// in this reproduction are small (N<=325 nodes, L<=36 steps, d<=64 channels),
// so a clean O(n) / blocked O(n^3) implementation is sufficient.
//
// Memory model: a Tensor is a cheap header — shape, element offset, and a
// shared_ptr to a ref-counted Storage block (storage.h) drawn from the
// pooled allocator. Copying a Tensor copies the header only; the buffer is
// shared. Every mutating accessor (non-const data()/at()/operator[], Fill,
// AddInPlace, ScaleInPlace) performs copy-on-write first: if the storage is
// shared it forks a private copy of this header's element range, so all
// public call sites keep exact value semantics. Reshaped() and the leading-
// axis SliceAxis() fast path return zero-copy views (shared storage,
// adjusted shape/offset) — safe for the same reason. Use Clone() when a
// guaranteed-private deep copy is required regardless of mutation, and
// SharesStorage() in tests to assert aliasing.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/storage.h"

namespace pristi::tensor {

// Tensor shape; an empty Shape denotes a scalar (numel == 1, ndim == 0).
using Shape = std::vector<int64_t>;

std::string ShapeToString(const Shape& shape);
int64_t ShapeNumel(const Shape& shape);
bool ShapesEqual(const Shape& a, const Shape& b);

class Tensor {
 public:
  // An empty (numel 0, ndim 1 with dim 0) tensor. Distinct from a scalar.
  Tensor();

  // Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  Tensor(Shape shape, std::vector<float> data);

  // Header copies: O(1), storage shared until a mutating access forks it.
  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  // ---- Factories ------------------------------------------------------
  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  static Tensor Scalar(float value);
  // i.i.d. N(0,1) entries.
  static Tensor Randn(Shape shape, Rng& rng);
  // i.i.d. U[lo, hi) entries.
  static Tensor Rand(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);
  // [0, 1, ..., n-1] as a 1-D tensor.
  static Tensor Arange(int64_t n);

  // ---- Introspection ---------------------------------------------------
  const Shape& shape() const { return shape_; }
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int64_t axis) const;
  int64_t numel() const { return numel_; }

  // Non-const data() is a mutating access: it forks shared storage first,
  // so the returned pointer is private to this header. Take it AFTER any
  // copies/views of the tensor have been made, never before. The storage
  // version is bumped on every call: any pack-cache entry keyed on the old
  // (id, version) pair goes stale the moment a writable pointer escapes.
  float* data() {
    if (storage_ != nullptr && storage_.use_count() > 1) Unshare();
    if (storage_ != nullptr) storage_->BumpVersion();
    return storage_ != nullptr ? storage_->data() + offset_ : nullptr;
  }
  const float* data() const {
    return storage_ != nullptr ? storage_->data() + offset_ : nullptr;
  }

  // True when both headers alias the same Storage block (copies before
  // mutation, views). Test/diagnostic hook for the COW invariants.
  bool SharesStorage(const Tensor& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

  // Storage identity triple consumed by the GEMM pack cache
  // (tensor/kernels/): (storage_id, storage_version, storage_offset) pins
  // the exact bytes this header reads, without keeping the Storage alive.
  // Empty tensors report id 0 (never cached).
  uint64_t storage_id() const { return storage_ != nullptr ? storage_->id() : 0; }
  uint64_t storage_version() const {
    return storage_ != nullptr ? storage_->version() : 0;
  }
  int64_t storage_offset() const { return offset_; }

  // Guaranteed-private deep copy (fresh storage), regardless of sharing.
  Tensor Clone() const;

  // ---- Element access (debug-friendly; bounds-checked) ----------------
  float& at(std::initializer_list<int64_t> idx);
  float at(std::initializer_list<int64_t> idx) const;
  float& operator[](int64_t flat_index);
  float operator[](int64_t flat_index) const;

  // ---- In-place helpers (copy-on-write: fork shared storage first) ----
  void Fill(float value);
  void AddInPlace(const Tensor& other);          // same shape
  void ScaleInPlace(float factor);
  void ZeroOut() { Fill(0.0f); }

  // Zero-copy view with a new shape of identical numel (storage shared;
  // always valid because tensors are contiguous row-major).
  Tensor Reshaped(Shape new_shape) const;

  // Zero-copy view of rows [start, start+length) of the leading axis.
  // SliceAxis() routes axis-0 slices here; exposed for direct use.
  Tensor SliceLeading(int64_t start, int64_t length) const;

  std::string ToString(int64_t max_entries = 32) const;

 private:
  // View constructor: adopt `storage` at `offset` without copying.
  Tensor(Shape shape, std::shared_ptr<Storage> storage, int64_t offset);

  // Forks a private copy of [offset_, offset_ + numel_). Called by mutating
  // accessors when the storage is shared.
  void Unshare();

  Shape shape_;
  int64_t numel_ = 0;
  int64_t offset_ = 0;
  std::shared_ptr<Storage> storage_;  // null iff numel_ == 0
};

// ---- Elementwise binary ops with NumPy-style broadcasting ---------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
// Shape of `Op(a, b)` under broadcasting; CHECK-fails on incompatibility.
Shape BroadcastShape(const Shape& a, const Shape& b);
// Reduce-sums `t` down to `target_shape` (the adjoint of broadcasting).
Tensor SumToShape(const Tensor& t, const Shape& target_shape);

// ---- Elementwise unary / scalar ops --------------------------------------
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
// Elementwise clamp to [lo, hi].
Tensor Clamp(const Tensor& a, float lo, float hi);
// Elementwise select: cond > 0.5 ? a : b (all same shape).
Tensor Where(const Tensor& cond, const Tensor& a, const Tensor& b);

// ---- Matrix products ------------------------------------------------------
// All products run on the tiled kernel layer in tensor/kernels/ and are
// bit-identical to the retained reference kernel at any thread count. The
// NT/TN variants read the transposed operand in place — no TransposeLast2
// materialization — which is how attention scores (Q·Kᵀ) and every
// MatMul-family backward pass stay copy-free.
//
// (m,k) x (k,n) -> (m,n).
Tensor MatMul(const Tensor& a, const Tensor& b);
// (m,k) x (n,k)ᵀ -> (m,n): B is read transposed in place.
Tensor MatMulNT(const Tensor& a, const Tensor& b);
// (k,m)ᵀ x (k,n) -> (m,n): A is read transposed in place.
Tensor MatMulTN(const Tensor& a, const Tensor& b);
// (..., m, k) x (..., k, n) -> (..., m, n); leading dims must match exactly.
Tensor BatchedMatMul(const Tensor& a, const Tensor& b);
// (..., m, k) x (..., n, k)ᵀ -> (..., m, n).
Tensor BatchedMatMulNT(const Tensor& a, const Tensor& b);
// (..., k, m)ᵀ x (..., k, n) -> (..., m, n).
Tensor BatchedMatMulTN(const Tensor& a, const Tensor& b);
// Applies a shared (k_in, k_out) matrix to the last axis: (..., k_in) ->
// (..., k_out). This is the kernel behind Linear / Conv1x1 layers; the
// weight's packed panel is cached across calls (see kernels/pack_cache).
Tensor MatMulLastDim(const Tensor& x, const Tensor& w);
// Applies the TRANSPOSE of a shared (k_in, k_out) matrix to the last axis:
// (..., k_out) -> (..., k_in). The backward of MatMulLastDim.
Tensor MatMulLastDimT(const Tensor& x, const Tensor& w);
// Applies a shared (rows_out, rows_in) matrix to the second-to-last axis:
// (..., rows_in, d) -> (..., rows_out, d). Kernel behind graph convolution
// (rows = nodes) and virtual-node downsampling; `p`'s packed panel is
// cached across calls.
Tensor MatMulNodeDim(const Tensor& p, const Tensor& x);
// Applies the TRANSPOSE of a shared (rows_out, rows_in) matrix to the
// second-to-last axis: (..., rows_out, d) -> (..., rows_in, d). The
// backward of MatMulNodeDim.
Tensor MatMulNodeDimT(const Tensor& p, const Tensor& x);

// ---- Reductions -------------------------------------------------------------
float SumAll(const Tensor& a);
float MeanAll(const Tensor& a);
float MaxAll(const Tensor& a);
float MinAll(const Tensor& a);
// Sum over `axis`, keeping it as size-1 when keepdim.
Tensor SumAxis(const Tensor& a, int64_t axis, bool keepdim = false);
Tensor MeanAxis(const Tensor& a, int64_t axis, bool keepdim = false);

// ---- Shape manipulation ----------------------------------------------------
// Permutes axes; perm must be a permutation of [0, ndim).
Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm);
// Transposes the last two axes.
Tensor TransposeLast2(const Tensor& a);
// Concatenates along `axis`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);
// Stacks same-shaped tensors along a new leading axis.
Tensor Stack(const std::vector<Tensor>& parts);
// Slices [start, start+length) along `axis`. Axis 0 returns a zero-copy
// view (see Tensor::SliceLeading); other axes copy.
Tensor SliceAxis(const Tensor& a, int64_t axis, int64_t start, int64_t length);

// ---- Softmax ----------------------------------------------------------------
// Numerically stable softmax over the last axis.
Tensor SoftmaxLastDim(const Tensor& a);

// ---- Comparisons -------------------------------------------------------------
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-5f);

// ---- Serialization ------------------------------------------------------------
// Binary format: ndim, dims, raw float payload. Used for model checkpoints.
// Encodes logical shape + values only, so views serialize identically to
// their deep-copied equivalents.
void WriteTensor(std::ostream& out, const Tensor& t);
Tensor ReadTensor(std::istream& in);

}  // namespace pristi::tensor

#endif  // PRISTI_TENSOR_TENSOR_H_
