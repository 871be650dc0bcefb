#ifndef PRISTI_AUTOGRAD_VARIABLE_H_
#define PRISTI_AUTOGRAD_VARIABLE_H_

// Tape-based reverse-mode automatic differentiation.
//
// A `Variable` wraps a tensor value in a shared graph node. Operators in
// ops.h build the computation graph eagerly; calling `Backward()` on a
// scalar output propagates gradients to every reachable node that has
// `requires_grad` set. Gradients accumulate across calls until `ZeroGrad()`.
//
// The graph is dynamic (rebuilt every forward pass) which matches how the
// diffusion training loop works: each iteration samples a new diffusion step
// and mask, so no two iterations share a graph.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace pristi::autograd {

using tensor::Shape;
using tensor::Tensor;

// ---- Inference mode --------------------------------------------------------
// RAII scope that disables tape recording on the current thread. While at
// least one guard is alive, ops in ops.h produce graph-free nodes: no
// parent edges, no backward closures. Intermediate activations are then
// freed (returned to the tensor BufferPool) as soon as the last Variable
// referencing them goes out of scope, and Backward() through any value
// produced under the guard is a typed PRISTI_CHECK failure instead of a
// silent zero-gradient. Guards nest; recording resumes when the outermost
// guard is destroyed. The flag is thread-local, so worker threads' gradient
// recording is unaffected.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;
};

// True when ops record the tape (no NoGradGuard alive on this thread).
bool GradModeEnabled();

class Variable;

// ---- Gradient capture ------------------------------------------------------
// RAII scope that redirects leaf-gradient accumulation on the current thread
// into caller-owned buffers, which is what lets several backward sweeps over
// the SAME parameters run concurrently (the shard-parallel trainer): each
// worker opens a scope over the model's parameters and its sweep writes into
// the worker's private buffers instead of the shared `Node::grad` fields.
//
// While a scope is alive on this thread:
//   * AccumulateGrad on a registered node adds into the paired buffer
//     (allocated zero-filled on first touch, so an empty buffer afterwards
//     means "this sweep never reached that parameter");
//   * AccumulateGrad on an UNREGISTERED pure constant — a leaf with
//     requires_grad == false, e.g. the graph-conv support matrices shared by
//     every worker — is dropped: its gradient is never read, and the
//     unsynchronized write into the shared node is exactly the data race the
//     scope exists to prevent;
//   * interior nodes (those with a backward closure) accumulate normally —
//     they are private to the sweep that built them.
//
// Scopes do not nest (checked) and must be destroyed on the thread that
// created them. `targets` and `buffers` must stay alive for the scope's
// lifetime and have equal lengths.
class GradCaptureScope {
 public:
  GradCaptureScope(const std::vector<Variable>& targets,
                   std::vector<Tensor>* buffers);
  ~GradCaptureScope();
  GradCaptureScope(const GradCaptureScope&) = delete;
  GradCaptureScope& operator=(const GradCaptureScope&) = delete;
};

namespace internal {

// One node of the autodiff tape.
struct Node {
  Tensor value;
  // Lazily allocated on first accumulation; empty until then.
  Tensor grad;
  bool requires_grad = false;
  // Name of the operator that produced this node ("leaf" for leaves); used
  // for NaN attribution and tape-misuse diagnostics.
  const char* op_name = "leaf";
  // Bumped on every mutable_value() write. Interior ops record their
  // parents' versions at build time (parent_versions), letting Backward()
  // detect backward-through-stale-tape: a parameter mutated between the
  // forward pass and the backward sweep.
  uint64_t value_version = 0;
  // Set once this node's backward closure has run; running it a second
  // time is double-backward misuse (the tape is single-shot per graph).
  bool backward_consumed = false;
  // Built under NoGradGuard: the op recorded no parents or closure, so
  // Backward() through this node is a usage error, reported as a typed
  // failure rather than silent zero gradients.
  bool inference_mode = false;
  // Parents retained both for topological ordering and lifetime.
  std::vector<std::shared_ptr<Node>> parents;
  // parents[i]'s value_version at graph-construction time.
  std::vector<uint64_t> parent_versions;
  // Accumulates `grad_out` (same shape as `value`) into the parents' grads.
  // Null for leaves.
  std::function<void(const Tensor& grad_out)> backward;

  // Adds `g` into this node's gradient buffer (allocating if needed).
  void AccumulateGrad(const Tensor& g);

  // A pure constant: no gradient of its own and no edge to anything that
  // wants one (e.g. a fixed graph support). A gradient sent to it is never
  // consumed, so ops neither record an edge to it nor compute one for it.
  bool IsConstant() const { return !requires_grad && backward == nullptr; }
};

}  // namespace internal

class Variable {
 public:
  // A null variable; `defined()` is false.
  Variable() = default;

  // Wraps `value` as a leaf (shares the tensor's storage; O(1)).
  explicit Variable(const Tensor& value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const;
  // Mutable access for optimizer updates; only meaningful on leaves.
  Tensor& mutable_value();
  // The accumulated gradient; CHECK-fails if none was ever accumulated.
  const Tensor& grad() const;
  bool has_grad() const;
  bool requires_grad() const;

  const Shape& shape() const { return value().shape(); }
  int64_t numel() const { return value().numel(); }

  void ZeroGrad();

  // Reverse-mode sweep from this (scalar) output. Seeds d(out)/d(out) = 1,
  // visits the graph in reverse topological order.
  void Backward();

  // A new leaf sharing this variable's current value but cut from the tape.
  Variable Detach() const;

  std::shared_ptr<internal::Node> node() const { return node_; }

  // Used by ops.cc to construct interior nodes.
  static Variable FromNode(std::shared_ptr<internal::Node> node);

 private:
  std::shared_ptr<internal::Node> node_;
};

// Convenience: a constant (non-differentiable) variable.
Variable Constant(const Tensor& value);

}  // namespace pristi::autograd

#endif  // PRISTI_AUTOGRAD_VARIABLE_H_
