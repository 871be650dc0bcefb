#include "autograd/variable.h"

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"

namespace pristi::autograd {

namespace {

// Depth of nested NoGradGuards on this thread; ops record the tape only at
// depth zero.
thread_local int t_no_grad_depth = 0;

// The active GradCaptureScope's node -> buffer table for this thread (null
// when no scope is alive). Thread-local, so concurrent backward sweeps each
// see only their own capture table.
using CaptureMap =
    std::unordered_map<const internal::Node*, tensor::Tensor*>;
thread_local std::unique_ptr<const CaptureMap> t_capture;

}  // namespace

NoGradGuard::NoGradGuard() { ++t_no_grad_depth; }

NoGradGuard::~NoGradGuard() { --t_no_grad_depth; }

bool GradModeEnabled() { return t_no_grad_depth == 0; }

namespace internal {

void Node::AccumulateGrad(const Tensor& g) {
  PRISTI_CHECK(tensor::ShapesEqual(g.shape(), value.shape()))
      << "gradient shape " << tensor::ShapeToString(g.shape())
      << " does not match value shape "
      << tensor::ShapeToString(value.shape());
  if (t_capture != nullptr) {
    auto it = t_capture->find(this);
    if (it != t_capture->end()) {
      // Captured leaf: accumulate into the scope's private buffer instead
      // of the (shared) node. Lazy allocation doubles as the "touched by
      // this sweep" marker.
      Tensor* sink = it->second;
      if (sink->numel() != value.numel()) {
        *sink = Tensor::Zeros(value.shape());
      }
      sink->AddInPlace(g);
      return;
    }
    if (IsConstant()) {
      // Unregistered pure constant (e.g. a support matrix shared by every
      // concurrent sweep): its gradient is never consumed, and writing the
      // shared node from a capture scope would race with other workers.
      return;
    }
  }
  if (grad.numel() != value.numel()) {
    grad = Tensor::Zeros(value.shape());
  }
  grad.AddInPlace(g);
}

}  // namespace internal

namespace {

// Builds the node -> buffer table a scope installs. Kept out of the class so
// variable.h does not need <unordered_map>.
std::unique_ptr<const CaptureMap> MakeCapture(
    const std::vector<Variable>& targets, std::vector<Tensor>* buffers) {
  PRISTI_CHECK(buffers != nullptr);
  PRISTI_CHECK_EQ(targets.size(), buffers->size())
      << "GradCaptureScope: one buffer per target variable";
  PRISTI_CHECK(t_capture == nullptr)
      << "GradCaptureScope does not nest: a scope is already active on this "
         "thread";
  auto capture = std::make_unique<CaptureMap>();
  capture->reserve(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    PRISTI_CHECK(targets[i].defined())
        << "GradCaptureScope target " << i << " is undefined";
    (*capture)[targets[i].node().get()] = &(*buffers)[i];
  }
  return capture;
}

}  // namespace

GradCaptureScope::GradCaptureScope(const std::vector<Variable>& targets,
                                   std::vector<Tensor>* buffers) {
  t_capture = MakeCapture(targets, buffers);
}

GradCaptureScope::~GradCaptureScope() { t_capture.reset(); }

Variable::Variable(const Tensor& value, bool requires_grad)
    : node_(std::make_shared<internal::Node>()) {
  node_->value = value;
  node_->requires_grad = requires_grad;
}

const Tensor& Variable::value() const {
  PRISTI_CHECK(defined()) << "value() on undefined Variable";
  return node_->value;
}

Tensor& Variable::mutable_value() {
  PRISTI_CHECK(defined());
  // Any in-place write invalidates graphs built on the old value; bumping
  // the version lets Backward() flag backward-through-stale-tape.
  ++node_->value_version;
  return node_->value;
}

const Tensor& Variable::grad() const {
  PRISTI_CHECK(defined());
  PRISTI_CHECK(has_grad()) << "no gradient accumulated for this variable";
  return node_->grad;
}

bool Variable::has_grad() const {
  return defined() && node_->grad.numel() == node_->value.numel() &&
         node_->value.numel() > 0;
}

bool Variable::requires_grad() const {
  return defined() && node_->requires_grad;
}

void Variable::ZeroGrad() {
  PRISTI_CHECK(defined());
  if (has_grad()) node_->grad.ZeroOut();
}

namespace {

// Iterative post-order DFS producing a topological order (parents before
// children in the returned vector; we replay it in reverse).
std::vector<internal::Node*> TopologicalOrder(internal::Node* root) {
  std::vector<internal::Node*> order;
  std::unordered_set<internal::Node*> visited;
  struct Frame {
    internal::Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (visited.insert(root).second) stack.push_back({root, 0});
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      internal::Node* parent = top.node->parents[top.next_parent].get();
      ++top.next_parent;
      if (parent != nullptr && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(top.node);
      stack.pop_back();
    }
  }
  return order;
}

}  // namespace

void Variable::Backward() {
  PRISTI_CHECK(defined());
  PRISTI_CHECK(!node_->inference_mode)
      << "Backward() through op '" << node_->op_name
      << "' built under NoGradGuard: the forward pass recorded no tape "
         "(inference mode), so no gradients exist; rebuild the forward "
         "graph with gradients enabled";
  PRISTI_CHECK_EQ(node_->value.numel(), 1)
      << "Backward() requires a scalar output, got shape "
      << tensor::ShapeToString(node_->value.shape());
  node_->AccumulateGrad(Tensor::Full(node_->value.shape(), 1.0f));
  std::vector<internal::Node*> order = TopologicalOrder(node_.get());
  // `order` is post-order: parents precede children; replay from the end so
  // each node's full gradient is available before its backward fires.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::Node* node = *it;
    if (node->backward && node->grad.numel() == node->value.numel()) {
      // Tape validation. A closure that already ran belongs to a previous
      // Backward() through this graph: gradients would double-count.
      PRISTI_CHECK(!node->backward_consumed)
          << "double backward through op '" << node->op_name
          << "': this graph already ran Backward(); rebuild the forward "
             "graph (the tape is single-shot) before calling it again";
      // A parent whose value changed since the forward pass (optimizer
      // step, checkpoint load) makes the recorded activations —
      // and therefore this gradient — stale.
      for (size_t i = 0; i < node->parent_versions.size(); ++i) {
        PRISTI_CHECK(node->parents[i]->value_version ==
                     node->parent_versions[i])
            << "backward through stale tape: input " << i << " of op '"
            << node->op_name << "' (shape "
            << tensor::ShapeToString(node->parents[i]->value.shape())
            << ") was modified via mutable_value() after the forward pass";
      }
      node->backward_consumed = true;
      node->backward(node->grad);
      // Every child has already sent its share (reverse topological order),
      // so this interior gradient is dead: return its block to the pool now
      // instead of when the graph is destroyed. Leaves have no closure and
      // keep theirs; the consumed flag still catches a second sweep.
      node->grad = Tensor();
    }
  }
}

Variable Variable::Detach() const {
  PRISTI_CHECK(defined());
  return Variable(node_->value, /*requires_grad=*/false);
}

Variable Variable::FromNode(std::shared_ptr<internal::Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

Variable Constant(const Tensor& value) {
  return Variable(value, /*requires_grad=*/false);
}

}  // namespace pristi::autograd
