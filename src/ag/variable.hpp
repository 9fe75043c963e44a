// Reverse-mode automatic differentiation over core::Tensor.
//
// The design is a classic dynamic tape: every op allocates a Node holding the
// forward value, a lazily-allocated gradient buffer, shared_ptr edges to its
// parents and a closure that scatters the node's gradient into its parents'
// gradients. backward() topologically sorts the graph reachable from the loss
// and runs the closures in reverse order.
//
// Leaf nodes (parameters) persist across steps and *accumulate* gradient, so
// gradient accumulation over micro-batches falls out naturally; interior
// nodes are recreated every forward pass so their gradients are always fresh.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/tensor.hpp"

namespace legw::ag {

using core::Shape;
using core::Tensor;

struct Node {
  Tensor value;
  Tensor grad;  // empty until ensure_grad(); same shape as value afterwards
  bool requires_grad = false;
  // Static-string op name ("matmul", "lstm_cell", ...; "leaf" for leaves).
  // Diagnostics only: non-finite tripwires and the graph validator use it to
  // blame the producing op.
  const char* op = "leaf";
  std::vector<std::shared_ptr<Node>> parents;
  // Each parent's value.version() at graph-capture time. backward (in
  // checked mode) and check::lint_graph compare against the current versions
  // to detect in-place mutation of a tensor after the graph captured it.
  std::vector<u32> parent_versions;
  // Propagates this node's grad into parents' grads (accumulating).
  std::function<void(Node&)> backward_fn;

  Tensor& ensure_grad() {
    if (grad.empty() && value.numel() > 0) grad = Tensor::zeros(value.shape());
    return grad;
  }
};

// Value-semantic handle onto a Node. Cheap to copy.
class Variable {
 public:
  Variable() = default;
  explicit Variable(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  // Leaf with its own storage. Parameters are leaves with requires_grad.
  static Variable leaf(Tensor value, bool requires_grad) {
    auto n = std::make_shared<Node>();
    n->value = std::move(value);
    n->requires_grad = requires_grad;
    return Variable(std::move(n));
  }
  // Constant input (no gradient ever flows into it).
  static Variable constant(Tensor value) { return leaf(std::move(value), false); }

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  // Grants write access to the stored value and bumps its mutation version:
  // writing a value that a live graph captured is exactly the defect the
  // graph validator exists to catch.
  Tensor& mutable_value() {
    node_->value.bump_version();
    return node_->value;
  }
  // The accumulated gradient; zeros if backward never reached this node.
  const Tensor& grad() const {
    LEGW_CHECK(node_ != nullptr, "grad() on undefined Variable");
    return node_->ensure_grad();
  }
  Tensor& mutable_grad() { return node_->ensure_grad(); }
  bool requires_grad() const { return node_->requires_grad; }
  void zero_grad() {
    if (node_ && !node_->grad.empty()) node_->grad.zero_();
  }

  const Shape& shape() const { return node_->value.shape(); }
  i64 size(i64 d) const { return node_->value.size(d); }
  i64 numel() const { return node_->value.numel(); }

  std::shared_ptr<Node> node() const { return node_; }

 private:
  std::shared_ptr<Node> node_;
};

// Creates an interior node whose requires_grad is the OR of its parents'.
// `op` must be a static string (the Node stores the pointer); it names the
// producing op in tripwire and graph-validator diagnostics. When the
// non-finite tripwires are armed (check::tripwires_enabled()) the freshly
// computed value is scanned and a NaN/Inf aborts with the op's name.
Variable make_op_node(const char* op, Tensor value,
                      std::vector<Variable> parents,
                      std::function<void(Node&)> backward_fn);

// Optional callbacks observing one backward pass.
struct BackwardHooks {
  // Fired on the thread running backward(), immediately after the named
  // leaf's gradient received its final contribution of this pass — i.e.
  // after the last consumer node (in reverse-topological execution order)
  // ran its backward closure, or immediately after seeding when the root is
  // itself a leaf. Each reachable requires_grad leaf fires exactly once;
  // interior nodes never fire; leaves unreachable from the root never fire,
  // so callers that must signal every parameter sweep the remainder after
  // backward() returns. The overlapped allreduce engine (dist/overlap.hpp)
  // uses this to launch bucket reductions while the tail of backward is
  // still executing.
  std::function<void(Node& leaf)> on_leaf_grad_ready;
};

// Runs reverse-mode accumulation from `root` (typically the scalar loss).
// Seeds d(root)/d(root) = 1 for scalars, or `seed` if provided (must match
// root's shape). Gradients accumulate into every reachable requires_grad
// node. Safe to call multiple times on independent graphs; calling it twice
// on the same graph doubles interior gradients, so don't.
void backward(const Variable& root, const Tensor* seed = nullptr);
// As above, with per-leaf grad-ready notifications. The hookless overload
// forwards here with empty hooks at zero extra cost.
void backward(const Variable& root, const Tensor* seed,
              const BackwardHooks& hooks);

}  // namespace legw::ag
