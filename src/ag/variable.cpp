#include "ag/variable.hpp"

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "check/check.hpp"

namespace legw::ag {

Variable make_op_node(const char* op, Tensor value,
                      std::vector<Variable> parents,
                      std::function<void(Node&)> backward_fn) {
  auto n = std::make_shared<Node>();
  n->value = std::move(value);
  n->op = op;
  bool needs = false;
  n->parents.reserve(parents.size());
  n->parent_versions.reserve(parents.size());
  for (const auto& p : parents) {
    LEGW_CHECK(p.defined(), "op parent is an undefined Variable");
    needs = needs || p.node()->requires_grad;
    n->parent_versions.push_back(p.node()->value.version());
    n->parents.push_back(p.node());
  }
  n->requires_grad = needs;
  if (needs) n->backward_fn = std::move(backward_fn);
  if (check::tripwires_enabled()) {
    check::assert_finite(n->value, std::string(op) + ".out",
                         std::string("forward of ") + op);
  }
  return Variable(std::move(n));
}

namespace {

// Iterative post-order DFS. Recursion would overflow the stack on BPTT
// graphs with thousands of sequential nodes.
void topo_sort(const std::shared_ptr<Node>& root,
               std::vector<Node*>& order) {
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  if (root->requires_grad) stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      Node* p = f.node->parents[f.next_parent++].get();
      if (p->requires_grad && visited.insert(p).second) {
        stack.push_back({p, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
}

// Tripwire sweep after one node's backward closure ran: every parent that
// received gradient must still be finite, and the captured parent values
// must not have been mutated since the graph was built (a stale graph
// silently produces wrong gradients — abort with blame instead).
void check_backward_step(const Node& n) {
  for (std::size_t i = 0; i < n.parents.size(); ++i) {
    const Node& p = *n.parents[i];
    if (i < n.parent_versions.size() &&
        p.value.version() != n.parent_versions[i]) {
      LEGW_CHECK(false, std::string("stale graph: input ") +
                            std::to_string(i) + " of op '" + n.op +
                            "' (produced by '" + p.op +
                            "') was mutated in place after graph capture");
    }
    if (p.requires_grad && !p.grad.empty()) {
      check::assert_finite(p.grad, std::string(p.op) + ".grad",
                           std::string("backward of ") + n.op);
    }
  }
}

}  // namespace

namespace {

inline bool is_leaf(const Node& n) {
  return n.parents.empty() && !n.backward_fn;
}

}  // namespace

void backward(const Variable& root, const Tensor* seed) {
  backward(root, seed, BackwardHooks{});
}

void backward(const Variable& root, const Tensor* seed,
              const BackwardHooks& hooks) {
  LEGW_CHECK(root.defined(), "backward on undefined Variable");
  if (!root.node()->requires_grad) return;

  Tensor& g = root.node()->ensure_grad();
  if (seed != nullptr) {
    LEGW_CHECK(seed->same_shape(root.value()), "backward seed shape mismatch");
    g.add_(*seed);
  } else {
    LEGW_CHECK(root.numel() == 1,
               "backward without seed requires a scalar root");
    g[0] += 1.0f;
  }

  // Snapshot once: the flag is stable for the duration of one backward pass
  // and the scan is O(edges * numel) when armed.
  const bool tripwires = check::tripwires_enabled();

  std::vector<Node*> order;
  topo_sort(root.node(), order);
  const std::size_t n_nodes = order.size();

  // A leaf's gradient is final once its last consumer (in execution order)
  // has run its closure. Precompute, per execution index, the leaves whose
  // last consumer sits there; iterate parents in declaration order on the
  // second pass so the firing order is deterministic.
  const bool leaf_hook = static_cast<bool>(hooks.on_leaf_grad_ready);
  std::vector<std::vector<Node*>> fire_after;
  if (leaf_hook) {
    fire_after.resize(n_nodes);
    std::unordered_map<Node*, std::size_t> last_consumer;
    for (std::size_t i = 0; i < n_nodes; ++i) {
      Node* n = order[n_nodes - 1 - i];  // execution order: reversed post-order
      if (!n->backward_fn) continue;
      for (const auto& p : n->parents) {
        if (p->requires_grad && is_leaf(*p)) last_consumer[p.get()] = i;
      }
    }
    for (std::size_t i = 0; i < n_nodes; ++i) {
      Node* n = order[n_nodes - 1 - i];
      if (!n->backward_fn) continue;
      for (const auto& p : n->parents) {
        auto it = last_consumer.find(p.get());
        if (it != last_consumer.end() && it->second == i) {
          fire_after[i].push_back(p.get());
          last_consumer.erase(it);  // fire once even when p repeats as parent
        }
      }
    }
  }

  // Post-order puts parents before children; reverse to propagate root-first.
  for (std::size_t i = 0; i < n_nodes; ++i) {
    Node* n = order[n_nodes - 1 - i];
    if (n->backward_fn) {
      n->backward_fn(*n);
      if (tripwires) check_backward_step(*n);
    }
    if (leaf_hook && !fire_after[i].empty()) {
      for (Node* leaf : fire_after[i]) {
        leaf->ensure_grad();
        hooks.on_leaf_grad_ready(*leaf);
      }
    }
  }
  // A root that is itself a leaf has no consumers: its gradient is complete
  // as soon as the seed landed.
  if (leaf_hook && is_leaf(*root.node())) {
    hooks.on_leaf_grad_ready(*root.node());
  }
}

}  // namespace legw::ag
