// Fused LSTM layer with hand-derived backward: one graph node per layer per
// window, running core::lstm_sequence_forward / _backward with the weight
// packed once. Per step the arithmetic is that of a chain of one-step nodes,
// so the two agree bit for bit; tests also check it against finite
// differences and an op-by-op composition of the same math.
#include <memory>

#include "ag/ops.hpp"
#include "core/kernels.hpp"

namespace legw::ag {

using legw::i64;

Variable lstm_layer(const Variable& x, const Variable& h, const Variable& c,
                    const Variable& w, const Variable& b, Tensor out_mask,
                    Variable* masked) {
  const i64 batch = h.size(0), hidden = h.size(1), rows = x.size(0);
  LEGW_CHECK(x.value().dim() == 2 && h.value().dim() == 2 &&
                 c.value().shape() == h.value().shape() && batch > 0 &&
                 rows > 0 && rows % batch == 0,
             "lstm_layer: x must be [T*B, I], h and c [B, H]");
  const i64 in_dim = x.size(1);
  LEGW_CHECK(w.value().shape() == Shape({in_dim + hidden, 4 * hidden}) &&
                 b.value().shape() == Shape({4 * hidden}),
             "lstm_layer: w must be [in+hidden, 4*hidden], b [4*hidden]");

  auto tape =
      std::make_shared<core::LstmTape>(rows / batch, batch, in_dim, hidden);
  Tensor out = core::lstm_sequence_forward(
      x.value().data(), h.value().data(), c.value().data(),
      core::pack_b(false, 4 * hidden, in_dim + hidden, w.value().data(),
                   4 * hidden),
      b.value().data(), tape.get());
  Tensor masked_h;
  if (!out_mask.empty()) {
    LEGW_CHECK(out_mask.numel() == rows * hidden, "lstm_layer: mask must be [T*B, H]");
    masked_h = Tensor::uninit({rows, hidden});
    for (i64 i = 0; i < masked_h.numel(); ++i)
      masked_h[i] = out[i / hidden * 2 * hidden + i % hidden] * out_mask[i];
    tape->mask = std::move(out_mask);
  }

  Variable hc = make_op_node(
      "lstm_layer", std::move(out), {x, h, c, w, b}, [tape](Node& n) {
        const auto grad = [&n](std::size_t i) {
          Node& p = *n.parents[i];
          return p.requires_grad ? p.ensure_grad().data() : nullptr;
        };
        core::lstm_sequence_backward(*tape, n.parents[3]->value.data(),
                                     n.grad.data(), grad(0), grad(1), grad(2),
                                     grad(3), grad(4));
      });
  if (masked != nullptr && !masked_h.empty()) {
    // The layer node's backward applies the mask, after step t+1's term.
    *masked = make_op_node("dropout", std::move(masked_h), {hc}, [tape](Node& n) {
      n.parents[0]->ensure_grad();
      tape->dmasked = n.grad;
    });
  }
  return hc;
}

}  // namespace legw::ag
