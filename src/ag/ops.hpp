// Differentiable op library.
//
// Every function builds one graph node; compound layers (LSTM, attention,
// residual blocks) are compositions of these. A handful of performance- or
// correctness-critical ops are "fused" with hand-derived backward passes
// (lstm_layer, conv2d, batch_norm); their gradients are cross-checked against
// finite differences and, for the LSTM layer, against an op-composition of
// the same math (tests/test_ag_rnn.cpp).
#pragma once

#include <vector>

#include "ag/variable.hpp"
#include "core/rng.hpp"

namespace legw::ag {

// ---- arithmetic ------------------------------------------------------------
Variable add(const Variable& a, const Variable& b);        // same shape
Variable sub(const Variable& a, const Variable& b);        // same shape
Variable mul(const Variable& a, const Variable& b);        // elementwise
Variable scale(const Variable& a, float s);
Variable add_scalar(const Variable& a, float s);
// x: [m, n], bias: [n]; broadcast over rows.
Variable add_bias(const Variable& x, const Variable& bias);
// x: [m, n], col: [m, 1]; broadcast multiply over columns.
Variable mul_colvec(const Variable& x, const Variable& col);

// ---- linear algebra --------------------------------------------------------
Variable matmul(const Variable& a, const Variable& b, bool trans_a = false,
                bool trans_b = false);

// ---- nonlinearities --------------------------------------------------------
Variable sigmoid(const Variable& a);
Variable tanh(const Variable& a);
Variable relu(const Variable& a);
Variable softmax_rows(const Variable& a);  // a: [rows, cols]
Variable exp(const Variable& a);
// Natural log; inputs must be strictly positive.
Variable log(const Variable& a);
// Elementwise square root; inputs must be non-negative (derivative guarded
// by eps at zero).
Variable sqrt(const Variable& a, float eps = 1e-12f);
Variable abs(const Variable& a);
// Clamp to [lo, hi]; gradient is passed through inside the interval and
// zero outside (the usual straight-cut subgradient).
Variable clamp(const Variable& a, float lo, float hi);

// ---- shape -----------------------------------------------------------------
Variable reshape(const Variable& a, Shape shape);
// Concatenate 2-D tensors along columns; all must share the row count.
Variable concat_cols(const std::vector<Variable>& parts);
// Rows [r0, r1) and columns [c0, c1) of a 2-D tensor.
Variable slice(const Variable& a, i64 r0, i64 r1, i64 c0, i64 c1);
// Columns [begin, end) of a 2-D tensor.
Variable slice_cols(const Variable& a, i64 begin, i64 end);
// Concatenate 2-D tensors along rows; all must share the column count.
Variable concat_rows(const std::vector<Variable>& parts);

// ---- reductions ------------------------------------------------------------
Variable sum_all(const Variable& a);   // -> [1]
Variable mean_all(const Variable& a);  // -> [1]
// Sum of columns of a 2-D tensor -> [cols]. (Bias gradient pattern.)
Variable sum_rows(const Variable& a);

// ---- embedding -------------------------------------------------------------
// weight: [vocab, dim]; returns [indices.size(), dim]. Backward scatter-adds.
Variable embedding(const Variable& weight, const std::vector<i32>& indices);

// ---- regularisation --------------------------------------------------------
// Inverted dropout: at train time scales kept activations by 1/(1-p);
// identity at eval time. Mask is drawn from `rng` by dropout_mask.
Variable dropout(const Variable& a, float p, core::Rng& rng, bool training);
// n mask values drawn in order from `rng`: 1/(1-p) kept, 0 dropped.
void dropout_mask(float p, core::Rng& rng, float* mask, i64 n);

// ---- loss ------------------------------------------------------------------
// Mean softmax cross-entropy over rows of `logits` against integer targets.
// Rows with target == ignore_index are excluded from both mean and gradient.
// Returns a scalar [1] Variable; `counted_out` (optional) receives the number
// of contributing rows.
Variable softmax_cross_entropy(const Variable& logits,
                               const std::vector<i32>& targets,
                               i32 ignore_index = -1,
                               i64* counted_out = nullptr);

// v / ||v||_2 for a 1-D vector (used by normalized Bahdanau attention).
Variable normalize_vec(const Variable& v, float eps = 1e-8f);

// ---- fused recurrent layer -------------------------------------------------
// One LSTM layer over T steps as one node. x: [T*B, I], row t*B + r is step
// t; h, c: [B, H], the initial state; w: [I+H, 4H], gate order (i, f, g, o);
// b: [4H] (forget-gate bias is the caller's). Returns [T*B, 2H], row block t
// holding (h_t | c_t). Given a dropout mask on h ([T*B, H]), `*masked`
// receives h ⊙ mask as a second node, whose gradient the layer node adds in
// the order a per-step graph's dropout would.
Variable lstm_layer(const Variable& x, const Variable& h, const Variable& c,
                    const Variable& w, const Variable& b, Tensor out_mask = {},
                    Variable* masked = nullptr);

// ---- convolution / CNN ops -------------------------------------------------
// x: [B, C, H, W], w: [Cout, C, kh, kw], bias: [Cout] (pass undefined
// Variable for no bias). Zero padding `pad`, square stride.
Variable conv2d(const Variable& x, const Variable& w, const Variable& bias,
                i64 stride, i64 pad);
// Spatial batch norm over [B, C, H, W]; gamma/beta: [C]. In training mode
// uses batch statistics and updates running_mean/var (momentum 0.1, host
// tensors owned by the layer); in eval mode uses the running stats.
Variable batch_norm2d(const Variable& x, const Variable& gamma,
                      const Variable& beta, Tensor& running_mean,
                      Tensor& running_var, bool training, float eps = 1e-5f,
                      float momentum = 0.1f);
// Global average pool: [B, C, H, W] -> [B, C].
Variable global_avg_pool(const Variable& x);
// 2x2 average pool with stride 2 (H, W must be even).
Variable avg_pool2x2(const Variable& x);

}  // namespace legw::ag
