// Elementwise and row-wise numeric kernels shared by the autograd ops and the
// fused layer implementations. All kernels operate on raw contiguous float
// buffers; shape logic lives in the callers.
#pragma once

#include "core/tensor.hpp"

namespace legw::core {

// y[i] = 1 / (1 + exp(-x[i]))
void sigmoid_forward(const float* x, float* y, i64 n);
// dx[i] += dy[i] * y[i] * (1 - y[i]) where y is the forward output
void sigmoid_backward(const float* y, const float* dy, float* dx, i64 n);

void tanh_forward(const float* x, float* y, i64 n);
// dx[i] += dy[i] * (1 - y[i]^2)
void tanh_backward(const float* y, const float* dy, float* dx, i64 n);

void relu_forward(const float* x, float* y, i64 n);
// dx[i] += dy[i] * (x[i] > 0)
void relu_backward(const float* x, const float* dy, float* dx, i64 n);

// Row-wise, numerically-stable softmax over a [rows, cols] matrix.
void softmax_rows(const float* x, float* y, i64 rows, i64 cols);
// Row-wise log-softmax.
void log_softmax_rows(const float* x, float* y, i64 rows, i64 cols);

// Mean negative log-likelihood of integer targets under row-wise softmax.
// Rows whose target equals `ignore_index` contribute nothing (used for
// padding in seq2seq batches). Returns the summed loss and writes the number
// of counted rows to *counted (callers divide to get the mean).
// If probs_out is non-null it receives the full softmax probabilities
// (needed by the backward pass).
double softmax_cross_entropy_forward(const float* logits, const i32* targets,
                                     i64 rows, i64 cols, i32 ignore_index,
                                     float* probs_out, i64* counted);
// dlogits[r,c] += scale * (probs[r,c] - 1{c == target_r}) for counted rows.
void softmax_cross_entropy_backward(const float* probs, const i32* targets,
                                    i64 rows, i64 cols, i32 ignore_index,
                                    float scale, float* dlogits);

// y[r, :] += bias for each row of y [m, n]: ag::add_bias and serving share it.
void add_bias_rows(float* y, const float* bias, i64 m, i64 n);

// ---- fused LSTM cell -------------------------------------------------------
// The four-gate elementwise block of one LSTM step (bias add, sigmoid/tanh
// activations, cell update) fused into a single pass per row, parallelised
// over the batch. Gate order within a row is (i, f, g, o).
//
// Forward. z: [batch, 4*hidden] holds the pre-activation gate block
// (the [x|h]·W product, bias NOT yet added) on entry and the post-activation
// gates on exit. bias: [4*hidden]. c_prev: [batch, hidden].
// out: [batch, 2*hidden] receives h' in columns [0,hidden) and c' in
// [hidden, 2*hidden). tanh_c: [batch, hidden] receives tanh(c'), saved for
// the backward pass.
void lstm_cell_forward(i64 batch, i64 hidden, const float* bias, float* z,
                       const float* c_prev, float* out, float* tanh_c);

// Backward, single pass. acts / tanh_c / c_prev as saved by forward;
// dout: [batch, 2*hidden] = (dh | dc') upstream gradient. Overwrites
// dz: [batch, 4*hidden] with the gradient w.r.t. the pre-activation gates
// and dc_prev: [batch, hidden] with the gradient w.r.t. the previous cell
// state.
void lstm_cell_backward(i64 batch, i64 hidden, const float* acts,
                        const float* tanh_c, const float* c_prev,
                        const float* dout, float* dz, float* dc_prev);

// ---- LSTM layer over a window ----------------------------------------------
// One layer over T steps as a loop of the fused cell, W packed once. Rows are
// step-major (row t*batch + r). The tape holds the dims, what the backward
// reads per step, and optionally a dropout mask on h with the gradient
// reaching h ⊙ mask (both [T*B, H], set by the caller).
struct LstmTape {
  LstmTape(i64 t, i64 b, i64 i, i64 h) : steps(t), batch(b), in_dim(i), hidden(h) {}
  i64 steps, batch, in_dim, hidden;
  Tensor xh, c_prev, acts, tanh_c, mask, dmasked;
};

// Per step: xh_t = [x_t | h_{t-1}], xh_t·W against the packed [I+H, 4H]
// weight, lstm_cell_forward. Returns [T*B, 2H], (h_t | c_t) per row.
Tensor lstm_sequence_forward(const float* x, const float* h0, const float* c0,
                             const PackedB& w, const float* bias,
                             LstmTape* tape);

// For t = T-1 ... 0: lstm_cell_backward, bias row sums, dW += xh_t^T·dz_t
// and dxh = dz_t·W^T, W^T packed at first use. The gradient reaching
// (h_t | c_t) sums, into zeros, dout's rows, step t+1's term and dmasked ⊙
// mask, in the order a per-step graph adds them. Accumulates into dx, dh0,
// dc0, dw, db; a null pointer skips that gradient.
void lstm_sequence_backward(const LstmTape& tape, const float* w,
                            const float* dout, float* dx, float* dh0,
                            float* dc0, float* dw, float* db);

}  // namespace legw::core
