#include "core/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "core/counters.hpp"
#include "core/thread_pool.hpp"

namespace legw::core {

void sigmoid_forward(const float* x, float* y, i64 n) {
  for (i64 i = 0; i < n; ++i) y[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

void sigmoid_backward(const float* y, const float* dy, float* dx, i64 n) {
  for (i64 i = 0; i < n; ++i) dx[i] += dy[i] * y[i] * (1.0f - y[i]);
}

void tanh_forward(const float* x, float* y, i64 n) {
  for (i64 i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

void tanh_backward(const float* y, const float* dy, float* dx, i64 n) {
  for (i64 i = 0; i < n; ++i) dx[i] += dy[i] * (1.0f - y[i] * y[i]);
}

void relu_forward(const float* x, float* y, i64 n) {
  for (i64 i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_backward(const float* x, const float* dy, float* dx, i64 n) {
  for (i64 i = 0; i < n; ++i) dx[i] += x[i] > 0.0f ? dy[i] : 0.0f;
}

void softmax_rows(const float* x, float* y, i64 rows, i64 cols) {
  for (i64 r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* yr = y + r * cols;
    float m = xr[0];
    for (i64 c = 1; c < cols; ++c) m = std::max(m, xr[c]);
    double denom = 0.0;
    for (i64 c = 0; c < cols; ++c) {
      const float e = std::exp(xr[c] - m);
      yr[c] = e;
      denom += e;
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (i64 c = 0; c < cols; ++c) yr[c] *= inv;
  }
}

void log_softmax_rows(const float* x, float* y, i64 rows, i64 cols) {
  for (i64 r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* yr = y + r * cols;
    float m = xr[0];
    for (i64 c = 1; c < cols; ++c) m = std::max(m, xr[c]);
    double denom = 0.0;
    for (i64 c = 0; c < cols; ++c) denom += std::exp(xr[c] - m);
    const float log_denom = static_cast<float>(std::log(denom)) + m;
    for (i64 c = 0; c < cols; ++c) yr[c] = xr[c] - log_denom;
  }
}

double softmax_cross_entropy_forward(const float* logits, const i32* targets,
                                     i64 rows, i64 cols, i32 ignore_index,
                                     float* probs_out, i64* counted) {
  double loss = 0.0;
  i64 n_counted = 0;
  for (i64 r = 0; r < rows; ++r) {
    const float* xr = logits + r * cols;
    float m = xr[0];
    for (i64 c = 1; c < cols; ++c) m = std::max(m, xr[c]);
    double denom = 0.0;
    for (i64 c = 0; c < cols; ++c) denom += std::exp(static_cast<double>(xr[c]) - m);
    const double log_denom = std::log(denom) + m;
    if (probs_out != nullptr) {
      float* pr = probs_out + r * cols;
      for (i64 c = 0; c < cols; ++c) {
        pr[c] = static_cast<float>(std::exp(static_cast<double>(xr[c]) - log_denom));
      }
    }
    const i32 t = targets[r];
    if (t == ignore_index) continue;
    LEGW_DCHECK(t >= 0 && t < cols, "cross-entropy target out of range");
    loss += log_denom - xr[t];
    ++n_counted;
  }
  if (counted != nullptr) *counted = n_counted;
  return loss;
}

void softmax_cross_entropy_backward(const float* probs, const i32* targets,
                                    i64 rows, i64 cols, i32 ignore_index,
                                    float scale, float* dlogits) {
  for (i64 r = 0; r < rows; ++r) {
    const i32 t = targets[r];
    if (t == ignore_index) continue;
    const float* pr = probs + r * cols;
    float* dr = dlogits + r * cols;
    for (i64 c = 0; c < cols; ++c) dr[c] += scale * pr[c];
    dr[t] -= scale;
  }
}

void add_bias_rows(float* y, const float* bias, i64 m, i64 n) {
  for (i64 r = 0; r < m; ++r)
    for (i64 c = 0; c < n; ++c) y[r * n + c] += bias[c];
}

namespace {

inline float sigmoid1(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// Rows are independent; size chunks so each does a few thousand exp calls.
inline i64 lstm_row_grain(i64 hidden) {
  return std::max<i64>(1, 1024 / std::max<i64>(1, hidden));
}

}  // namespace

void lstm_cell_forward(i64 batch, i64 hidden, const float* bias, float* z,
                       const float* c_prev, float* out, float* tanh_c) {
  bump_dispatch(DispatchCounter::kLstmCellForward);
  parallel_for(0, batch, lstm_row_grain(hidden), [&](i64 rb, i64 re) {
    for (i64 r = rb; r < re; ++r) {
      float* ig = z + r * 4 * hidden;
      float* fg = ig + hidden;
      float* gg = ig + 2 * hidden;
      float* og = ig + 3 * hidden;
      const float* cp = c_prev + r * hidden;
      float* hr = out + r * 2 * hidden;
      float* cr = hr + hidden;
      float* tc = tanh_c + r * hidden;
      for (i64 j = 0; j < hidden; ++j) {
        ig[j] = sigmoid1(ig[j] + bias[j]);
        fg[j] = sigmoid1(fg[j] + bias[hidden + j]);
        gg[j] = std::tanh(gg[j] + bias[2 * hidden + j]);
        og[j] = sigmoid1(og[j] + bias[3 * hidden + j]);
      }
      for (i64 j = 0; j < hidden; ++j) {
        const float c_new = fg[j] * cp[j] + ig[j] * gg[j];
        const float t = std::tanh(c_new);
        tc[j] = t;
        hr[j] = og[j] * t;
        cr[j] = c_new;
      }
    }
  });
}

void lstm_cell_backward(i64 batch, i64 hidden, const float* acts,
                        const float* tanh_c, const float* c_prev,
                        const float* dout, float* dz, float* dc_prev) {
  bump_dispatch(DispatchCounter::kLstmCellBackward);
  parallel_for(0, batch, lstm_row_grain(hidden), [&](i64 rb, i64 re) {
    for (i64 r = rb; r < re; ++r) {
      const float* ig = acts + r * 4 * hidden;
      const float* fg = ig + hidden;
      const float* gg = ig + 2 * hidden;
      const float* og = ig + 3 * hidden;
      const float* tc = tanh_c + r * hidden;
      const float* cp = c_prev + r * hidden;
      const float* dh = dout + r * 2 * hidden;
      const float* dc_up = dh + hidden;
      float* dzr = dz + r * 4 * hidden;
      float* dcp = dc_prev + r * hidden;
      for (i64 j = 0; j < hidden; ++j) {
        const float t = tc[j];
        // Total gradient into c_new: direct upstream plus through h'.
        const float dct = dc_up[j] + dh[j] * og[j] * (1.0f - t * t);
        const float do_ = dh[j] * t;
        const float di = dct * gg[j];
        const float df = dct * cp[j];
        const float dg = dct * ig[j];
        dzr[j] = di * ig[j] * (1.0f - ig[j]);
        dzr[hidden + j] = df * fg[j] * (1.0f - fg[j]);
        dzr[2 * hidden + j] = dg * (1.0f - gg[j] * gg[j]);
        dzr[3 * hidden + j] = do_ * og[j] * (1.0f - og[j]);
        dcp[j] = dct * fg[j];
      }
    }
  });
}

Tensor lstm_sequence_forward(const float* x, const float* h0, const float* c0,
                             const PackedB& w, const float* bias,
                             LstmTape* tape) {
  const i64 B = tape->batch, I = tape->in_dim, H = tape->hidden, K = I + H;
  const i64 rows = tape->steps * B;
  tape->xh = Tensor::uninit({rows, K});
  tape->c_prev = Tensor::uninit({rows, H});
  tape->acts = Tensor::uninit({rows, 4 * H});
  tape->tanh_c = Tensor::uninit({rows, H});
  Tensor out = Tensor::uninit({rows, 2 * H});
  for (i64 t = 0; t < tape->steps; ++t) {
    // h_{t-1} and c_{t-1}: the initial state, or step t-1's (h | c) rows.
    const i64 ld = t == 0 ? H : 2 * H;
    const float* hp = t == 0 ? h0 : out.data() + (t - 1) * B * 2 * H;
    const float* cp = t == 0 ? c0 : hp + H;
    float* xh = tape->xh.data() + t * B * K;
    float* c_prev = tape->c_prev.data() + t * B * H;
    for (i64 r = 0; r < B; ++r) {
      std::copy(x + (t * B + r) * I, x + (t * B + r + 1) * I, xh + r * K);
      std::copy(hp + r * ld, hp + r * ld + H, xh + r * K + I);
      std::copy(cp + r * ld, cp + r * ld + H, c_prev + r * H);
    }
    float* z = tape->acts.data() + t * B * 4 * H;
    gemm_packed(false, B, 1.0f, xh, K, w, 0.0f, z, 4 * H);
    lstm_cell_forward(B, H, bias, z, c_prev, out.data() + t * B * 2 * H,
                      tape->tanh_c.data() + t * B * H);
  }
  return out;
}

void lstm_sequence_backward(const LstmTape& tape, const float* w,
                            const float* dout, float* dx, float* dh0,
                            float* dc0, float* dw, float* db) {
  const i64 T = tape.steps, B = tape.batch, I = tape.in_dim, H = tape.hidden;
  const i64 K = I + H;
  Tensor g = Tensor::uninit({B, 2 * H}), dz = Tensor::uninit({B, 4 * H});
  Tensor dc = Tensor::uninit({B, H}), dxh = Tensor::uninit({B, K});
  const bool masked = !tape.dmasked.empty();
  PackedB wt;  // W^T, packed at its first use
  for (i64 t = T - 1; t >= 0; --t) {
    const float* dout_t = dout + t * B * 2 * H;
    for (i64 i = 0; i < B * 2 * H; ++i) g[i] = 0.0f + dout_t[i];
    for (i64 r = 0; r < B; ++r) {
      for (i64 j = 0; j < H; ++j) {
        if (t + 1 < T) {
          g[r * 2 * H + j] += dxh[r * K + I + j];
          g[r * 2 * H + H + j] += dc[r * H + j];
        }
        const i64 e = (t * B + r) * H + j;
        if (masked) g[r * 2 * H + j] += tape.dmasked[e] * tape.mask[e];
      }
    }
    const float* dzp = dz.data();
    lstm_cell_backward(B, H, tape.acts.data() + t * B * 4 * H,
                       tape.tanh_c.data() + t * B * H,
                       tape.c_prev.data() + t * B * H, g.data(), dz.data(),
                       dc.data());
    if (t == 0 && dc0 != nullptr)
      for (i64 i = 0; i < B * H; ++i) dc0[i] += dc[i];
    if (db != nullptr)
      for (i64 r = 0; r < B; ++r)
        for (i64 col = 0; col < 4 * H; ++col) db[col] += dzp[r * 4 * H + col];
    if (dw != nullptr)
      gemm(true, false, K, 4 * H, B, 1.0f, tape.xh.data() + t * B * K, K, dzp,
           4 * H, 1.0f, dw, 4 * H);
    if (t == 0 && dx == nullptr && dh0 == nullptr) break;
    if (wt.panels.empty()) wt = pack_b(true, K, 4 * H, w, 4 * H);
    gemm_packed(false, B, 1.0f, dzp, 4 * H, wt, 0.0f, dxh.data(), K);
    for (i64 r = 0; r < B && dx != nullptr; ++r)
      for (i64 j = 0; j < I; ++j) dx[(t * B + r) * I + j] += dxh[r * K + j];
    for (i64 r = 0; r < B && t == 0 && dh0 != nullptr; ++r)
      for (i64 j = 0; j < H; ++j) dh0[r * H + j] += dxh[r * K + I + j];
  }
}

}  // namespace legw::core
