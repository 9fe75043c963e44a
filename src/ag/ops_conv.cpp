// Convolution, batch-norm and pooling ops for the residual CNN (ImageNet /
// ResNet-50 stand-in). conv2d uses im2col + GEMM; the column matrix is
// recomputed in the backward pass instead of saved, trading FLOPs for memory
// so deep unrolled graphs stay small. im2col and col2im find, once per kernel
// tap, the output rows and columns [lo, hi) whose input lies inside the
// image: those are copied or added without a per-element bounds check, the
// rest is a zero fill or a skip.
//
// Every op runs on the thread pool, partitioned so that results are bitwise
// independent of the thread count (docs/KERNELS.md, "Determinism contract"):
//   - conv2d forward and backward split the batch. A sample's im2col, GEMMs
//     and col2im run on one worker and write only that sample's slice of the
//     output or of x.grad. The weight gradient is the one cross-sample
//     reduction: each sample's g[b]*col[b]^T lands in its own partial buffer
//     (GEMM with beta = 0), and the partials of a window of samples are then
//     added into w.grad split over weight elements, each element summing its
//     samples in ascending order.
//     When Ho*Wo fits one GEMM depth panel (256) this is the exact sum the
//     serial beta = 1 loop formed; beyond that only the rounding differs.
//   - the conv bias gradient and the batch-norm statistics split channels:
//     each channel's reduction stays on one thread, in sample order.
//   - batch-norm normalisation and its input gradient split samples; the
//     pools split (sample, channel) planes.
// Outputs that the op writes in full (conv2d's output, batch-norm's
// statistics, xhat and output, the pools' outputs) are allocated
// uninitialised; only accumulators start at zero.
#include <algorithm>
#include <cmath>
#include <vector>

#include "ag/ops.hpp"
#include "core/thread_pool.hpp"

namespace legw::ag {

using core::grain_for;
using legw::i64;

namespace {

// Samples whose dW partials are held at once, capped so the partials stay
// within kDwPartialFloats for wide filters. The window only bounds memory:
// every dW element still sums all samples in ascending order.
constexpr i64 kDwWindow = 64;
constexpr i64 kDwPartialFloats = i64{1} << 22;

// Per-thread scratch, grown on demand and never shrunk. im2col and the
// beta = 0 GEMMs overwrite every element that is later read, so the stale
// contents of a reused buffer never reach a result. Named inside a
// parallel_for body, each resolves to the executing worker's own copy.
thread_local std::vector<float> t_col;
thread_local std::vector<float> t_dcol;
thread_local std::vector<float> t_dw_partials;

float* scratch(std::vector<float>& buf, i64 n) {
  if (buf.size() < static_cast<std::size_t>(n))
    buf.resize(static_cast<std::size_t>(n));
  return buf.data();
}

// The outputs o in [lo, hi) of a kernel tap read input o * stride + off
// (off = tap - pad) inside [0, n); the other outputs in [0, out) read padding.
struct Valid {
  i64 lo, hi;
};

Valid valid_range(i64 off, i64 stride, i64 n, i64 out) {
  const i64 lo = off >= 0 ? 0 : (stride - 1 - off) / stride;
  const i64 hi = off >= n ? 0 : std::min(out, (n - 1 - off) / stride + 1);
  return {std::min(lo, hi), hi};
}

// One kernel tap (c, ki, kj) of the lowering: its column-matrix row and the
// outputs that read the image. `first` indexes x at the input element of
// output (rows.lo, cols.lo); it is used only when rows is non-empty.
struct Tap {
  i64 row;  // offset of the tap's Ho*Wo block in col
  Valid rows, cols;
  i64 first;
};

// Calls fn(tap) for every kernel tap in (c, ki, kj) order, the loop nest of
// the bounds-checked element loop.
template <typename Fn>
void for_each_tap(i64 C, i64 H, i64 W, i64 kh, i64 kw, i64 stride, i64 pad,
                  i64 Ho, i64 Wo, Fn&& fn) {
  for (i64 c = 0; c < C; ++c) {
    for (i64 ki = 0; ki < kh; ++ki) {
      const Valid ki_rows = valid_range(ki - pad, stride, H, Ho);
      for (i64 kj = 0; kj < kw; ++kj) {
        const Valid cols = valid_range(kj - pad, stride, W, Wo);
        // A tap whose columns all read padding reads no row either.
        const Valid rows = cols.lo < cols.hi ? ki_rows : Valid{0, 0};
        fn(Tap{((c * kh + ki) * kw + kj) * Ho * Wo, rows, cols,
               (c * H + rows.lo * stride + ki - pad) * W + cols.lo * stride +
                   kj - pad});
      }
    }
  }
}

// With stride 1 and Wo == W (a "same" convolution) a column row has the
// image row's pitch, so a tap's outputs from (rows.lo, cols.lo) through
// (rows.hi - 1, cols.hi - 1) read one contiguous span of x, and the lowering
// moves the span at once instead of row by row. The outputs in the span
// between two valid rows read padding (cols.hi <= oj < Wo + cols.lo).
bool same_pitch(i64 stride, i64 W, i64 Wo) { return stride == 1 && Wo == W; }

// The span's [first, last + 1) indices in the tap's block.
Valid flat_span(const Tap& t, i64 Wo) {
  return {t.rows.lo * Wo + t.cols.lo, (t.rows.hi - 1) * Wo + t.cols.hi};
}

// Scatter x[b] into columns: col is [C*kh*kw, Ho*Wo].
void im2col(const float* x, i64 C, i64 H, i64 W, i64 kh, i64 kw, i64 stride,
            i64 pad, i64 Ho, i64 Wo, float* col) {
  const bool flat = same_pitch(stride, W, Wo);
  for_each_tap(C, H, W, kh, kw, stride, pad, Ho, Wo, [&](const Tap& t) {
    float* dst = col + t.row;
    std::fill(dst, dst + Ho * Wo, 0.0f);
    if (t.rows.lo == t.rows.hi) return;
    const float* src = x + t.first;
    if (flat) {
      const Valid span = flat_span(t, Wo);
      std::copy(src, src + (span.hi - span.lo), dst + span.lo);
      for (i64 oj = t.cols.hi; oj < Wo + t.cols.lo; ++oj)
        for (i64 oi = t.rows.lo; oi + 1 < t.rows.hi; ++oi)
          dst[oi * Wo + oj] = 0.0f;
      return;
    }
    for (i64 oi = t.rows.lo; oi < t.rows.hi; ++oi)
      for (i64 oj = t.cols.lo; oj < t.cols.hi; ++oj)
        dst[oi * Wo + oj] =
            src[((oi - t.rows.lo) * W + oj - t.cols.lo) * stride];
  });
}

// Accumulate columns back into the image: the inverse scatter of im2col. Each
// x element takes at most one term per tap, in for_each_tap's order, so its
// sum is the one the bounds-checked element loop formed. col is scratch: on
// the flat route the entries that read padding are set to -0.0f and added
// too, which leaves every x element's bits as they were (v + -0.0f == v,
// also for v = +0.0f). One add per tap instead of one per short row
// measured faster at the ResNet stage shapes (docs/KERNELS.md).
void col2im(float* col, i64 C, i64 H, i64 W, i64 kh, i64 kw, i64 stride,
            i64 pad, i64 Ho, i64 Wo, float* x) {
  const bool flat = same_pitch(stride, W, Wo);
  for_each_tap(C, H, W, kh, kw, stride, pad, Ho, Wo, [&](const Tap& t) {
    if (t.rows.lo == t.rows.hi) return;
    float* src = col + t.row;
    float* dst = x + t.first;
    if (flat) {
      for (i64 oj = t.cols.hi; oj < Wo + t.cols.lo; ++oj)
        for (i64 oi = t.rows.lo; oi + 1 < t.rows.hi; ++oi)
          src[oi * Wo + oj] = -0.0f;
      const Valid span = flat_span(t, Wo);
      for (i64 i = 0; i < span.hi - span.lo; ++i) dst[i] += src[span.lo + i];
      return;
    }
    for (i64 oi = t.rows.lo; oi < t.rows.hi; ++oi)
      for (i64 oj = t.cols.lo; oj < t.cols.hi; ++oj)
        dst[((oi - t.rows.lo) * W + oj - t.cols.lo) * stride] +=
            src[oi * Wo + oj];
  });
}

}  // namespace

Variable conv2d(const Variable& x, const Variable& w, const Variable& bias,
                i64 stride, i64 pad) {
  LEGW_CHECK(x.value().dim() == 4, "conv2d: x must be [B,C,H,W]");
  LEGW_CHECK(w.value().dim() == 4, "conv2d: w must be [Cout,C,kh,kw]");
  const i64 B = x.size(0), C = x.size(1), H = x.size(2), W = x.size(3);
  const i64 Cout = w.size(0), kh = w.size(2), kw = w.size(3);
  LEGW_CHECK(w.size(1) == C, "conv2d: channel mismatch");
  LEGW_CHECK(stride >= 1 && pad >= 0, "conv2d: bad stride/pad");
  const i64 Ho = (H + 2 * pad - kh) / stride + 1;
  const i64 Wo = (W + 2 * pad - kw) / stride + 1;
  LEGW_CHECK(Ho >= 1 && Wo >= 1, "conv2d: output would be empty");
  const bool has_bias = bias.defined();
  if (has_bias) {
    LEGW_CHECK(bias.value().dim() == 1 && bias.size(0) == Cout,
               "conv2d: bias must be [Cout]");
  }

  Tensor out = Tensor::uninit({B, Cout, Ho, Wo});
  const i64 col_rows = C * kh * kw;
  const i64 col_cols = Ho * Wo;
  const float* xp = x.value().data();
  const float* wp = w.value().data();
  float* op = out.data();

  core::parallel_for(0, B, 1, [&](i64 b0, i64 b1) {
    float* col = scratch(t_col, col_rows * col_cols);
    for (i64 b = b0; b < b1; ++b) {
      im2col(xp + b * C * H * W, C, H, W, kh, kw, stride, pad, Ho, Wo, col);
      // out[b] = Wmat [Cout, col_rows] * col [col_rows, col_cols]
      core::gemm(false, false, Cout, col_cols, col_rows, 1.0f, wp, col_rows,
                 col, col_cols, 0.0f, op + b * Cout * col_cols, col_cols);
      if (has_bias) {
        const float* bp = bias.value().data();
        float* ob = op + b * Cout * col_cols;
        for (i64 co = 0; co < Cout; ++co)
          for (i64 s = 0; s < col_cols; ++s) ob[co * col_cols + s] += bp[co];
      }
    }
  });

  std::vector<Variable> parents = {x, w};
  if (has_bias) parents.push_back(bias);
  return make_op_node("conv2d", 
      std::move(out), std::move(parents),
      [B, C, H, W, Cout, kh, kw, stride, pad, Ho, Wo, has_bias](Node& n) {
        auto& px = *n.parents[0];
        auto& pw = *n.parents[1];
        const i64 col_rows = C * kh * kw;
        const i64 col_cols = Ho * Wo;
        const float* g = n.grad.data();

        if (has_bias && n.parents[2]->requires_grad) {
          float* gb = n.parents[2]->ensure_grad().data();
          core::parallel_for(0, Cout, grain_for(B * col_cols),
                             [&](i64 c0, i64 c1) {
            for (i64 co = c0; co < c1; ++co)
              for (i64 b = 0; b < B; ++b) {
                double acc = 0.0;
                const float* gr = g + (b * Cout + co) * col_cols;
                for (i64 s = 0; s < col_cols; ++s) acc += gr[s];
                gb[co] += static_cast<float>(acc);
              }
          });
        }

        // Gradient buffers are created here, on the thread running backward,
        // before any worker writes into them.
        float* gw = pw.requires_grad ? pw.ensure_grad().data() : nullptr;
        float* gx = px.requires_grad ? px.ensure_grad().data() : nullptr;
        if (gw == nullptr && gx == nullptr) return;
        const float* xp = px.value.data();
        const float* wp = pw.value.data();
        const i64 w_numel = Cout * col_rows;
        const i64 window = std::clamp<i64>(
            kDwPartialFloats / std::max<i64>(1, w_numel), 1, kDwWindow);
        float* partials =
            gw != nullptr
                ? scratch(t_dw_partials, std::min(B, window) * w_numel)
                : nullptr;
        for (i64 w0 = 0; w0 < B; w0 += window) {
          const i64 w1 = std::min(B, w0 + window);
          core::parallel_for(w0, w1, 1, [&](i64 b0, i64 b1) {
            float* col =
                gw != nullptr ? scratch(t_col, col_rows * col_cols) : nullptr;
            float* dcol =
                gx != nullptr ? scratch(t_dcol, col_rows * col_cols) : nullptr;
            for (i64 b = b0; b < b1; ++b) {
              const float* gs = g + b * Cout * col_cols;
              if (gw != nullptr) {
                im2col(xp + b * C * H * W, C, H, W, kh, kw, stride, pad, Ho,
                       Wo, col);
                // partial[b] = g[b] [Cout, col_cols] * col^T [col_cols, col_rows]
                core::gemm(false, true, Cout, col_rows, col_cols, 1.0f, gs,
                           col_cols, col, col_cols, 0.0f,
                           partials + (b - w0) * w_numel, col_rows);
              }
              if (gx != nullptr) {
                // dcol = Wmat^T [col_rows, Cout] * g[b] [Cout, col_cols]
                core::gemm(true, false, col_rows, col_cols, Cout, 1.0f, wp,
                           col_rows, gs, col_cols, 0.0f, dcol, col_cols);
                col2im(dcol, C, H, W, kh, kw, stride, pad, Ho, Wo,
                       gx + b * C * H * W);
              }
            }
          });
          if (gw == nullptr) continue;
          // dW += partials, split over weight elements; each element adds
          // its samples in ascending order.
          core::parallel_for(0, w_numel, grain_for(w1 - w0),
                             [&](i64 e0, i64 e1) {
            for (i64 b = w0; b < w1; ++b) {
              const float* pb = partials + (b - w0) * w_numel;
              for (i64 e = e0; e < e1; ++e) gw[e] += pb[e];
            }
          });
        }
      });
}

Variable batch_norm2d(const Variable& x, const Variable& gamma,
                      const Variable& beta, Tensor& running_mean,
                      Tensor& running_var, bool training, float eps,
                      float momentum) {
  LEGW_CHECK(x.value().dim() == 4, "batch_norm2d: x must be [B,C,H,W]");
  const i64 B = x.size(0), C = x.size(1), H = x.size(2), W = x.size(3);
  LEGW_CHECK(gamma.value().dim() == 1 && gamma.size(0) == C &&
                 beta.value().dim() == 1 && beta.size(0) == C,
             "batch_norm2d: gamma/beta must be [C]");
  LEGW_CHECK(running_mean.numel() == C && running_var.numel() == C,
             "batch_norm2d: running stats must be [C]");
  const i64 spatial = H * W;
  const i64 count = B * spatial;

  Tensor mean = Tensor::uninit({C});
  Tensor inv_std = Tensor::uninit({C});
  const float* xp = x.value().data();
  if (training) {
    float* mp = mean.data();
    float* isp = inv_std.data();
    float* rm = running_mean.data();
    float* rv = running_var.data();
    core::parallel_for(0, C, grain_for(2 * count), [&](i64 c0, i64 c1) {
      for (i64 c = c0; c < c1; ++c) {
        double m = 0.0;
        for (i64 b = 0; b < B; ++b) {
          const float* xc = xp + (b * C + c) * spatial;
          for (i64 s = 0; s < spatial; ++s) m += xc[s];
        }
        m /= count;
        double v = 0.0;
        for (i64 b = 0; b < B; ++b) {
          const float* xc = xp + (b * C + c) * spatial;
          for (i64 s = 0; s < spatial; ++s) {
            const double d = xc[s] - m;
            v += d * d;
          }
        }
        v /= count;
        mp[c] = static_cast<float>(m);
        isp[c] = static_cast<float>(1.0 / std::sqrt(v + eps));
        rm[c] = (1.0f - momentum) * rm[c] + momentum * static_cast<float>(m);
        rv[c] = (1.0f - momentum) * rv[c] + momentum * static_cast<float>(v);
      }
    });
  } else {
    for (i64 c = 0; c < C; ++c) {
      mean[c] = running_mean[c];
      inv_std[c] = 1.0f / std::sqrt(running_var[c] + eps);
    }
  }

  Tensor xhat = Tensor::uninit(x.value().shape());
  Tensor out = Tensor::uninit(x.value().shape());
  {
    const float* gp = gamma.value().data();
    const float* bp = beta.value().data();
    const float* mp = mean.data();
    const float* isp = inv_std.data();
    float* xh = xhat.data();
    float* o = out.data();
    core::parallel_for(0, B, grain_for(C * spatial), [&](i64 b0, i64 b1) {
      for (i64 b = b0; b < b1; ++b) {
        for (i64 c = 0; c < C; ++c) {
          const float m = mp[c], is = isp[c], gm = gp[c], bt = bp[c];
          const float* xc = xp + (b * C + c) * spatial;
          float* xhc = xh + (b * C + c) * spatial;
          float* oc = o + (b * C + c) * spatial;
          for (i64 s = 0; s < spatial; ++s) {
            const float v = (xc[s] - m) * is;
            xhc[s] = v;
            oc[s] = gm * v + bt;
          }
        }
      }
    });
  }

  return make_op_node("batch_norm2d", 
      std::move(out), {x, gamma, beta},
      [xhat, inv_std, B, C, spatial, count, training](Node& n) {
        auto& px = *n.parents[0];
        auto& pg = *n.parents[1];
        auto& pb = *n.parents[2];
        const float* g = n.grad.data();
        const float* xh = xhat.data();
        const float* gm = pg.value.data();

        // Per-channel reductions: sum(dy) and sum(dy * xhat), each channel
        // on one thread in sample order.
        Tensor sum_dy(core::Shape{C});
        Tensor sum_dy_xhat(core::Shape{C});
        float* sdy = sum_dy.data();
        float* sdyx = sum_dy_xhat.data();
        core::parallel_for(0, C, grain_for(B * spatial), [&](i64 c0, i64 c1) {
          for (i64 c = c0; c < c1; ++c) {
            for (i64 b = 0; b < B; ++b) {
              const float* gc = g + (b * C + c) * spatial;
              const float* xhc = xh + (b * C + c) * spatial;
              double s1 = 0.0, s2 = 0.0;
              for (i64 s = 0; s < spatial; ++s) {
                s1 += gc[s];
                s2 += static_cast<double>(gc[s]) * xhc[s];
              }
              sdy[c] += static_cast<float>(s1);
              sdyx[c] += static_cast<float>(s2);
            }
          }
        });
        if (pg.requires_grad) pg.ensure_grad().add_(sum_dy_xhat);
        if (pb.requires_grad) pb.ensure_grad().add_(sum_dy);
        if (px.requires_grad) {
          float* gx = px.ensure_grad().data();
          const float* isp = inv_std.data();
          const float inv_count = 1.0f / static_cast<float>(count);
          core::parallel_for(0, B, grain_for(C * spatial), [&](i64 b0, i64 b1) {
            for (i64 b = b0; b < b1; ++b) {
              for (i64 c = 0; c < C; ++c) {
                const float* gc = g + (b * C + c) * spatial;
                const float* xhc = xh + (b * C + c) * spatial;
                float* gxc = gx + (b * C + c) * spatial;
                const float k = gm[c] * isp[c];
                if (training) {
                  const float mdy = sdy[c] * inv_count;
                  const float mdyx = sdyx[c] * inv_count;
                  for (i64 s = 0; s < spatial; ++s)
                    gxc[s] += k * (gc[s] - mdy - xhc[s] * mdyx);
                } else {
                  // Eval mode: running stats are constants.
                  for (i64 s = 0; s < spatial; ++s) gxc[s] += k * gc[s];
                }
              }
            }
          });
        }
      });
}

Variable global_avg_pool(const Variable& x) {
  LEGW_CHECK(x.value().dim() == 4, "global_avg_pool: x must be [B,C,H,W]");
  const i64 B = x.size(0), C = x.size(1), spatial = x.size(2) * x.size(3);
  Tensor out = Tensor::uninit({B, C});
  const float* xp = x.value().data();
  float* op = out.data();
  core::parallel_for(0, B * C, grain_for(spatial), [&](i64 bc0, i64 bc1) {
    for (i64 bc = bc0; bc < bc1; ++bc) {
      double acc = 0.0;
      const float* xc = xp + bc * spatial;
      for (i64 s = 0; s < spatial; ++s) acc += xc[s];
      op[bc] = static_cast<float>(acc / spatial);
    }
  });
  return make_op_node("global_avg_pool", std::move(out), {x}, [B, C, spatial](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    float* gx = n.parents[0]->ensure_grad().data();
    const float* gp = n.grad.data();
    const float inv = 1.0f / static_cast<float>(spatial);
    core::parallel_for(0, B * C, grain_for(spatial), [&](i64 bc0, i64 bc1) {
      for (i64 bc = bc0; bc < bc1; ++bc) {
        const float g = gp[bc] * inv;
        float* gxc = gx + bc * spatial;
        for (i64 s = 0; s < spatial; ++s) gxc[s] += g;
      }
    });
  });
}

Variable avg_pool2x2(const Variable& x) {
  LEGW_CHECK(x.value().dim() == 4, "avg_pool2x2: x must be [B,C,H,W]");
  const i64 B = x.size(0), C = x.size(1), H = x.size(2), W = x.size(3);
  LEGW_CHECK(H % 2 == 0 && W % 2 == 0, "avg_pool2x2: H and W must be even");
  const i64 Ho = H / 2, Wo = W / 2;
  Tensor out = Tensor::uninit({B, C, Ho, Wo});
  const float* xp = x.value().data();
  float* op = out.data();
  core::parallel_for(0, B * C, grain_for(H * W), [&](i64 bc0, i64 bc1) {
    for (i64 bc = bc0; bc < bc1; ++bc) {
      const float* xi = xp + bc * H * W;
      float* oi = op + bc * Ho * Wo;
      for (i64 i = 0; i < Ho; ++i)
        for (i64 j = 0; j < Wo; ++j)
          oi[i * Wo + j] = 0.25f * (xi[(2 * i) * W + 2 * j] +
                                    xi[(2 * i) * W + 2 * j + 1] +
                                    xi[(2 * i + 1) * W + 2 * j] +
                                    xi[(2 * i + 1) * W + 2 * j + 1]);
    }
  });
  return make_op_node("avg_pool2x2", std::move(out), {x}, [B, C, H, W, Ho, Wo](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    float* gx = n.parents[0]->ensure_grad().data();
    const float* g = n.grad.data();
    core::parallel_for(0, B * C, grain_for(H * W), [&](i64 bc0, i64 bc1) {
      for (i64 bc = bc0; bc < bc1; ++bc) {
        float* gxi = gx + bc * H * W;
        const float* gi = g + bc * Ho * Wo;
        for (i64 i = 0; i < Ho; ++i)
          for (i64 j = 0; j < Wo; ++j) {
            const float v = 0.25f * gi[i * Wo + j];
            gxi[(2 * i) * W + 2 * j] += v;
            gxi[(2 * i) * W + 2 * j + 1] += v;
            gxi[(2 * i + 1) * W + 2 * j] += v;
            gxi[(2 * i + 1) * W + 2 * j + 1] += v;
          }
      }
    });
  });
}

}  // namespace legw::ag
