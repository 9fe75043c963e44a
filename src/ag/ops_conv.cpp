// Convolution, batch-norm and pooling ops for the residual CNN (ImageNet /
// ResNet-50 stand-in). conv2d uses im2col + GEMM; the column matrix is
// recomputed in the backward pass instead of saved, trading FLOPs for memory
// so deep unrolled graphs stay small.
//
// Every op runs on the thread pool, partitioned so that results are bitwise
// independent of the thread count (docs/KERNELS.md, "Determinism contract"):
//   - conv2d forward and backward split the batch. A sample's im2col, GEMMs
//     and col2im run on one worker and write only that sample's slice of the
//     output or of x.grad. The weight gradient is the one cross-sample
//     reduction: each sample's g[b]*col[b]^T lands in its own partial buffer
//     (GEMM with beta = 0), and the partials of a window of samples are then
//     added into w.grad serially, in ascending sample order.
//     When Ho*Wo fits one GEMM depth panel (256) this is the exact sum the
//     serial beta = 1 loop formed; beyond that only the rounding differs.
//   - the conv bias gradient and the batch-norm statistics split channels:
//     each channel's reduction stays on one thread, in sample order.
//   - batch-norm normalisation and its input gradient split samples; the
//     pools split (sample, channel) planes.
#include <algorithm>
#include <cmath>
#include <vector>

#include "ag/ops.hpp"
#include "core/thread_pool.hpp"

namespace legw::ag {

using legw::i64;

namespace {

// Loop items per parallel_for chunk so that each chunk does at least about
// kMinChunkWork element operations; smaller loops stay on the calling thread.
constexpr i64 kMinChunkWork = i64{1} << 15;

i64 grain_for(i64 work_per_item) {
  return std::max<i64>(1, kMinChunkWork / std::max<i64>(1, work_per_item));
}

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

// Scatter x[b] into columns: col is [C*kh*kw, Ho*Wo].
void im2col(const float* x, i64 C, i64 H, i64 W, i64 kh, i64 kw, i64 stride,
            i64 pad, i64 Ho, i64 Wo, float* col) {
  for (i64 c = 0; c < C; ++c) {
    for (i64 ki = 0; ki < kh; ++ki) {
      for (i64 kj = 0; kj < kw; ++kj) {
        float* dst = col + ((c * kh + ki) * kw + kj) * Ho * Wo;
        for (i64 oi = 0; oi < Ho; ++oi) {
          const i64 ii = oi * stride + ki - pad;
          for (i64 oj = 0; oj < Wo; ++oj) {
            const i64 jj = oj * stride + kj - pad;
            dst[oi * Wo + oj] = (ii >= 0 && ii < H && jj >= 0 && jj < W)
                                    ? x[(c * H + ii) * W + jj]
                                    : 0.0f;
          }
        }
      }
    }
  }
}

// Accumulate columns back into the image: inverse scatter of im2col.
void col2im(const float* col, i64 C, i64 H, i64 W, i64 kh, i64 kw, i64 stride,
            i64 pad, i64 Ho, i64 Wo, float* x) {
  for (i64 c = 0; c < C; ++c) {
    for (i64 ki = 0; ki < kh; ++ki) {
      for (i64 kj = 0; kj < kw; ++kj) {
        const float* src = col + ((c * kh + ki) * kw + kj) * Ho * Wo;
        for (i64 oi = 0; oi < Ho; ++oi) {
          const i64 ii = oi * stride + ki - pad;
          if (ii < 0 || ii >= H) continue;
          for (i64 oj = 0; oj < Wo; ++oj) {
            const i64 jj = oj * stride + kj - pad;
            if (jj < 0 || jj >= W) continue;
            x[(c * H + ii) * W + jj] += src[oi * Wo + oj];
          }
        }
      }
    }
  }
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

  Tensor out(core::Shape{B, Cout, Ho, Wo});
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
          // dW += partials in sample order, on this thread.
          for (i64 b = w0; b < w1; ++b) {
            const float* pb = partials + (b - w0) * w_numel;
            for (i64 e = 0; e < w_numel; ++e) gw[e] += pb[e];
          }
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

  Tensor mean(core::Shape{C});
  Tensor inv_std(core::Shape{C});
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

  Tensor xhat(x.value().shape());
  Tensor out(x.value().shape());
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
  Tensor out(core::Shape{B, C});
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
  Tensor out(core::Shape{B, C, Ho, Wo});
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
