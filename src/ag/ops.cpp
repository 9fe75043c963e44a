#include "ag/ops.hpp"

#include <algorithm>
#include <cmath>

#include "check/contracts.hpp"
#include "core/kernels.hpp"
#include "core/thread_pool.hpp"

namespace legw::ag {

using core::grain_for;
using legw::i32;
using legw::i64;

// add and relu are split over elements on the pool (one element per item);
// every element is computed exactly as the serial loop computes it.
Variable add(const Variable& a, const Variable& b) {
  check::expect_same_shape(a.value(), b.value(), "add");
  Tensor out = Tensor::uninit(a.value().shape());
  const float* ap = a.value().data();
  const float* bp = b.value().data();
  float* o = out.data();
  core::parallel_for(0, out.numel(), grain_for(1), [&](i64 i0, i64 i1) {
    for (i64 i = i0; i < i1; ++i) o[i] = ap[i] + bp[i];
  });
  return make_op_node("add", std::move(out), {a, b}, [](Node& n) {
    // Both buffers are created here, before any worker writes; a == b makes
    // them one buffer that takes the gradient twice, as the serial loop did.
    float* ga = n.parents[0]->requires_grad
                    ? n.parents[0]->ensure_grad().data()
                    : nullptr;
    float* gb = n.parents[1]->requires_grad
                    ? n.parents[1]->ensure_grad().data()
                    : nullptr;
    if (ga == nullptr && gb == nullptr) return;
    const float* g = n.grad.data();
    core::parallel_for(0, n.grad.numel(), grain_for(1), [&](i64 i0, i64 i1) {
      if (ga != nullptr)
        for (i64 i = i0; i < i1; ++i) ga[i] += g[i];
      if (gb != nullptr)
        for (i64 i = i0; i < i1; ++i) gb[i] += g[i];
    });
  });
}

Variable sub(const Variable& a, const Variable& b) {
  check::expect_same_shape(a.value(), b.value(), "sub");
  Tensor out = a.value() - b.value();
  return make_op_node("sub", std::move(out), {a, b}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->ensure_grad().add_(n.grad);
    if (n.parents[1]->requires_grad)
      n.parents[1]->ensure_grad().add_(n.grad, -1.0f);
  });
}

Variable mul(const Variable& a, const Variable& b) {
  check::expect_same_shape(a.value(), b.value(), "mul");
  Tensor out = a.value() * b.value();
  return make_op_node("mul", std::move(out), {a, b}, [](Node& n) {
    if (n.parents[0]->requires_grad) {
      Tensor& ga = n.parents[0]->ensure_grad();
      const Tensor& bv = n.parents[1]->value;
      for (i64 i = 0; i < ga.numel(); ++i) ga[i] += n.grad[i] * bv[i];
    }
    if (n.parents[1]->requires_grad) {
      Tensor& gb = n.parents[1]->ensure_grad();
      const Tensor& av = n.parents[0]->value;
      for (i64 i = 0; i < gb.numel(); ++i) gb[i] += n.grad[i] * av[i];
    }
  });
}

Variable scale(const Variable& a, float s) {
  Tensor out = a.value() * s;
  return make_op_node("scale", std::move(out), {a}, [s](Node& n) {
    if (n.parents[0]->requires_grad)
      n.parents[0]->ensure_grad().add_(n.grad, s);
  });
}

Variable add_scalar(const Variable& a, float s) {
  Tensor out = a.value() + s;
  return make_op_node("add_scalar", std::move(out), {a}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->ensure_grad().add_(n.grad);
  });
}

Variable add_bias(const Variable& x, const Variable& bias) {
  LEGW_CHECK(x.value().dim() == 2 && bias.value().dim() == 1 &&
                 x.size(1) == bias.size(0),
             "add_bias: x must be [m,n], bias [n]");
  const i64 m = x.size(0);
  const i64 ncols = x.size(1);
  Tensor out = x.value();
  core::add_bias_rows(out.data(), bias.value().data(), m, ncols);
  return make_op_node("add_bias", std::move(out), {x, bias}, [m, ncols](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->ensure_grad().add_(n.grad);
    if (n.parents[1]->requires_grad) {
      Tensor& gb = n.parents[1]->ensure_grad();
      const float* g = n.grad.data();
      for (i64 r = 0; r < m; ++r)
        for (i64 c = 0; c < ncols; ++c) gb[c] += g[r * ncols + c];
    }
  });
}

Variable mul_colvec(const Variable& x, const Variable& col) {
  LEGW_CHECK(x.value().dim() == 2 && col.value().dim() == 2 &&
                 col.size(1) == 1 && col.size(0) == x.size(0),
             "mul_colvec: x [m,n], col [m,1]");
  const i64 m = x.size(0);
  const i64 ncols = x.size(1);
  Tensor out = x.value();
  float* o = out.data();
  const float* cv = col.value().data();
  for (i64 r = 0; r < m; ++r) {
    const float s = cv[r];
    for (i64 c = 0; c < ncols; ++c) o[r * ncols + c] *= s;
  }
  return make_op_node("mul_colvec", std::move(out), {x, col}, [m, ncols](Node& n) {
    const float* g = n.grad.data();
    if (n.parents[0]->requires_grad) {
      Tensor& gx = n.parents[0]->ensure_grad();
      const float* cv = n.parents[1]->value.data();
      for (i64 r = 0; r < m; ++r) {
        const float s = cv[r];
        for (i64 c = 0; c < ncols; ++c) gx[r * ncols + c] += s * g[r * ncols + c];
      }
    }
    if (n.parents[1]->requires_grad) {
      Tensor& gc = n.parents[1]->ensure_grad();
      const float* xv = n.parents[0]->value.data();
      for (i64 r = 0; r < m; ++r) {
        float acc = 0.0f;
        for (i64 c = 0; c < ncols; ++c) acc += xv[r * ncols + c] * g[r * ncols + c];
        gc[r] += acc;
      }
    }
  });
}

Variable matmul(const Variable& a, const Variable& b, bool trans_a,
                bool trans_b) {
  Tensor out = core::matmul(a.value(), b.value(), trans_a, trans_b);
  return make_op_node("matmul", 
      std::move(out), {a, b}, [trans_a, trans_b](Node& n) {
        const Tensor& av = n.parents[0]->value;
        const Tensor& bv = n.parents[1]->value;
        const Tensor& g = n.grad;
        // d(A op B)/dA and /dB for the four transpose configurations.
        if (n.parents[0]->requires_grad) {
          Tensor& ga = n.parents[0]->ensure_grad();
          Tensor da;
          if (!trans_a) {
            // dA = G * B^T (or G * B when B was transposed)
            da = core::matmul(g, bv, false, !trans_b);
          } else if (!trans_b) {
            // A^T used: dA = B * G^T
            da = core::matmul(bv, g, false, true);
          } else {
            // A^T and B^T: dA = B^T * G^T
            da = core::matmul(bv, g, true, true);
          }
          ga.add_(da);
        }
        if (n.parents[1]->requires_grad) {
          Tensor& gb = n.parents[1]->ensure_grad();
          Tensor db;
          if (!trans_b) {
            db = core::matmul(av, g, !trans_a, false);
          } else if (!trans_a) {
            // B^T used: dB = G^T * A
            db = core::matmul(g, av, true, false);
          } else {
            db = core::matmul(g, av, true, true);
          }
          gb.add_(db);
        }
      });
}

Variable sigmoid(const Variable& a) {
  Tensor out = Tensor::uninit(a.value().shape());
  core::sigmoid_forward(a.value().data(), out.data(), out.numel());
  Tensor saved = out;
  return make_op_node("sigmoid", std::move(out), {a}, [saved](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    core::sigmoid_backward(saved.data(), n.grad.data(),
                           n.parents[0]->ensure_grad().data(), saved.numel());
  });
}

Variable tanh(const Variable& a) {
  Tensor out = Tensor::uninit(a.value().shape());
  core::tanh_forward(a.value().data(), out.data(), out.numel());
  Tensor saved = out;
  return make_op_node("tanh", std::move(out), {a}, [saved](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    core::tanh_backward(saved.data(), n.grad.data(),
                        n.parents[0]->ensure_grad().data(), saved.numel());
  });
}

Variable relu(const Variable& a) {
  Tensor out = Tensor::uninit(a.value().shape());
  const float* x = a.value().data();
  float* y = out.data();
  core::parallel_for(0, out.numel(), grain_for(1), [&](i64 i0, i64 i1) {
    core::relu_forward(x + i0, y + i0, i1 - i0);
  });
  return make_op_node("relu", std::move(out), {a}, [](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    const float* x = n.parents[0]->value.data();
    const float* dy = n.grad.data();
    float* dx = n.parents[0]->ensure_grad().data();
    core::parallel_for(0, n.grad.numel(), grain_for(1), [&](i64 i0, i64 i1) {
      core::relu_backward(x + i0, dy + i0, dx + i0, i1 - i0);
    });
  });
}

Variable softmax_rows(const Variable& a) {
  check::expect_dim(a.value(), 2, "softmax_rows");
  const i64 rows = a.size(0);
  const i64 cols = a.size(1);
  Tensor out = Tensor::uninit(a.value().shape());
  core::softmax_rows(a.value().data(), out.data(), rows, cols);
  Tensor saved = out;
  return make_op_node("softmax_rows", std::move(out), {a}, [saved, rows, cols](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& gx = n.parents[0]->ensure_grad();
    const float* y = saved.data();
    const float* g = n.grad.data();
    // dX[r,c] = y[r,c] * (g[r,c] - sum_j g[r,j] y[r,j])
    for (i64 r = 0; r < rows; ++r) {
      double dot = 0.0;
      for (i64 c = 0; c < cols; ++c) dot += static_cast<double>(g[r * cols + c]) * y[r * cols + c];
      const float d = static_cast<float>(dot);
      for (i64 c = 0; c < cols; ++c)
        gx[r * cols + c] += y[r * cols + c] * (g[r * cols + c] - d);
    }
  });
}

Variable reshape(const Variable& a, Shape shape) {
  Tensor out = a.value().reshape(shape);
  Shape orig = a.value().shape();
  return make_op_node("reshape", std::move(out), {a}, [orig](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    n.parents[0]->ensure_grad().add_(n.grad.reshape(orig));
  });
}

Variable concat_cols(const std::vector<Variable>& parts) {
  LEGW_CHECK(!parts.empty(), "concat_cols: no inputs");
  const i64 rows = parts[0].size(0);
  i64 total_cols = 0;
  for (const auto& p : parts) {
    LEGW_CHECK(p.value().dim() == 2 && p.size(0) == rows,
               "concat_cols: all inputs must be [rows, *]");
    total_cols += p.size(1);
  }
  Tensor out = Tensor::uninit({rows, total_cols});
  float* o = out.data();
  i64 col_off = 0;
  std::vector<i64> widths;
  widths.reserve(parts.size());
  for (const auto& p : parts) {
    const i64 w = p.size(1);
    widths.push_back(w);
    const float* src = p.value().data();
    for (i64 r = 0; r < rows; ++r) {
      for (i64 c = 0; c < w; ++c) o[r * total_cols + col_off + c] = src[r * w + c];
    }
    col_off += w;
  }
  return make_op_node("concat_cols", std::move(out), parts,
                      [rows, total_cols, widths](Node& n) {
                        const float* g = n.grad.data();
                        i64 off = 0;
                        for (std::size_t i = 0; i < n.parents.size(); ++i) {
                          const i64 w = widths[i];
                          if (n.parents[i]->requires_grad) {
                            Tensor& gp = n.parents[i]->ensure_grad();
                            for (i64 r = 0; r < rows; ++r)
                              for (i64 c = 0; c < w; ++c)
                                gp[r * w + c] += g[r * total_cols + off + c];
                          }
                          off += w;
                        }
                      });
}

Variable slice(const Variable& a, i64 r0, i64 r1, i64 c0, i64 c1) {
  check::expect_dim(a.value(), 2, "slice");
  const i64 cols = a.size(1);
  LEGW_CHECK(0 <= r0 && r0 < r1 && r1 <= a.size(0), "slice: bad row range");
  LEGW_CHECK(0 <= c0 && c0 < c1 && c1 <= cols, "slice: bad column range");
  const i64 rows = r1 - r0;
  const i64 w = c1 - c0;
  Tensor out = Tensor::uninit({rows, w});
  const float* src = a.value().data() + r0 * cols + c0;
  float* o = out.data();
  for (i64 r = 0; r < rows; ++r)
    for (i64 c = 0; c < w; ++c) o[r * w + c] = src[r * cols + c];
  return make_op_node("slice", std::move(out), {a}, [rows, cols, r0, c0, w](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    float* gp = n.parents[0]->ensure_grad().data() + r0 * cols + c0;
    const float* g = n.grad.data();
    for (i64 r = 0; r < rows; ++r)
      for (i64 c = 0; c < w; ++c) gp[r * cols + c] += g[r * w + c];
  });
}

Variable slice_cols(const Variable& a, i64 begin, i64 end) {
  check::expect_dim(a.value(), 2, "slice_cols");
  return slice(a, 0, a.size(0), begin, end);
}

Variable concat_rows(const std::vector<Variable>& parts) {
  LEGW_CHECK(!parts.empty(), "concat_rows: no inputs");
  const i64 cols = parts[0].size(1);
  i64 total_rows = 0;
  for (const auto& p : parts) {
    LEGW_CHECK(p.value().dim() == 2 && p.size(1) == cols,
               "concat_rows: all inputs must be [*, cols]");
    total_rows += p.size(0);
  }
  Tensor out = Tensor::uninit({total_rows, cols});
  float* o = out.data();
  i64 row_off = 0;
  std::vector<i64> heights;
  heights.reserve(parts.size());
  for (const auto& p : parts) {
    const i64 h = p.size(0);
    heights.push_back(h);
    const float* src = p.value().data();
    std::copy(src, src + h * cols, o + row_off * cols);
    row_off += h;
  }
  return make_op_node("concat_rows", std::move(out), parts, [cols, heights](Node& n) {
    const float* g = n.grad.data();
    i64 off = 0;
    for (std::size_t i = 0; i < n.parents.size(); ++i) {
      const i64 h = heights[i];
      if (n.parents[i]->requires_grad) {
        Tensor& gp = n.parents[i]->ensure_grad();
        for (i64 e = 0; e < h * cols; ++e) gp[e] += g[off * cols + e];
      }
      off += h;
    }
  });
}

Variable sum_all(const Variable& a) {
  Tensor out = Tensor::uninit({1});
  out[0] = a.value().sum();
  return make_op_node("sum_all", std::move(out), {a}, [](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& gp = n.parents[0]->ensure_grad();
    const float g = n.grad[0];
    for (i64 i = 0; i < gp.numel(); ++i) gp[i] += g;
  });
}

Variable mean_all(const Variable& a) {
  const i64 count = a.numel();
  check::expect_nonempty(a.value(), "mean_all");
  Tensor out = Tensor::uninit({1});
  out[0] = a.value().mean();
  return make_op_node("mean_all", std::move(out), {a}, [count](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& gp = n.parents[0]->ensure_grad();
    const float g = n.grad[0] / static_cast<float>(count);
    for (i64 i = 0; i < gp.numel(); ++i) gp[i] += g;
  });
}

Variable sum_rows(const Variable& a) {
  check::expect_dim(a.value(), 2, "sum_rows");
  const i64 rows = a.size(0);
  const i64 cols = a.size(1);
  Tensor out(Shape{cols});
  const float* src = a.value().data();
  for (i64 r = 0; r < rows; ++r)
    for (i64 c = 0; c < cols; ++c) out[c] += src[r * cols + c];
  return make_op_node("sum_rows", std::move(out), {a}, [rows, cols](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& gp = n.parents[0]->ensure_grad();
    const float* g = n.grad.data();
    for (i64 r = 0; r < rows; ++r)
      for (i64 c = 0; c < cols; ++c) gp[r * cols + c] += g[c];
  });
}

Variable embedding(const Variable& weight, const std::vector<i32>& indices) {
  check::expect_dim(weight.value(), 2, "embedding");
  const i64 vocab = weight.size(0);
  const i64 dim = weight.size(1);
  const i64 n = static_cast<i64>(indices.size());
  Tensor out = Tensor::uninit({n, dim});
  const float* w = weight.value().data();
  float* o = out.data();
  for (i64 i = 0; i < n; ++i) {
    const i32 idx = indices[static_cast<std::size_t>(i)];
    LEGW_CHECK(idx >= 0 && idx < vocab, "embedding index out of range");
    std::copy(w + idx * dim, w + (idx + 1) * dim, o + i * dim);
  }
  return make_op_node("embedding", std::move(out), {weight}, [indices, dim](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& gw = n.parents[0]->ensure_grad();
    const float* g = n.grad.data();
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const i64 row = indices[i];
      for (i64 c = 0; c < dim; ++c)
        gw[row * dim + c] += g[static_cast<i64>(i) * dim + c];
    }
  });
}

void dropout_mask(float p, core::Rng& rng, float* mask, i64 n) {
  LEGW_CHECK(p >= 0.0f && p < 1.0f, "dropout rate must be in [0,1)");
  const float keep = 1.0f - p;
  const float inv_keep = 1.0f / keep;
  for (i64 i = 0; i < n; ++i) mask[i] = rng.uniform() < keep ? inv_keep : 0.0f;
}

Variable dropout(const Variable& a, float p, core::Rng& rng, bool training) {
  LEGW_CHECK(p >= 0.0f && p < 1.0f, "dropout rate must be in [0,1)");
  if (!training || p == 0.0f) return a;
  Tensor mask = Tensor::uninit(a.value().shape());
  dropout_mask(p, rng, mask.data(), mask.numel());
  Tensor out = a.value() * mask;
  return make_op_node("dropout", std::move(out), {a}, [mask](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& gp = n.parents[0]->ensure_grad();
    for (i64 i = 0; i < gp.numel(); ++i) gp[i] += n.grad[i] * mask[i];
  });
}

Variable exp(const Variable& a) {
  Tensor out = Tensor::uninit(a.value().shape());
  for (i64 i = 0; i < out.numel(); ++i) out[i] = std::exp(a.value()[i]);
  Tensor saved = out;
  return make_op_node("exp", std::move(out), {a}, [saved](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& g = n.parents[0]->ensure_grad();
    for (i64 i = 0; i < g.numel(); ++i) g[i] += n.grad[i] * saved[i];
  });
}

Variable log(const Variable& a) {
  Tensor out = Tensor::uninit(a.value().shape());
  for (i64 i = 0; i < out.numel(); ++i) {
    LEGW_DCHECK(a.value()[i] > 0.0f, "log: input must be positive");
    out[i] = std::log(a.value()[i]);
  }
  return make_op_node("log", std::move(out), {a}, [](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& g = n.parents[0]->ensure_grad();
    const Tensor& x = n.parents[0]->value;
    for (i64 i = 0; i < g.numel(); ++i) g[i] += n.grad[i] / x[i];
  });
}

Variable sqrt(const Variable& a, float eps) {
  Tensor out = Tensor::uninit(a.value().shape());
  for (i64 i = 0; i < out.numel(); ++i) {
    LEGW_DCHECK(a.value()[i] >= 0.0f, "sqrt: input must be non-negative");
    out[i] = std::sqrt(a.value()[i]);
  }
  Tensor saved = out;
  return make_op_node("sqrt", std::move(out), {a}, [saved, eps](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& g = n.parents[0]->ensure_grad();
    for (i64 i = 0; i < g.numel(); ++i) {
      g[i] += n.grad[i] * 0.5f / std::max(saved[i], eps);
    }
  });
}

Variable abs(const Variable& a) {
  Tensor out = Tensor::uninit(a.value().shape());
  for (i64 i = 0; i < out.numel(); ++i) out[i] = std::fabs(a.value()[i]);
  return make_op_node("abs", std::move(out), {a}, [](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& g = n.parents[0]->ensure_grad();
    const Tensor& x = n.parents[0]->value;
    for (i64 i = 0; i < g.numel(); ++i) {
      g[i] += x[i] > 0.0f ? n.grad[i] : (x[i] < 0.0f ? -n.grad[i] : 0.0f);
    }
  });
}

Variable clamp(const Variable& a, float lo, float hi) {
  LEGW_CHECK(lo <= hi, "clamp: lo must be <= hi");
  Tensor out = Tensor::uninit(a.value().shape());
  for (i64 i = 0; i < out.numel(); ++i) {
    out[i] = std::min(hi, std::max(lo, a.value()[i]));
  }
  return make_op_node("clamp", std::move(out), {a}, [lo, hi](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& g = n.parents[0]->ensure_grad();
    const Tensor& x = n.parents[0]->value;
    for (i64 i = 0; i < g.numel(); ++i) {
      if (x[i] > lo && x[i] < hi) g[i] += n.grad[i];
    }
  });
}

Variable normalize_vec(const Variable& v, float eps) {
  check::expect_dim(v.value(), 1, "normalize_vec");
  const i64 n = v.numel();
  const float norm = std::max(v.value().l2_norm(), eps);
  Tensor out = v.value() * (1.0f / norm);
  Tensor unit = out;
  return make_op_node("normalize_vec", std::move(out), {v}, [unit, norm, n](Node& ng) {
    if (!ng.parents[0]->requires_grad) return;
    // d(v/||v||)/dv = (I - u u^T) / ||v||  with u = v/||v||.
    Tensor& gv = ng.parents[0]->ensure_grad();
    const float* g = ng.grad.data();
    const float* u = unit.data();
    double dot = 0.0;
    for (i64 i = 0; i < n; ++i) dot += static_cast<double>(g[i]) * u[i];
    const float d = static_cast<float>(dot);
    const float inv = 1.0f / norm;
    for (i64 i = 0; i < n; ++i) gv[i] += inv * (g[i] - d * u[i]);
  });
}

Variable softmax_cross_entropy(const Variable& logits,
                               const std::vector<i32>& targets,
                               i32 ignore_index, i64* counted_out) {
  check::expect_dim(logits.value(), 2, "softmax_cross_entropy");
  const i64 rows = logits.size(0);
  const i64 cols = logits.size(1);
  LEGW_CHECK(static_cast<i64>(targets.size()) == rows,
             "cross-entropy: one target per logit row required");
  Tensor probs = Tensor::uninit({rows, cols});
  i64 counted = 0;
  const double total = core::softmax_cross_entropy_forward(
      logits.value().data(), targets.data(), rows, cols, ignore_index,
      probs.data(), &counted);
  if (counted_out != nullptr) *counted_out = counted;
  Tensor out = Tensor::uninit({1});
  out[0] = counted > 0 ? static_cast<float>(total / counted) : 0.0f;
  return make_op_node("softmax_cross_entropy", 
      std::move(out), {logits},
      [probs, targets, ignore_index, rows, cols, counted](Node& n) {
        if (!n.parents[0]->requires_grad || counted == 0) return;
        const float scale = n.grad[0] / static_cast<float>(counted);
        core::softmax_cross_entropy_backward(
            probs.data(), targets.data(), rows, cols, ignore_index, scale,
            n.parents[0]->ensure_grad().data());
      });
}

}  // namespace legw::ag
