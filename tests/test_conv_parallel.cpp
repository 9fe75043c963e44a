// Batch-parallel conv2d / batch_norm2d / pooling backward against serial
// oracles. The oracles are the per-sample loops the ops ran before they were
// spread over the thread pool: conv2d's weight gradient accumulated with one
// beta = 1 GEMM per sample, every channel reduction in sample order. Lives in
// the kernel-test binary (every LEGW_KERNEL/LEGW_NUM_THREADS registration and
// the ASan/UBSan preset) and in the concurrency binary (the TSan preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <vector>

#include "ag/ops.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "core/thread_pool.hpp"

namespace legw::ag {
namespace {

using core::Rng;

void im2col_ref(const float* x, i64 C, i64 H, i64 W, i64 k, i64 stride,
                i64 pad, i64 Ho, i64 Wo, float* col) {
  for (i64 c = 0; c < C; ++c)
    for (i64 ki = 0; ki < k; ++ki)
      for (i64 kj = 0; kj < k; ++kj) {
        float* dst = col + ((c * k + ki) * k + kj) * Ho * Wo;
        for (i64 oi = 0; oi < Ho; ++oi)
          for (i64 oj = 0; oj < Wo; ++oj) {
            const i64 ii = oi * stride + ki - pad;
            const i64 jj = oj * stride + kj - pad;
            dst[oi * Wo + oj] = (ii >= 0 && ii < H && jj >= 0 && jj < W)
                                    ? x[(c * H + ii) * W + jj]
                                    : 0.0f;
          }
      }
}

void col2im_ref(const float* col, i64 C, i64 H, i64 W, i64 k, i64 stride,
                i64 pad, i64 Ho, i64 Wo, float* x) {
  for (i64 c = 0; c < C; ++c)
    for (i64 ki = 0; ki < k; ++ki)
      for (i64 kj = 0; kj < k; ++kj) {
        const float* src = col + ((c * k + ki) * k + kj) * Ho * Wo;
        for (i64 oi = 0; oi < Ho; ++oi)
          for (i64 oj = 0; oj < Wo; ++oj) {
            const i64 ii = oi * stride + ki - pad;
            const i64 jj = oj * stride + kj - pad;
            if (ii < 0 || ii >= H || jj < 0 || jj >= W) continue;
            x[(c * H + ii) * W + jj] += src[oi * Wo + oj];
          }
      }
}

struct ConvGrads {
  Tensor gx, gw, gb;
};

// The serial backward: samples in order, dW accumulated by a beta = 1 GEMM.
ConvGrads conv_backward_oracle(const Tensor& x, const Tensor& w,
                               const Tensor& g, i64 stride, i64 pad) {
  const i64 B = x.size(0), C = x.size(1), H = x.size(2), W = x.size(3);
  const i64 Cout = w.size(0), k = w.size(2);
  const i64 Ho = g.size(2), Wo = g.size(3);
  const i64 rows = C * k * k, cols = Ho * Wo;
  ConvGrads out{Tensor::zeros(x.shape()), Tensor::zeros(w.shape()),
                Tensor::zeros({Cout})};
  for (i64 b = 0; b < B; ++b)
    for (i64 co = 0; co < Cout; ++co) {
      double acc = 0.0;
      const float* gr = g.data() + (b * Cout + co) * cols;
      for (i64 s = 0; s < cols; ++s) acc += gr[s];
      out.gb[co] += static_cast<float>(acc);
    }
  std::vector<float> col(static_cast<std::size_t>(rows * cols));
  std::vector<float> dcol(col.size());
  for (i64 b = 0; b < B; ++b) {
    const float* gs = g.data() + b * Cout * cols;
    im2col_ref(x.data() + b * C * H * W, C, H, W, k, stride, pad, Ho, Wo,
               col.data());
    core::gemm(false, true, Cout, rows, cols, 1.0f, gs, cols, col.data(),
               cols, 1.0f, out.gw.data(), rows);
    core::gemm(true, false, rows, cols, Cout, 1.0f, w.data(), rows, gs, cols,
               0.0f, dcol.data(), cols);
    col2im_ref(dcol.data(), C, H, W, k, stride, pad, Ho, Wo,
               out.gx.data() + b * C * H * W);
  }
  return out;
}

ConvGrads conv_backward_op(const Tensor& x0, const Tensor& w0,
                           const Tensor& b0, const Tensor& g, i64 stride,
                           i64 pad) {
  Variable x = Variable::leaf(x0, true);
  Variable w = Variable::leaf(w0, true);
  Variable b = Variable::leaf(b0, true);
  Variable y = conv2d(x, w, b, stride, pad);
  EXPECT_TRUE(y.value().same_shape(g));
  backward(y, &g);
  return {x.grad(), w.grad(), b.grad()};
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

struct ConvShape {
  i64 batch, stride, pad;
};

void PrintTo(const ConvShape& s, std::ostream* os) {
  *os << "B" << s.batch << "_stride" << s.stride << "_pad" << s.pad;
}

class ConvBackwardOracle : public ::testing::TestWithParam<ConvShape> {};

// 16x16 inputs keep Ho*Wo <= 256 (one GEMM depth panel), where the sample-
// ordered partial reduction forms exactly the serial beta = 1 sum.
TEST_P(ConvBackwardOracle, BitwiseEqualToSerialLoop) {
  const auto [B, stride, pad] = GetParam();
  Rng rng(static_cast<u64>(100 + B * 7 + stride * 3 + pad));
  const i64 C = 3, Cout = 10, k = 3, H = 16, W = 16;
  const i64 Ho = (H + 2 * pad - k) / stride + 1;
  const i64 Wo = (W + 2 * pad - k) / stride + 1;
  ASSERT_LE(Ho * Wo, 256);
  const Tensor x = Tensor::randn({B, C, H, W}, rng);
  const Tensor w = Tensor::randn({Cout, C, k, k}, rng, 0.3f);
  const Tensor bias = Tensor::randn({Cout}, rng, 0.2f);
  const Tensor g = Tensor::randn({B, Cout, Ho, Wo}, rng);

  const ConvGrads want = conv_backward_oracle(x, w, g, stride, pad);
  const ConvGrads got = conv_backward_op(x, w, bias, g, stride, pad);
  EXPECT_TRUE(bitwise_equal(got.gx, want.gx)) << "x.grad";
  EXPECT_TRUE(bitwise_equal(got.gw, want.gw)) << "w.grad";
  EXPECT_TRUE(bitwise_equal(got.gb, want.gb)) << "bias.grad";
}

// Batches straddle the 64-sample dW window: below, at, just past, and two
// windows plus a remainder.
INSTANTIATE_TEST_SUITE_P(
    BatchesAroundWindow, ConvBackwardOracle,
    ::testing::Values(ConvShape{1, 1, 1}, ConvShape{63, 1, 1},
                      ConvShape{64, 2, 1}, ConvShape{65, 1, 1},
                      ConvShape{65, 2, 1}, ConvShape{65, 2, 0},
                      ConvShape{130, 1, 1}, ConvShape{130, 2, 1},
                      ConvShape{130, 2, 0}, ConvShape{63, 2, 0}));

// 20x20 gives Ho*Wo = 400, past one depth panel: dW may round differently
// from the serial loop but must stay close, and must not depend on the
// thread count.
TEST(ConvBackwardLargeImage, CloseToSerialLoopAndReproducible) {
  Rng rng(7);
  const i64 B = 65, C = 4, Cout = 8, k = 3, H = 20, W = 20;
  const Tensor x = Tensor::randn({B, C, H, W}, rng);
  const Tensor w = Tensor::randn({Cout, C, k, k}, rng, 0.3f);
  const Tensor bias = Tensor::randn({Cout}, rng, 0.2f);
  const Tensor g = Tensor::randn({B, Cout, H, W}, rng);

  const ConvGrads want = conv_backward_oracle(x, w, g, 1, 1);
  const ConvGrads got = conv_backward_op(x, w, bias, g, 1, 1);
  EXPECT_TRUE(bitwise_equal(got.gx, want.gx)) << "x.grad";
  EXPECT_TRUE(bitwise_equal(got.gb, want.gb)) << "bias.grad";
  float max_ref = 0.0f, max_diff = 0.0f;
  for (i64 i = 0; i < want.gw.numel(); ++i) {
    max_ref = std::max(max_ref, std::fabs(want.gw[i]));
    max_diff = std::max(max_diff, std::fabs(got.gw[i] - want.gw[i]));
  }
  EXPECT_LE(max_diff, 1e-5f * max_ref);

  // Again, from inside a pool chunk: nested parallel_for calls run serially,
  // so this is the same op on one thread.
  ConvGrads again;
  core::ThreadPool outer(2);
  outer.parallel_for(0, 2, 1, [&](i64 begin, i64) {
    if (begin == 0) again = conv_backward_op(x, w, bias, g, 1, 1);
  });
  EXPECT_TRUE(bitwise_equal(again.gx, got.gx));
  EXPECT_TRUE(bitwise_equal(again.gw, got.gw));
  EXPECT_TRUE(bitwise_equal(again.gb, got.gb));
}

struct BnResult {
  Tensor out, running_mean, running_var, gx, ggamma, gbeta;
};

// The serial batch norm, loop for loop: per-channel statistics over samples
// in order, then normalisation, gradient sums and input gradient sample by
// sample.
BnResult batch_norm_oracle(const Tensor& x, const Tensor& gamma,
                           const Tensor& beta, const Tensor& g, float eps,
                           float momentum) {
  const i64 B = x.size(0), C = x.size(1), spatial = x.size(2) * x.size(3);
  const i64 count = B * spatial;
  BnResult r{Tensor(x.shape()),         Tensor::zeros({C}),
             Tensor::ones({C}),         Tensor::zeros(x.shape()),
             Tensor::zeros({C}),        Tensor::zeros({C})};
  const float* xp = x.data();
  std::vector<float> mean(static_cast<std::size_t>(C));
  std::vector<float> inv_std(mean.size());
  for (i64 c = 0; c < C; ++c) {
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
    mean[c] = static_cast<float>(m);
    inv_std[c] = static_cast<float>(1.0 / std::sqrt(v + eps));
    r.running_mean[c] = (1.0f - momentum) * r.running_mean[c] +
                        momentum * static_cast<float>(m);
    r.running_var[c] = (1.0f - momentum) * r.running_var[c] +
                       momentum * static_cast<float>(v);
  }
  Tensor xhat(x.shape());
  float* xh = xhat.data();
  for (i64 b = 0; b < B; ++b)
    for (i64 c = 0; c < C; ++c) {
      const float m = mean[c], is = inv_std[c], gm = gamma[c], bt = beta[c];
      const float* xc = xp + (b * C + c) * spatial;
      float* xhc = xh + (b * C + c) * spatial;
      float* oc = r.out.data() + (b * C + c) * spatial;
      for (i64 s = 0; s < spatial; ++s) {
        const float v = (xc[s] - m) * is;
        xhc[s] = v;
        oc[s] = gm * v + bt;
      }
    }
  for (i64 b = 0; b < B; ++b)
    for (i64 c = 0; c < C; ++c) {
      const float* gc = g.data() + (b * C + c) * spatial;
      const float* xhc = xh + (b * C + c) * spatial;
      double s1 = 0.0, s2 = 0.0;
      for (i64 s = 0; s < spatial; ++s) {
        s1 += gc[s];
        s2 += static_cast<double>(gc[s]) * xhc[s];
      }
      r.gbeta[c] += static_cast<float>(s1);
      r.ggamma[c] += static_cast<float>(s2);
    }
  const float inv_count = 1.0f / static_cast<float>(count);
  for (i64 b = 0; b < B; ++b)
    for (i64 c = 0; c < C; ++c) {
      const float* gc = g.data() + (b * C + c) * spatial;
      const float* xhc = xh + (b * C + c) * spatial;
      float* gxc = r.gx.data() + (b * C + c) * spatial;
      const float k = gamma[c] * inv_std[c];
      const float mdy = r.gbeta[c] * inv_count;
      const float mdyx = r.ggamma[c] * inv_count;
      for (i64 s = 0; s < spatial; ++s)
        gxc[s] += k * (gc[s] - mdy - xhc[s] * mdyx);
    }
  return r;
}

// Large enough that the channel and sample loops both split over the pool.
TEST(BatchNormParallel, BitwiseEqualToSerialLoop) {
  Rng rng(11);
  const i64 B = 65, C = 8, H = 16, W = 16;
  const float eps = 1e-5f, momentum = 0.1f;
  const Tensor x0 = Tensor::randn({B, C, H, W}, rng, 2.0f, 0.5f);
  const Tensor gamma0 = Tensor::randn({C}, rng, 0.5f, 1.0f);
  const Tensor beta0 = Tensor::randn({C}, rng, 0.5f);
  const Tensor g = Tensor::randn({B, C, H, W}, rng);
  const BnResult want = batch_norm_oracle(x0, gamma0, beta0, g, eps, momentum);

  Variable x = Variable::leaf(x0, true);
  Variable gamma = Variable::leaf(gamma0, true);
  Variable beta = Variable::leaf(beta0, true);
  Tensor rm = Tensor::zeros({C});
  Tensor rv = Tensor::ones({C});
  Variable y = batch_norm2d(x, gamma, beta, rm, rv, /*training=*/true, eps,
                            momentum);
  backward(y, &g);
  EXPECT_TRUE(bitwise_equal(y.value(), want.out)) << "out";
  EXPECT_TRUE(bitwise_equal(rm, want.running_mean)) << "running_mean";
  EXPECT_TRUE(bitwise_equal(rv, want.running_var)) << "running_var";
  EXPECT_TRUE(bitwise_equal(x.grad(), want.gx)) << "x.grad";
  EXPECT_TRUE(bitwise_equal(gamma.grad(), want.ggamma)) << "gamma.grad";
  EXPECT_TRUE(bitwise_equal(beta.grad(), want.gbeta)) << "beta.grad";
}

TEST(PoolingParallel, BitwiseEqualToSerialLoop) {
  Rng rng(13);
  const i64 B = 65, C = 8, H = 16, W = 16, S = H * W;
  const Tensor x0 = Tensor::randn({B, C, H, W}, rng);

  Variable x = Variable::leaf(x0, true);
  Variable p = avg_pool2x2(x);
  const Tensor gp = Tensor::randn(p.value().shape(), rng);
  backward(p, &gp);
  Tensor want_p({B, C, H / 2, W / 2});
  Tensor want_gx = Tensor::zeros(x0.shape());
  for (i64 bc = 0; bc < B * C; ++bc)
    for (i64 i = 0; i < H / 2; ++i)
      for (i64 j = 0; j < W / 2; ++j) {
        const i64 o = (bc * (H / 2) + i) * (W / 2) + j;
        const i64 t = (bc * H + 2 * i) * W + 2 * j;
        want_p[o] = 0.25f * (x0[t] + x0[t + 1] + x0[t + W] + x0[t + W + 1]);
        const float v = 0.25f * gp[o];
        for (const i64 d : {i64{0}, i64{1}, W, W + 1}) want_gx[t + d] += v;
      }
  EXPECT_TRUE(bitwise_equal(p.value(), want_p)) << "avg_pool2x2 out";
  EXPECT_TRUE(bitwise_equal(x.grad(), want_gx)) << "avg_pool2x2 x.grad";

  Variable x2 = Variable::leaf(x0, true);
  Variable q = global_avg_pool(x2);
  const Tensor gq = Tensor::randn({B, C}, rng);
  backward(q, &gq);
  Tensor want_q({B, C});
  Tensor want_gx2(x0.shape());
  for (i64 bc = 0; bc < B * C; ++bc) {
    double acc = 0.0;
    for (i64 s = 0; s < S; ++s) acc += x0[bc * S + s];
    want_q[bc] = static_cast<float>(acc / S);
    const float v = gq[bc] * (1.0f / static_cast<float>(S));
    for (i64 s = 0; s < S; ++s) want_gx2[bc * S + s] = 0.0f + v;
  }
  EXPECT_TRUE(bitwise_equal(q.value(), want_q)) << "global_avg_pool out";
  EXPECT_TRUE(bitwise_equal(x2.grad(), want_gx2)) << "global_avg_pool x.grad";
}

}  // namespace
}  // namespace legw::ag
