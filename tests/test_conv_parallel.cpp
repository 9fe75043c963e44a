// Batch-parallel conv2d / batch_norm2d / pooling backward against serial
// oracles. The oracles are the per-sample loops the ops ran before they were
// spread over the thread pool: conv2d's weight gradient accumulated with one
// beta = 1 GEMM per sample, every channel reduction in sample order. The
// lowering oracles check conv2d against a bounds-checked element-by-element
// im2col/col2im over kernel, padding and stride shapes whose taps read whole
// rows and columns of padding; the elementwise tests check relu, add and
// large fills, split over the pool, against their serial loops. Lives in
// the kernel-test binary (every LEGW_KERNEL/LEGW_NUM_THREADS registration and
// the ASan/UBSan preset) and in the concurrency binary (the TSan preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <vector>

#include "ag/ops.hpp"
#include "core/kernels.hpp"
#include "core/rng.hpp"
#include "core/storage.hpp"
#include "core/tensor.hpp"
#include "core/thread_pool.hpp"

namespace legw::ag {
namespace {

using core::Rng;

void im2col_ref(const float* x, i64 C, i64 H, i64 W, i64 kh, i64 kw,
                i64 stride, i64 pad, i64 Ho, i64 Wo, float* col) {
  for (i64 c = 0; c < C; ++c)
    for (i64 ki = 0; ki < kh; ++ki)
      for (i64 kj = 0; kj < kw; ++kj) {
        float* dst = col + ((c * kh + ki) * kw + kj) * Ho * Wo;
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

void col2im_ref(const float* col, i64 C, i64 H, i64 W, i64 kh, i64 kw,
                i64 stride, i64 pad, i64 Ho, i64 Wo, float* x) {
  for (i64 c = 0; c < C; ++c)
    for (i64 ki = 0; ki < kh; ++ki)
      for (i64 kj = 0; kj < kw; ++kj) {
        const float* src = col + ((c * kh + ki) * kw + kj) * Ho * Wo;
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
  const i64 Cout = w.size(0), kh = w.size(2), kw = w.size(3);
  const i64 Ho = g.size(2), Wo = g.size(3);
  const i64 rows = C * kh * kw, cols = Ho * Wo;
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
    im2col_ref(x.data() + b * C * H * W, C, H, W, kh, kw, stride, pad, Ho,
               Wo, col.data());
    core::gemm(false, true, Cout, rows, cols, 1.0f, gs, cols, col.data(),
               cols, 1.0f, out.gw.data(), rows);
    core::gemm(true, false, rows, cols, Cout, 1.0f, w.data(), rows, gs, cols,
               0.0f, dcol.data(), cols);
    col2im_ref(dcol.data(), C, H, W, kh, kw, stride, pad, Ho, Wo,
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

// ---- lowering oracles -------------------------------------------------------
// Shapes beyond the 3x3 / 16x16 sweep above: 1x1, 5x5 and non-square
// kernels, padding up to 2 (so some taps, and with k = 1 whole output rows
// and columns, read only padding), strides 1 to 3, H != W, Wo = 1, and
// kernels wider than the padded-away image, whose edge taps read no input.

struct LoweringShape {
  i64 C, Cout, H, W, kh, kw, stride, pad;
};

void PrintTo(const LoweringShape& s, std::ostream* os) {
  *os << "C" << s.C << "_" << s.H << "x" << s.W << "_k" << s.kh << "x" << s.kw
      << "_stride" << s.stride << "_pad" << s.pad;
}

// The forward the op must reproduce bit for bit: per sample, the
// bounds-checked im2col, one beta = 0 GEMM, then the bias added per element.
Tensor conv_forward_oracle(const Tensor& x, const Tensor& w,
                           const Tensor& bias, i64 stride, i64 pad) {
  const i64 B = x.size(0), C = x.size(1), H = x.size(2), W = x.size(3);
  const i64 Cout = w.size(0), kh = w.size(2), kw = w.size(3);
  const i64 Ho = (H + 2 * pad - kh) / stride + 1;
  const i64 Wo = (W + 2 * pad - kw) / stride + 1;
  const i64 rows = C * kh * kw, cols = Ho * Wo;
  Tensor out({B, Cout, Ho, Wo});
  std::vector<float> col(static_cast<std::size_t>(rows * cols));
  for (i64 b = 0; b < B; ++b) {
    im2col_ref(x.data() + b * C * H * W, C, H, W, kh, kw, stride, pad, Ho, Wo,
               col.data());
    float* ob = out.data() + b * Cout * cols;
    core::gemm(false, false, Cout, cols, rows, 1.0f, w.data(), rows,
               col.data(), cols, 0.0f, ob, cols);
    for (i64 co = 0; co < Cout; ++co)
      for (i64 s = 0; s < cols; ++s) ob[co * cols + s] += bias[co];
  }
  return out;
}

struct LoweringCase {
  Tensor x, w, bias;
  i64 Ho, Wo;
};

LoweringCase lowering_case(const LoweringShape& s, i64 batch) {
  Rng rng(static_cast<u64>(1000 + s.H * 31 + s.W * 7 + s.kh * 5 + s.kw * 3 +
                           s.stride * 11 + s.pad));
  LoweringCase lc{Tensor::randn({batch, s.C, s.H, s.W}, rng),
                  Tensor::randn({s.Cout, s.C, s.kh, s.kw}, rng, 0.3f),
                  Tensor::randn({s.Cout}, rng, 0.2f),
                  (s.H + 2 * s.pad - s.kh) / s.stride + 1,
                  (s.W + 2 * s.pad - s.kw) / s.stride + 1};
  return lc;
}

class ConvForwardOracle : public ::testing::TestWithParam<LoweringShape> {};

TEST_P(ConvForwardOracle, BitwiseEqualToIm2colGemm) {
  const LoweringShape s = GetParam();
  const LoweringCase lc = lowering_case(s, 3);
  ASSERT_GE(lc.Ho, 1);
  ASSERT_GE(lc.Wo, 1);
  const Tensor want = conv_forward_oracle(lc.x, lc.w, lc.bias, s.stride, s.pad);
  const Variable y =
      conv2d(Variable::constant(lc.x), Variable::constant(lc.w),
             Variable::constant(lc.bias), s.stride, s.pad);
  EXPECT_TRUE(bitwise_equal(y.value(), want));
}

// The same shapes through backward: col2im's per-element sums against the
// bounds-checked loop, and dW against the serial beta = 1 GEMM (every shape
// here keeps Ho*Wo within one depth panel).
class ConvBackwardLowering : public ::testing::TestWithParam<LoweringShape> {};

TEST_P(ConvBackwardLowering, BitwiseEqualToSerialLoop) {
  const LoweringShape s = GetParam();
  const LoweringCase lc = lowering_case(s, 3);
  ASSERT_LE(lc.Ho * lc.Wo, 256);
  Rng rng(static_cast<u64>(7 + s.H + s.W));
  const Tensor g = Tensor::randn({3, s.Cout, lc.Ho, lc.Wo}, rng);
  const ConvGrads want = conv_backward_oracle(lc.x, lc.w, g, s.stride, s.pad);
  const ConvGrads got =
      conv_backward_op(lc.x, lc.w, lc.bias, g, s.stride, s.pad);
  EXPECT_TRUE(bitwise_equal(got.gx, want.gx)) << "x.grad";
  EXPECT_TRUE(bitwise_equal(got.gw, want.gw)) << "w.grad";
  EXPECT_TRUE(bitwise_equal(got.gb, want.gb)) << "bias.grad";
}

const LoweringShape kLoweringShapes[] = {
    // 1x1: with pad 1 or 2 the border output rows and columns read only
    // padding (they hold just the bias).
    {3, 4, 5, 7, 1, 1, 1, 0},
    {3, 4, 6, 5, 1, 1, 2, 0},
    {2, 3, 5, 4, 1, 1, 1, 1},
    {2, 3, 4, 6, 1, 1, 1, 2},
    {2, 3, 2, 3, 1, 1, 3, 2},
    // 3x3 off the 16x16 sweep.
    {3, 5, 7, 5, 3, 3, 1, 1},
    {2, 4, 9, 6, 3, 3, 1, 2},
    {2, 4, 9, 7, 3, 3, 2, 2},
    {2, 4, 11, 8, 3, 3, 3, 1},
    // 5x5.
    {2, 3, 9, 6, 5, 5, 1, 2},
    {2, 3, 11, 8, 5, 5, 3, 1},
    {2, 3, 7, 10, 5, 5, 2, 0},
    // Non-square kernels.
    {2, 4, 8, 10, 3, 5, 2, 1},
    {2, 3, 9, 4, 5, 1, 1, 2},
    {2, 3, 6, 9, 1, 3, 3, 0},
    // Wo = 1.
    {2, 3, 10, 4, 3, 3, 3, 0},
    {2, 3, 6, 1, 3, 3, 1, 1},
    {2, 3, 7, 3, 3, 5, 1, 1},
    // Kernel wider than the image: edge taps read no input at all.
    {2, 3, 2, 2, 5, 5, 1, 2},
    {2, 3, 3, 2, 5, 5, 2, 2},
};

INSTANTIATE_TEST_SUITE_P(Shapes, ConvForwardOracle,
                         ::testing::ValuesIn(kLoweringShapes));
INSTANTIATE_TEST_SUITE_P(Shapes, ConvBackwardLowering,
                         ::testing::ValuesIn(kLoweringShapes));

// ---- elementwise ops on the pool -------------------------------------------
// relu and add split their elements over the pool above one grain
// (core::grain_for(1)). Sizes below, at and above the grain, against the
// serial kernels; the .blocked-mt4 registration runs them on a 4-thread pool.

const i64 kElemGrain = core::grain_for(1);
const i64 kElemSizes[] = {kElemGrain - 1, kElemGrain, kElemGrain + 1,
                          4 * kElemGrain + 3};

// Random values with exact zeros and negative zeros mixed in, so relu's
// boundary takes both branches.
Tensor elem_input(i64 n, Rng& rng) {
  Tensor t = Tensor::randn({n}, rng);
  for (i64 i = 0; i < n; i += 7) t[i] = (i % 2 == 0) ? 0.0f : -0.0f;
  return t;
}

TEST(ElementwisePool, ReluMatchesSerialKernels) {
  for (const i64 n : kElemSizes) {
    Rng rng(static_cast<u64>(n));
    const Tensor x0 = elem_input(n, rng);
    const Tensor g = Tensor::randn({n}, rng);
    const Tensor prior = Tensor::randn({n}, rng);
    Tensor want_y({n});
    core::relu_forward(x0.data(), want_y.data(), n);
    Tensor want_gx = prior;
    core::relu_backward(x0.data(), g.data(), want_gx.data(), n);

    Variable x = Variable::leaf(x0, true);
    x.mutable_grad() = prior;  // backward accumulates onto it
    const Variable y = relu(x);
    backward(y, &g);
    EXPECT_TRUE(bitwise_equal(y.value(), want_y)) << "relu out, n=" << n;
    EXPECT_TRUE(bitwise_equal(x.grad(), want_gx)) << "relu x.grad, n=" << n;
  }
}

TEST(ElementwisePool, AddMatchesSerialLoops) {
  for (const i64 n : kElemSizes) {
    Rng rng(static_cast<u64>(n + 1));
    const Tensor a0 = elem_input(n, rng);
    const Tensor b0 = Tensor::randn({n}, rng);
    const Tensor g = Tensor::randn({n}, rng);
    const Tensor prior = Tensor::randn({n}, rng);
    Tensor want_y({n}), want_ga = prior, want_gb = Tensor::zeros({n});
    Tensor want_gxx = prior;
    for (i64 i = 0; i < n; ++i) {
      want_y[i] = a0[i] + b0[i];
      want_ga[i] += g[i];
      want_gb[i] += g[i];
      want_gxx[i] += g[i];
      want_gxx[i] += g[i];
    }

    Variable a = Variable::leaf(a0, true);
    Variable b = Variable::leaf(b0, true);
    a.mutable_grad() = prior;
    const Variable y = add(a, b);
    backward(y, &g);
    EXPECT_TRUE(bitwise_equal(y.value(), want_y)) << "add out, n=" << n;
    EXPECT_TRUE(bitwise_equal(a.grad(), want_ga)) << "add a.grad, n=" << n;
    EXPECT_TRUE(bitwise_equal(b.grad(), want_gb)) << "add b.grad, n=" << n;

    // add(x, x): one buffer takes the gradient twice, in parent order.
    Variable xx = Variable::leaf(a0, true);
    xx.mutable_grad() = prior;
    backward(add(xx, xx), &g);
    EXPECT_TRUE(bitwise_equal(xx.grad(), want_gxx)) << "add(x, x), n=" << n;

    // Only one side needs a gradient.
    Variable c = Variable::leaf(a0, false);
    Variable d = Variable::leaf(b0, true);
    backward(add(c, d), &g);
    EXPECT_TRUE(bitwise_equal(d.grad(), want_gb)) << "add d.grad, n=" << n;
  }
}

// Above the grain, on a pool of more than one thread, the ops really split.
TEST(ElementwisePool, LargeRangesUseThePool) {
  core::ThreadPool& pool = core::ThreadPool::global();
  if (pool.size() < 2) GTEST_SKIP() << "one-thread pool";
  Rng rng(3);
  const i64 n = 4 * kElemGrain + 3;
  Variable a = Variable::leaf(Tensor::randn({n}, rng), true);
  const Tensor g = Tensor::randn({n}, rng);
  const i64 before = pool.stats().submissions;
  backward(relu(add(a, a)), &g);
  // relu and add forward, relu and add backward.
  EXPECT_GE(pool.stats().submissions - before, 4);
}

// Fills above the elementwise grain go to the pool; smaller ones stay
// inline. Either way every element holds the fill value.
TEST(ElementwisePool, FillsWriteEveryElement) {
  for (const i64 n : {kElemGrain - 1, kElemGrain, 4 * kElemGrain + 5}) {
    const core::FloatStorage s(n, 1.5f);
    EXPECT_EQ(std::count(s.begin(), s.end(), 1.5f), n) << "n=" << n;
    const Tensor z({n});
    EXPECT_EQ(std::count(z.data(), z.data() + n, 0.0f), n) << "n=" << n;
  }
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
