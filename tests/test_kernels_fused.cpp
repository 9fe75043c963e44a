// Fused LSTM kernel coverage: gradcheck through ag::gradcheck,
// fused-vs-composed equivalence including saturated-gate inputs, direct
// scalar cross-checks of the core::lstm_cell_forward/backward kernels, and
// the T-step layer node against a chain of one-step nodes, bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "ag/gradcheck.hpp"
#include "ag/ops.hpp"
#include "core/kernels.hpp"
#include "nn/lstm.hpp"

namespace legw::ag {
namespace {

using core::Rng;
using core::Tensor;

struct CellSetup {
  Variable x, h, c, w, b;
};

CellSetup make_cell(i64 batch, i64 in, i64 hidden, u64 seed, float x_scale) {
  Rng rng(seed);
  CellSetup s;
  s.x = Variable::leaf(Tensor::randn({batch, in}, rng, x_scale), true);
  s.h = Variable::leaf(Tensor::randn({batch, hidden}, rng, 0.5f), true);
  s.c = Variable::leaf(Tensor::randn({batch, hidden}, rng, 0.5f), true);
  s.w = Variable::leaf(Tensor::randn({in + hidden, 4 * hidden}, rng, 0.3f),
                       true);
  s.b = Variable::leaf(Tensor::randn({4 * hidden}, rng, 0.3f), true);
  return s;
}

Variable composed_cell(const CellSetup& s, i64 hidden) {
  Variable xh = concat_cols({s.x, s.h});
  Variable z = add_bias(matmul(xh, s.w), s.b);
  Variable gi = sigmoid(slice_cols(z, 0, hidden));
  Variable gf = sigmoid(slice_cols(z, hidden, 2 * hidden));
  Variable gg = tanh(slice_cols(z, 2 * hidden, 3 * hidden));
  Variable go = sigmoid(slice_cols(z, 3 * hidden, 4 * hidden));
  Variable c_new = add(mul(gf, s.c), mul(gi, gg));
  Variable h_new = mul(go, tanh(c_new));
  return concat_cols({h_new, c_new});
}

TEST(FusedLstmKernel, GradCheckNormalRegime) {
  const i64 B = 3, I = 4, H = 5;
  CellSetup s = make_cell(B, I, H, 1001, 0.5f);
  auto r = grad_check(
      [&] {
        Variable hc = lstm_layer(s.x, s.h, s.c, s.w, s.b);
        return sum_all(mul(hc, hc));
      },
      {s.x, s.h, s.c, s.w, s.b});
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FusedLstmKernel, GradCheckSaturatedGates) {
  // |x| > 10 drives the sigmoid/tanh gates deep into saturation where the
  // analytic derivative is ~0; finite differences must agree there too (a
  // wrong saturation branch shows up as an O(1) mismatch).
  const i64 B = 2, I = 3, H = 3;
  CellSetup s = make_cell(B, I, H, 2002, 0.5f);
  for (i64 i = 0; i < s.x.numel(); ++i) {
    s.x.mutable_value()[i] = s.x.value()[i] >= 0.0f ? 12.0f : -12.0f;
  }
  auto r = grad_check(
      [&] {
        Variable hc = lstm_layer(s.x, s.h, s.c, s.w, s.b);
        return sum_all(mul(hc, hc));
      },
      {s.h, s.c, s.w, s.b});
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FusedLstmKernel, FusedMatchesComposedSaturated) {
  // Forward and backward equivalence against the op-composed path on inputs
  // with |x| > 10 (saturated gates) mixed into a normal batch.
  const i64 B = 4, I = 5, H = 6;
  CellSetup s = make_cell(B, I, H, 3003, 0.5f);
  // Saturate half the batch.
  for (i64 r = 0; r < B / 2; ++r) {
    for (i64 j = 0; j < I; ++j) {
      float& v = s.x.mutable_value().at(r, j);
      v = v >= 0.0f ? 15.0f : -15.0f;
    }
  }
  Variable fused = lstm_layer(s.x, s.h, s.c, s.w, s.b);
  Variable ref = composed_cell(s, H);
  ASSERT_TRUE(fused.value().same_shape(ref.value()));
  for (i64 i = 0; i < fused.numel(); ++i) {
    EXPECT_NEAR(fused.value()[i], ref.value()[i], 1e-6f) << "elem " << i;
  }

  backward(sum_all(mul(fused, fused)));
  std::vector<Tensor> fused_grads = {s.x.grad(), s.h.grad(), s.c.grad(),
                                     s.w.grad(), s.b.grad()};
  for (Variable* v : {&s.x, &s.h, &s.c, &s.w, &s.b}) v->zero_grad();
  Variable ref2 = composed_cell(s, H);
  backward(sum_all(mul(ref2, ref2)));
  std::vector<Tensor> ref_grads = {s.x.grad(), s.h.grad(), s.c.grad(),
                                   s.w.grad(), s.b.grad()};
  for (std::size_t p = 0; p < fused_grads.size(); ++p) {
    for (i64 i = 0; i < fused_grads[p].numel(); ++i) {
      EXPECT_NEAR(fused_grads[p][i], ref_grads[p][i], 2e-4f)
          << "param " << p << " elem " << i;
    }
  }
}

TEST(FusedLstmKernel, ForwardKernelMatchesScalarReference) {
  // Direct check of core::lstm_cell_forward against a straightforward scalar
  // transcription of the cell equations.
  const i64 B = 5, H = 7;
  Rng rng(4004);
  std::vector<float> z(static_cast<std::size_t>(B * 4 * H));
  std::vector<float> bias(static_cast<std::size_t>(4 * H));
  std::vector<float> c_prev(static_cast<std::size_t>(B * H));
  for (auto& v : z) v = static_cast<float>(rng.uniform(-3.0, 3.0));
  for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : c_prev) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<float> acts = z;
  std::vector<float> out(static_cast<std::size_t>(B * 2 * H));
  std::vector<float> tanh_c(static_cast<std::size_t>(B * H));
  core::lstm_cell_forward(B, H, bias.data(), acts.data(), c_prev.data(),
                          out.data(), tanh_c.data());

  auto sigmoid = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };
  for (i64 r = 0; r < B; ++r) {
    for (i64 j = 0; j < H; ++j) {
      const std::size_t zi = static_cast<std::size_t>(r * 4 * H + j);
      const float gi = sigmoid(z[zi] + bias[static_cast<std::size_t>(j)]);
      const float gf = sigmoid(z[zi + H] + bias[static_cast<std::size_t>(H + j)]);
      const float gg = std::tanh(z[zi + 2 * H] +
                                 bias[static_cast<std::size_t>(2 * H + j)]);
      const float go = sigmoid(z[zi + 3 * H] +
                               bias[static_cast<std::size_t>(3 * H + j)]);
      const float cn = gf * c_prev[static_cast<std::size_t>(r * H + j)] + gi * gg;
      EXPECT_NEAR(acts[zi], gi, 1e-6f);
      EXPECT_NEAR(acts[zi + H], gf, 1e-6f);
      EXPECT_NEAR(acts[zi + 2 * H], gg, 1e-6f);
      EXPECT_NEAR(acts[zi + 3 * H], go, 1e-6f);
      EXPECT_NEAR(out[static_cast<std::size_t>(r * 2 * H + j)],
                  go * std::tanh(cn), 1e-6f);
      EXPECT_NEAR(out[static_cast<std::size_t>(r * 2 * H + H + j)], cn, 1e-6f);
      EXPECT_NEAR(tanh_c[static_cast<std::size_t>(r * H + j)], std::tanh(cn),
                  1e-6f);
    }
  }
}

TEST(FusedLstmKernel, LayerEquivalenceSaturated) {
  // nn-level: a fused and a composed LstmCellLayer with identical parameters
  // must agree on saturated inputs.
  const i64 B = 4, I = 5, H = 6;
  Rng rng_a(55), rng_b(55);
  nn::LstmCellLayer fused(I, H, rng_a, 1.0f, /*use_fused=*/true);
  nn::LstmCellLayer composed(I, H, rng_b, 1.0f, /*use_fused=*/false);

  Rng xr(9);
  Tensor x = Tensor::randn({B, I}, xr);
  for (i64 i = 0; i < x.numel(); ++i) x[i] = x[i] >= 0.0f ? 11.0f : -11.0f;
  nn::LstmState sf = fused.step(Variable::constant(x), fused.zero_state(B));
  nn::LstmState sc =
      composed.step(Variable::constant(x), composed.zero_state(B));
  for (i64 i = 0; i < sf.h.numel(); ++i) {
    EXPECT_NEAR(sf.h.value()[i], sc.h.value()[i], 1e-6f);
    EXPECT_NEAR(sf.c.value()[i], sc.c.value()[i], 1e-6f);
  }
}

// ---- the T-step layer node ---------------------------------------------------

void expect_bitwise(const Tensor& want, const Tensor& got, const char* what) {
  ASSERT_TRUE(want.same_shape(got)) << what;
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                           static_cast<std::size_t>(want.numel()) * sizeof(float)))
      << what << " differs bitwise";
}

TEST(LstmLayer, MatchesCellChainBitwise) {
  // One T-step lstm_layer node against T one-step nodes chained through
  // slice_cols, the graph the layer node replaced: every step's h, the final
  // (h, c), and the gradients of x, h0, c0, W and b must agree bit for bit.
  // The last shape has I+H > 256 (two KC panels) and 4H > 960 (two NC
  // column blocks of the packed weight).
  struct Shape {
    i64 steps, batch, in, hidden;
  };
  for (const Shape sh : {Shape{1, 8, 5, 6}, Shape{2, 1, 5, 6},
                         Shape{10, 8, 48, 48}, Shape{28, 13, 7, 9},
                         Shape{10, 1, 16, 32}, Shape{2, 13, 60, 250}}) {
    const i64 T = sh.steps, B = sh.batch, H = sh.hidden;
    SCOPED_TRACE(testing::Message() << "T=" << T << " B=" << B
                                    << " I=" << sh.in << " H=" << H);
    Rng rng(static_cast<u64>(7 * T + B + H));
    std::vector<Variable> xs;
    for (i64 t = 0; t < T; ++t)
      xs.push_back(Variable::leaf(Tensor::randn({B, sh.in}, rng, 0.5f), true));
    Variable h0 = Variable::leaf(Tensor::randn({B, H}, rng, 0.5f), true);
    Variable c0 = Variable::leaf(Tensor::randn({B, H}, rng, 0.5f), true);
    Variable w =
        Variable::leaf(Tensor::randn({sh.in + H, 4 * H}, rng, 0.3f), true);
    Variable b = Variable::leaf(Tensor::randn({4 * H}, rng, 0.3f), true);
    // Upstream weights on every step's h and on the final c.
    const Variable up_h = Variable::constant(Tensor::randn({T * B, H}, rng));
    const Variable up_c = Variable::constant(Tensor::randn({B, H}, rng));
    std::vector<Variable> leaves = xs;
    for (const Variable& v : {h0, c0, w, b}) leaves.push_back(v);

    const auto grads = [&](const Variable& loss) {
      for (Variable& v : leaves) v.zero_grad();
      backward(loss);
      std::vector<Tensor> g;
      for (const Variable& v : leaves) g.push_back(v.grad());
      return g;
    };

    Variable hc = lstm_layer(concat_rows(xs), h0, c0, w, b);
    Variable layer_hs = slice_cols(hc, 0, H);
    Variable layer_c = slice(hc, (T - 1) * B, T * B, H, 2 * H);
    const std::vector<Tensor> layer_grads =
        grads(add(sum_all(mul(layer_hs, up_h)), sum_all(mul(layer_c, up_c))));

    Variable h = h0, c = c0;
    std::vector<Variable> hs;
    for (i64 t = 0; t < T; ++t) {
      Variable step = lstm_layer(xs[static_cast<std::size_t>(t)], h, c, w, b);
      h = slice_cols(step, 0, H);
      c = slice_cols(step, H, 2 * H);
      hs.push_back(h);
    }
    Variable chain_hs = concat_rows(hs);
    const std::vector<Tensor> chain_grads =
        grads(add(sum_all(mul(chain_hs, up_h)), sum_all(mul(c, up_c))));

    expect_bitwise(chain_hs.value(), layer_hs.value(), "h per step");
    expect_bitwise(h.value(), slice(hc, (T - 1) * B, T * B, 0, H).value(),
                   "final h");
    expect_bitwise(c.value(), layer_c.value(), "final c");
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const std::string what = i < xs.size() ? "dx_" + std::to_string(i)
                               : i == xs.size()     ? "dh0"
                               : i == xs.size() + 1 ? "dc0"
                               : i == xs.size() + 2 ? "dW"
                                                    : "db";
      expect_bitwise(chain_grads[i], layer_grads[i], what.c_str());
    }
  }
}

TEST(LstmLayer, GradCheck) {
  // Finite differences through three steps of one node, every input and
  // every step's (h, c) weighted into the loss.
  const i64 T = 3, B = 2, I = 3, H = 3;
  Rng rng(5005);
  Variable x = Variable::leaf(Tensor::randn({T * B, I}, rng, 0.5f), true);
  Variable h = Variable::leaf(Tensor::randn({B, H}, rng, 0.5f), true);
  Variable c = Variable::leaf(Tensor::randn({B, H}, rng, 0.5f), true);
  Variable w = Variable::leaf(Tensor::randn({I + H, 4 * H}, rng, 0.3f), true);
  Variable b = Variable::leaf(Tensor::randn({4 * H}, rng, 0.3f), true);
  const Variable up = Variable::constant(Tensor::randn({T * B, 2 * H}, rng));
  auto r = grad_check(
      [&] { return sum_all(mul(lstm_layer(x, h, c, w, b), up)); },
      {x, h, c, w, b});
  EXPECT_TRUE(r.ok) << r.detail;
}

}  // namespace
}  // namespace legw::ag
