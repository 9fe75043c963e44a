// Fused LSTM cell: gradient checks and equivalence against the op-composed
// reference implementation.
#include <gtest/gtest.h>

#include <cmath>

#include "ag/gradcheck.hpp"
#include "ag/ops.hpp"
#include "nn/lstm.hpp"

namespace legw::ag {
namespace {

using core::Rng;
using core::Shape;

struct CellSetup {
  Variable x, h, c, w, b;
};

CellSetup make_cell(i64 batch, i64 in, i64 hidden, u64 seed) {
  Rng rng(seed);
  CellSetup s;
  s.x = Variable::leaf(Tensor::randn({batch, in}, rng, 0.5f), true);
  s.h = Variable::leaf(Tensor::randn({batch, hidden}, rng, 0.5f), true);
  s.c = Variable::leaf(Tensor::randn({batch, hidden}, rng, 0.5f), true);
  s.w = Variable::leaf(Tensor::randn({in + hidden, 4 * hidden}, rng, 0.3f), true);
  s.b = Variable::leaf(Tensor::randn({4 * hidden}, rng, 0.3f), true);
  return s;
}

// Reference: the same math via primitive ops.
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

TEST(LstmCell, ForwardMatchesComposition) {
  const i64 B = 3, I = 4, H = 5;
  CellSetup s = make_cell(B, I, H, 101);
  Variable fused = lstm_layer(s.x, s.h, s.c, s.w, s.b);
  Variable ref = composed_cell(s, H);
  ASSERT_TRUE(fused.value().same_shape(ref.value()));
  for (i64 i = 0; i < fused.numel(); ++i) {
    EXPECT_NEAR(fused.value()[i], ref.value()[i], 1e-5f) << "elem " << i;
  }
}

TEST(LstmCell, BackwardMatchesComposition) {
  const i64 B = 2, I = 3, H = 4;
  CellSetup s = make_cell(B, I, H, 202);
  Rng wrng(7);
  Tensor weights = Tensor::randn({B, 2 * H}, wrng);
  Variable wconst = Variable::constant(weights);

  // Fused gradients.
  backward(sum_all(mul(lstm_layer(s.x, s.h, s.c, s.w, s.b), wconst)));
  std::vector<Tensor> fused_grads = {s.x.grad(), s.h.grad(), s.c.grad(),
                                     s.w.grad(), s.b.grad()};
  for (Variable* v : {&s.x, &s.h, &s.c, &s.w, &s.b}) v->zero_grad();

  // Composed gradients on the same leaves.
  backward(sum_all(mul(composed_cell(s, H), wconst)));
  std::vector<Tensor> ref_grads = {s.x.grad(), s.h.grad(), s.c.grad(),
                                   s.w.grad(), s.b.grad()};

  for (std::size_t p = 0; p < fused_grads.size(); ++p) {
    for (i64 i = 0; i < fused_grads[p].numel(); ++i) {
      EXPECT_NEAR(fused_grads[p][i], ref_grads[p][i], 2e-4f)
          << "param " << p << " elem " << i;
    }
  }
}

TEST(LstmCell, GradCheckAllInputs) {
  const i64 B = 2, I = 3, H = 3;
  CellSetup s = make_cell(B, I, H, 303);
  auto r = grad_check(
      [&] {
        Variable hc = lstm_layer(s.x, s.h, s.c, s.w, s.b);
        return sum_all(mul(hc, hc));
      },
      {s.x, s.h, s.c, s.w, s.b});
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(LstmCell, MultiStepBpttGradCheck) {
  // Three chained steps through one shared weight matrix: checks gradient
  // accumulation through time.
  const i64 B = 2, I = 2, H = 3;
  Rng rng(404);
  Variable w = Variable::leaf(Tensor::randn({I + H, 4 * H}, rng, 0.3f), true);
  Variable b = Variable::leaf(Tensor::randn({4 * H}, rng, 0.2f), true);
  std::vector<Variable> xs;
  for (int t = 0; t < 3; ++t) {
    xs.push_back(Variable::leaf(Tensor::randn({B, I}, rng, 0.5f), true));
  }
  auto run = [&] {
    Variable h = Variable::constant(Tensor::zeros({B, H}));
    Variable c = Variable::constant(Tensor::zeros({B, H}));
    for (int t = 0; t < 3; ++t) {
      Variable hc = lstm_layer(xs[static_cast<std::size_t>(t)], h, c, w, b);
      h = slice_cols(hc, 0, H);
      c = slice_cols(hc, H, 2 * H);
    }
    return sum_all(mul(h, h));
  };
  auto r = grad_check(run, {w, b, xs[0], xs[1], xs[2]});
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(LstmCellLayer, FusedAndComposedLayersAgree) {
  // The nn-level wrapper with use_fused on/off must produce identical
  // forward values given identical parameter initialisation.
  const i64 B = 4, I = 5, H = 6;
  Rng rng_a(55), rng_b(55);
  nn::LstmCellLayer fused(I, H, rng_a, 1.0f, /*use_fused=*/true);
  nn::LstmCellLayer composed(I, H, rng_b, 1.0f, /*use_fused=*/false);

  Rng xr(9);
  Tensor x = Tensor::randn({B, I}, xr);
  nn::LstmState sf = fused.step(Variable::constant(x), fused.zero_state(B));
  nn::LstmState sc =
      composed.step(Variable::constant(x), composed.zero_state(B));
  for (i64 i = 0; i < sf.h.numel(); ++i) {
    EXPECT_NEAR(sf.h.value()[i], sc.h.value()[i], 1e-5f);
    EXPECT_NEAR(sf.c.value()[i], sc.c.value()[i], 1e-5f);
  }
}

TEST(LstmCellLayer, ForgetBiasApplied) {
  Rng rng(66);
  nn::LstmCellLayer layer(2, 3, rng, 1.5f);
  const Tensor& b = layer.bias().value();
  for (i64 j = 0; j < 3; ++j) EXPECT_EQ(b[j], 0.0f);             // i
  for (i64 j = 3; j < 6; ++j) EXPECT_EQ(b[j], 1.5f);             // f
  for (i64 j = 6; j < 12; ++j) EXPECT_EQ(b[j], 0.0f);            // g, o
}

TEST(LstmCell, StateSaturationBounded) {
  // h is bounded by tanh and the output gate: |h| < 1 always.
  const i64 B = 4, I = 4, H = 4;
  CellSetup s = make_cell(B, I, H, 505);
  // Feed extreme inputs.
  s.x.mutable_value().fill_(100.0f);
  Variable hc = lstm_layer(s.x, s.h, s.c, s.w, s.b);
  for (i64 i = 0; i < B; ++i) {
    for (i64 j = 0; j < H; ++j) {
      EXPECT_LT(std::abs(hc.value().at(i, j)), 1.0f + 1e-5f);
    }
  }
}

}  // namespace
}  // namespace legw::ag
