// Layer-level tests: module registry, Linear/Embedding, LSTM stacks,
// bidirectional wrapper, attention.
#include <gtest/gtest.h>

#include <cmath>

#include "ag/gradcheck.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/lstm.hpp"

namespace legw::nn {
namespace {

using ag::Variable;
using core::Rng;
using core::Tensor;

TEST(Module, ParameterRegistryAndNames) {
  Rng rng(1);
  Linear lin(3, 4, rng);
  auto params = lin.parameters();
  ASSERT_EQ(params.size(), 2u);  // weight + bias
  EXPECT_EQ(params[0].numel(), 12);
  EXPECT_EQ(params[1].numel(), 4);
  EXPECT_EQ(lin.num_parameters(), 16);

  auto named = lin.named_parameters("layer");
  EXPECT_EQ(named[0].name, "layer.weight");
  EXPECT_EQ(named[1].name, "layer.bias");
}

TEST(Module, ZeroGradClearsAll) {
  Rng rng(2);
  Linear lin(2, 2, rng);
  Variable x = Variable::constant(Tensor::randn({3, 2}, rng));
  ag::backward(ag::sum_all(lin.forward(x)));
  EXPECT_GT(lin.weight().grad().l2_norm(), 0.0f);
  lin.zero_grad();
  EXPECT_EQ(lin.weight().grad().l2_norm(), 0.0f);
}

TEST(Module, TrainingModePropagates) {
  Rng rng(3);
  Lstm lstm(4, 4, 2, rng, 0.5f);
  EXPECT_TRUE(lstm.is_training());
  lstm.set_training(false);
  EXPECT_FALSE(lstm.is_training());
  EXPECT_FALSE(lstm.layer(0).is_training());
}

TEST(Linear, NoBiasVariant) {
  Rng rng(4);
  Linear lin(3, 2, rng, /*bias=*/false);
  EXPECT_EQ(lin.parameters().size(), 1u);
  Variable x = Variable::constant(Tensor::ones({1, 3}));
  Variable y = lin.forward(x);
  float expected = 0.0f;
  for (i64 i = 0; i < 3; ++i) expected += lin.weight().value().at(i, 0);
  EXPECT_NEAR(y.value()[0], expected, 1e-5f);
}

TEST(Linear, GradCheckThroughLayer) {
  Rng rng(5);
  Linear lin(3, 2, rng);
  Variable x = Variable::leaf(Tensor::randn({2, 3}, rng, 0.5f), true);
  std::vector<Variable> leaves = lin.parameters();
  leaves.push_back(x);
  auto r = ag::grad_check(
      [&] {
        Variable y = lin.forward(x);
        return ag::sum_all(ag::mul(y, y));
      },
      leaves);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Embedding, ForwardShapeAndGrad) {
  Rng rng(6);
  Embedding emb(10, 4, rng);
  Variable e = emb.forward({1, 5, 5});
  EXPECT_EQ(e.size(0), 3);
  EXPECT_EQ(e.size(1), 4);
  ag::backward(ag::sum_all(e));
  // Row 5 used twice: its gradient is 2, row 1 once: 1, others 0.
  const Tensor& g = emb.weight().grad();
  EXPECT_EQ(g.at(5, 0), 2.0f);
  EXPECT_EQ(g.at(1, 0), 1.0f);
  EXPECT_EQ(g.at(0, 0), 0.0f);
}

TEST(Lstm, SequenceShapesAndStateChain) {
  Rng rng(7);
  Lstm lstm(3, 5, 2, rng);
  std::vector<Variable> inputs;
  for (int t = 0; t < 4; ++t) {
    inputs.push_back(Variable::constant(Tensor::randn({2, 3}, rng)));
  }
  Rng drng(1);
  auto out = lstm.forward(inputs, {}, drng);
  // Step-major [T*B, H]: step t at rows [2t, 2t+2).
  EXPECT_EQ(out.outputs.size(0), 8);
  EXPECT_EQ(out.outputs.size(1), 5);
  EXPECT_EQ(out.final_states.size(), 2u);
  // The final top-layer h must equal the last step's output rows.
  for (i64 i = 0; i < 2 * 5; ++i) {
    EXPECT_EQ(out.outputs.value()[3 * 2 * 5 + i],
              out.final_states[1].h.value()[i]);
  }
}

TEST(Lstm, CarriedInitialStateChangesOutput) {
  Rng rng(8);
  Lstm lstm(2, 3, 1, rng);
  Rng xr(3);
  Tensor xt = Tensor::randn({1, 2}, xr);
  std::vector<Variable> inputs = {Variable::constant(xt)};
  Rng drng(1);
  auto out_zero = lstm.forward(inputs, lstm.zero_state(1), drng);
  std::vector<LstmState> carried = {
      LstmState{Variable::constant(Tensor::full({1, 3}, 0.8f)),
                Variable::constant(Tensor::full({1, 3}, -0.5f))}};
  auto out_carried = lstm.forward(inputs, carried, drng);
  float diff = 0.0f;
  for (i64 i = 0; i < 3; ++i) {
    diff += std::abs(out_zero.outputs.value()[i] -
                     out_carried.outputs.value()[i]);
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(BiLstm, OutputIsConcatOfDirections) {
  Rng rng(9);
  BiLstmLayer bi(3, 4, rng);
  std::vector<Variable> inputs;
  for (int t = 0; t < 3; ++t) {
    inputs.push_back(Variable::constant(Tensor::randn({2, 3}, rng)));
  }
  auto out = bi.forward(inputs);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].size(1), 8);  // 2 * hidden

  // Reversing the input sequence must swap the role of the two halves at
  // mirrored time steps — sanity: the forward half at t=0 only saw x0, so it
  // matches the forward half computed on the single-step sequence {x0}.
  auto out_single = bi.forward({inputs[0]});
  for (i64 j = 0; j < 4; ++j) {
    EXPECT_NEAR(out[0].value().at(0, j), out_single[0].value().at(0, j), 1e-5f);
  }
}

TEST(Attention, WeightsAreDistribution) {
  Rng rng(10);
  BahdanauAttention attn(4, 4, 4, rng);
  std::vector<Variable> enc;
  for (int t = 0; t < 5; ++t) {
    enc.push_back(Variable::constant(Tensor::randn({3, 4}, rng)));
  }
  auto keys = attn.precompute(enc);
  Variable query = Variable::constant(Tensor::randn({3, 4}, rng));
  auto result = attn.attend(query, keys);
  EXPECT_EQ(result.weights.size(0), 3);
  EXPECT_EQ(result.weights.size(1), 5);
  EXPECT_EQ(result.context.size(1), 4);
  for (i64 b = 0; b < 3; ++b) {
    double sum = 0.0;
    for (i64 t = 0; t < 5; ++t) sum += result.weights.value().at(b, t);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Attention, ContextIsConvexCombination) {
  // With identical encoder states everywhere, the context equals that state
  // regardless of the weights.
  Rng rng(11);
  BahdanauAttention attn(4, 4, 4, rng);
  Tensor state = Tensor::randn({2, 4}, rng);
  std::vector<Variable> enc(3, Variable::constant(state));
  auto keys = attn.precompute(enc);
  Variable query = Variable::constant(Tensor::randn({2, 4}, rng));
  auto result = attn.attend(query, keys);
  for (i64 i = 0; i < state.numel(); ++i) {
    EXPECT_NEAR(result.context.value()[i], state[i], 1e-5f);
  }
}

TEST(Attention, MaskZeroesPaddedWeights) {
  Rng rng(20);
  BahdanauAttention attn(4, 4, 4, rng);
  std::vector<ag::Variable> enc;
  for (int t = 0; t < 4; ++t) {
    enc.push_back(ag::Variable::constant(Tensor::randn({2, 4}, rng)));
  }
  auto keys = attn.precompute(enc);
  ag::Variable query = ag::Variable::constant(Tensor::randn({2, 4}, rng));
  // Row 0 masks positions 2,3; row 1 masks nothing.
  Tensor mask({2, 4}, {1, 1, 0, 0, 1, 1, 1, 1});
  auto result = attn.attend(query, keys, ag::Variable::constant(mask));
  EXPECT_NEAR(result.weights.value().at(0, 2), 0.0f, 1e-6f);
  EXPECT_NEAR(result.weights.value().at(0, 3), 0.0f, 1e-6f);
  double row0 = result.weights.value().at(0, 0) + result.weights.value().at(0, 1);
  EXPECT_NEAR(row0, 1.0, 1e-5);
  // Unmasked row still a full distribution over all 4 positions.
  double row1 = 0.0;
  for (i64 t = 0; t < 4; ++t) row1 += result.weights.value().at(1, t);
  EXPECT_NEAR(row1, 1.0, 1e-5);
}

TEST(Attention, GradFlowsToAllParameters) {
  Rng rng(12);
  BahdanauAttention attn(3, 3, 3, rng);
  std::vector<Variable> enc;
  for (int t = 0; t < 4; ++t) {
    enc.push_back(Variable::constant(Tensor::randn({2, 3}, rng)));
  }
  auto keys = attn.precompute(enc);
  Variable query = Variable::constant(Tensor::randn({2, 3}, rng));
  auto result = attn.attend(query, keys);
  ag::backward(ag::sum_all(ag::mul(result.context, result.context)));
  for (const auto& p : attn.named_parameters("attn")) {
    EXPECT_GT(p.var.grad().l2_norm(), 0.0f) << p.name << " got no gradient";
  }
}

TEST(Attention, GradCheckSmall) {
  Rng rng(13);
  BahdanauAttention attn(2, 2, 2, rng);
  std::vector<Variable> enc;
  for (int t = 0; t < 3; ++t) {
    enc.push_back(Variable::leaf(Tensor::randn({1, 2}, rng, 0.5f), true));
  }
  Variable query = Variable::leaf(Tensor::randn({1, 2}, rng, 0.5f), true);
  std::vector<Variable> leaves = attn.parameters();
  leaves.push_back(query);
  for (auto& e : enc) leaves.push_back(e);
  auto r = ag::grad_check(
      [&] {
        auto keys = attn.precompute(enc);
        auto result = attn.attend(query, keys);
        return ag::sum_all(ag::mul(result.context, result.context));
      },
      leaves);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Init, XavierAndHeScales) {
  Rng rng(14);
  Tensor x = init::xavier_uniform({100, 100}, 100, 100, rng);
  const float limit = std::sqrt(6.0f / 200.0f);
  EXPECT_GE(x.min(), -limit);
  EXPECT_LE(x.max(), limit);
  Tensor h = init::he_normal({64, 64}, 64, rng);
  double var = 0.0;
  for (i64 i = 0; i < h.numel(); ++i) var += static_cast<double>(h[i]) * h[i];
  var /= h.numel();
  EXPECT_NEAR(var, 2.0 / 64.0, 0.01);
}

}  // namespace
}  // namespace legw::nn
