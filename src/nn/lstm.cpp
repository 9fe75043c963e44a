#include "nn/lstm.hpp"

#include <algorithm>

namespace legw::nn {

LstmCellLayer::LstmCellLayer(i64 input_dim, i64 hidden_dim, core::Rng& rng,
                             float forget_bias, bool use_fused)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      use_fused_(use_fused) {
  LEGW_CHECK(input_dim > 0 && hidden_dim > 0, "LstmCellLayer: bad dims");
  weight_ = register_parameter(
      "weight", init::lecun_uniform({input_dim + hidden_dim, 4 * hidden_dim},
                                    input_dim + hidden_dim, rng));
  core::Tensor b = core::Tensor::zeros({4 * hidden_dim});
  // Positive forget-gate bias keeps early gradients flowing through time.
  for (i64 j = hidden_dim; j < 2 * hidden_dim; ++j) b[j] = forget_bias;
  bias_ = register_parameter("bias", std::move(b));
}

LstmState LstmCellLayer::step(const ag::Variable& x,
                              const LstmState& state) const {
  if (!use_fused_) return step_composed(x, state);
  ag::Variable hc = ag::lstm_layer(x, state.h, state.c, weight_, bias_);
  return LstmState{ag::slice_cols(hc, 0, hidden_dim_),
                   ag::slice_cols(hc, hidden_dim_, 2 * hidden_dim_)};
}

LstmState LstmCellLayer::step_composed(const ag::Variable& x,
                                       const LstmState& state) const {
  // Identical math as the fused op, built from primitive ops. Kept as the
  // reference implementation for gradient cross-checks.
  ag::Variable xh = ag::concat_cols({x, state.h});
  ag::Variable z = ag::add_bias(ag::matmul(xh, weight_), bias_);
  const i64 h = hidden_dim_;
  ag::Variable gi = ag::sigmoid(ag::slice_cols(z, 0, h));
  ag::Variable gf = ag::sigmoid(ag::slice_cols(z, h, 2 * h));
  ag::Variable gg = ag::tanh(ag::slice_cols(z, 2 * h, 3 * h));
  ag::Variable go = ag::sigmoid(ag::slice_cols(z, 3 * h, 4 * h));
  ag::Variable c_new = ag::add(ag::mul(gf, state.c), ag::mul(gi, gg));
  ag::Variable h_new = ag::mul(go, ag::tanh(c_new));
  return LstmState{h_new, c_new};
}

LstmState LstmCellLayer::zero_state(i64 batch) const {
  return LstmState{
      ag::Variable::constant(core::Tensor::zeros({batch, hidden_dim_})),
      ag::Variable::constant(core::Tensor::zeros({batch, hidden_dim_}))};
}

Lstm::Lstm(i64 input_dim, i64 hidden_dim, i64 num_layers, core::Rng& rng,
           float dropout)
    : hidden_dim_(hidden_dim), dropout_(dropout) {
  LEGW_CHECK(num_layers >= 1, "Lstm: need at least one layer");
  for (i64 l = 0; l < num_layers; ++l) {
    const i64 in = l == 0 ? input_dim : hidden_dim;
    layers_.push_back(std::make_unique<LstmCellLayer>(in, hidden_dim, rng));
    register_child("layer" + std::to_string(l), layers_.back().get());
  }
}

Lstm::Output Lstm::forward(const std::vector<ag::Variable>& inputs,
                           const std::vector<LstmState>& initial,
                           core::Rng& rng) const {
  LEGW_CHECK(!inputs.empty(), "Lstm::forward: empty input sequence");
  const i64 batch = inputs[0].size(0);
  const i64 rows = batch * static_cast<i64>(inputs.size());
  const i64 H = hidden_dim_;
  std::vector<LstmState> states =
      initial.empty() ? zero_state(batch) : initial;
  LEGW_CHECK(static_cast<i64>(states.size()) == num_layers(),
             "Lstm::forward: one initial state per layer required");

  // Inter-layer dropout (not after the top layer), as in the PTB setup. The
  // masks are drawn in the (step, layer) order of a step-by-step unroll, so
  // the rng stream does not depend on running the layers one at a time.
  std::vector<core::Tensor> masks;
  if (dropout_ > 0.0f && is_training()) {
    masks.assign(layers_.size() - 1, core::Tensor::uninit({rows, H}));
    for (i64 r = 0; r < rows; r += batch)
      for (auto& m : masks) ag::dropout_mask(dropout_, rng, m.data() + r * H, batch * H);
  }

  ag::Variable x = ag::concat_rows(inputs);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    ag::Variable masked;
    ag::Variable hc = ag::lstm_layer(
        x, states[l].h, states[l].c, layers_[l]->weight(), layers_[l]->bias(),
        l < masks.size() ? std::move(masks[l]) : core::Tensor(), &masked);
    states[l] = LstmState{ag::slice(hc, rows - batch, rows, 0, H),
                          ag::slice(hc, rows - batch, rows, H, 2 * H)};
    x = masked.defined() ? masked : ag::slice_cols(hc, 0, H);
  }
  return Output{x, std::move(states)};
}

std::vector<LstmState> Lstm::zero_state(i64 batch) const {
  std::vector<LstmState> states;
  states.reserve(layers_.size());
  for (const auto& layer : layers_) states.push_back(layer->zero_state(batch));
  return states;
}

BiLstmLayer::BiLstmLayer(i64 input_dim, i64 hidden_dim, core::Rng& rng) {
  fwd_ = std::make_unique<LstmCellLayer>(input_dim, hidden_dim, rng);
  bwd_ = std::make_unique<LstmCellLayer>(input_dim, hidden_dim, rng);
  register_child("fwd", fwd_.get());
  register_child("bwd", bwd_.get());
}

std::vector<ag::Variable> BiLstmLayer::forward(
    const std::vector<ag::Variable>& inputs) const {
  LEGW_CHECK(!inputs.empty(), "BiLstmLayer::forward: empty sequence");
  const i64 batch = inputs[0].size(0);
  const std::size_t T = inputs.size();

  std::vector<ag::Variable> fwd_out(T);
  LstmState sf = fwd_->zero_state(batch);
  for (std::size_t t = 0; t < T; ++t) {
    sf = fwd_->step(inputs[t], sf);
    fwd_out[t] = sf.h;
  }
  std::vector<ag::Variable> bwd_out(T);
  LstmState sb = bwd_->zero_state(batch);
  for (std::size_t t = T; t-- > 0;) {
    sb = bwd_->step(inputs[t], sb);
    bwd_out[t] = sb.h;
  }
  std::vector<ag::Variable> out(T);
  for (std::size_t t = 0; t < T; ++t) {
    out[t] = ag::concat_cols({fwd_out[t], bwd_out[t]});
  }
  return out;
}

}  // namespace legw::nn
