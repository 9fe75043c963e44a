// LSTM layers.
//
// LstmCellLayer holds one layer's weights and runs one step of it: the T = 1
// ag::lstm_layer (or, when use_fused is false, an op-by-op composition of
// the same math — kept for gradient cross-checking). Lstm stacks layers over
// a sequence, one ag::lstm_layer node per layer, with optional inter-layer
// dropout; BiLstmLayer runs one layer in both directions and concatenates
// (GNMT's first encoder layer).
#pragma once

#include <utility>
#include <vector>

#include "ag/ops.hpp"
#include "nn/module.hpp"

namespace legw::nn {

// State of one LSTM layer for one batch: h and c, each [B, H].
struct LstmState {
  ag::Variable h;
  ag::Variable c;
};

class LstmCellLayer : public Module {
 public:
  LstmCellLayer(i64 input_dim, i64 hidden_dim, core::Rng& rng,
                float forget_bias = 1.0f, bool use_fused = true);

  // One step: x [B, input_dim], state (h, c) each [B, hidden_dim].
  LstmState step(const ag::Variable& x, const LstmState& state) const;

  // Fresh all-zero state for a batch (no gradient flows into it).
  LstmState zero_state(i64 batch) const;

  i64 input_dim() const { return input_dim_; }
  i64 hidden_dim() const { return hidden_dim_; }
  ag::Variable weight() const { return weight_; }
  ag::Variable bias() const { return bias_; }

 private:
  LstmState step_composed(const ag::Variable& x, const LstmState& state) const;

  i64 input_dim_;
  i64 hidden_dim_;
  bool use_fused_;
  ag::Variable weight_;  // [input+hidden, 4*hidden], gate order (i,f,g,o)
  ag::Variable bias_;    // [4*hidden]
};

// Multi-layer unidirectional LSTM over a sequence.
class Lstm : public Module {
 public:
  // dims: input_dim for layer 0, hidden_dim for every layer.
  Lstm(i64 input_dim, i64 hidden_dim, i64 num_layers, core::Rng& rng,
       float dropout = 0.0f);

  struct Output {
    ag::Variable outputs;  // top-layer h of every step, [T*B, H] step-major
    std::vector<LstmState> final_states;  // one per layer
  };

  // inputs: one [B, input_dim] Variable per time step. initial may be empty
  // (zero state). `rng` drives dropout masks (only touched in training mode).
  Output forward(const std::vector<ag::Variable>& inputs,
                 const std::vector<LstmState>& initial, core::Rng& rng) const;

  std::vector<LstmState> zero_state(i64 batch) const;

  i64 num_layers() const { return static_cast<i64>(layers_.size()); }
  i64 hidden_dim() const { return hidden_dim_; }
  const LstmCellLayer& layer(i64 i) const { return *layers_[static_cast<std::size_t>(i)]; }

 private:
  i64 hidden_dim_;
  float dropout_;
  std::vector<std::unique_ptr<LstmCellLayer>> layers_;
};

// Single bidirectional layer: concatenated forward/backward outputs, each
// step yields [B, 2*hidden_dim].
class BiLstmLayer : public Module {
 public:
  BiLstmLayer(i64 input_dim, i64 hidden_dim, core::Rng& rng);

  std::vector<ag::Variable> forward(const std::vector<ag::Variable>& inputs) const;

  i64 hidden_dim() const { return fwd_->hidden_dim(); }

 private:
  std::unique_ptr<LstmCellLayer> fwd_;
  std::unique_ptr<LstmCellLayer> bwd_;
};

}  // namespace legw::nn
