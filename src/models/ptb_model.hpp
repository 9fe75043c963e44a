// Word-level LSTM language model (§5.1.2). Two LSTM layers over word
// embeddings with a softmax over the vocabulary, evaluated in perplexity.
// "Small" and "large" configurations mirror the paper's PTB-small/PTB-large
// pair (dimensions scaled to CPU budgets; see DESIGN.md).
#pragma once

#include <memory>

#include "nn/layers.hpp"
#include "nn/lstm.hpp"

namespace legw::models {

struct PtbConfig {
  i64 vocab = 1000;
  i64 embed_dim = 128;
  i64 hidden_dim = 128;
  i64 num_layers = 2;
  i64 bptt_len = 20;
  float dropout = 0.0f;
  // Share the input embedding matrix with the output softmax (requires
  // embed_dim == hidden_dim). Halves the parameter count of the projection.
  bool tie_embeddings = false;
  u64 seed = 17;

  // The paper's PTB-small: embed = hidden = 200, seq 20.
  static PtbConfig small(i64 vocab);
  // The paper's PTB-large: embed = hidden = 1500, seq 35 — scaled to 256/35.
  static PtbConfig large(i64 vocab);
};

class PtbModel : public nn::Module {
 public:
  explicit PtbModel(const PtbConfig& config);

  // Detached recurrent state carried between BPTT chunks (plain tensors so
  // no gradient flows across chunk boundaries).
  struct CarriedState {
    std::vector<core::Tensor> h;  // per layer, [B, H]
    std::vector<core::Tensor> c;
  };
  CarriedState zero_carried(i64 batch) const;

  struct ChunkResult {
    ag::Variable loss;      // mean token cross-entropy
    CarriedState carried;   // detached final states
  };

  // inputs/targets: [batch, bptt] row-major token ids.
  ChunkResult chunk_loss(const std::vector<i32>& inputs,
                         const std::vector<i32>& targets, i64 batch,
                         i64 bptt, const CarriedState& carried,
                         core::Rng& dropout_rng) const;

  // Mean per-token cross-entropy over a token stream (eval mode, no graph
  // kept). Perplexity = exp of the return value.
  double evaluate_nll(const std::vector<i32>& tokens, i64 batch,
                      i64 bptt) const;

  // Per-position vocabulary logits for ONE sequence from a fresh zero state,
  // in eval mode (dropout off): [tokens.size(), vocab]. Runs the same graph
  // as chunk_loss with batch=1 minus the loss — the serving parity suite
  // (tests/test_serve_session.cpp) holds src/serve bitwise equal to this.
  core::Tensor sequence_logits(const std::vector<i32>& tokens) const;

  const PtbConfig& config() const { return config_; }

 private:
  // Logits [bptt*batch, vocab], step-major, of inputs ([batch, bptt] ids)
  // from `carried`; final_state receives the detached final states.
  ag::Variable logits(const std::vector<i32>& inputs, i64 batch, i64 bptt,
                      const CarriedState& carried, core::Rng& dropout_rng,
                      CarriedState* final_state) const;

  PtbConfig config_;
  std::unique_ptr<nn::Embedding> embedding_;
  std::unique_ptr<nn::Lstm> lstm_;
  std::unique_ptr<nn::Linear> decoder_;  // untied variant
  ag::Variable tied_bias_;               // tied variant: bias only
};

}  // namespace legw::models
