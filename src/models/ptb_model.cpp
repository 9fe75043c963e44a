#include "models/ptb_model.hpp"

#include <cmath>

#include "data/corpus.hpp"

namespace legw::models {

PtbConfig PtbConfig::small(i64 vocab) {
  PtbConfig c;
  c.vocab = vocab;
  c.embed_dim = 128;
  c.hidden_dim = 128;
  c.num_layers = 2;
  c.bptt_len = 20;
  c.dropout = 0.0f;
  return c;
}

PtbConfig PtbConfig::large(i64 vocab) {
  PtbConfig c;
  c.vocab = vocab;
  c.embed_dim = 256;
  c.hidden_dim = 256;
  c.num_layers = 2;
  c.bptt_len = 35;
  c.dropout = 0.15f;
  return c;
}

PtbModel::PtbModel(const PtbConfig& config) : config_(config) {
  core::Rng rng(config.seed);
  embedding_ = std::make_unique<nn::Embedding>(config.vocab, config.embed_dim,
                                               rng);
  lstm_ = std::make_unique<nn::Lstm>(config.embed_dim, config.hidden_dim,
                                     config.num_layers, rng, config.dropout);
  register_child("embedding", embedding_.get());
  register_child("lstm", lstm_.get());
  if (config.tie_embeddings) {
    LEGW_CHECK(config.embed_dim == config.hidden_dim,
               "tie_embeddings requires embed_dim == hidden_dim");
    tied_bias_ = register_parameter("tied_bias",
                                    core::Tensor::zeros({config.vocab}));
  } else {
    decoder_ = std::make_unique<nn::Linear>(config.hidden_dim, config.vocab,
                                            rng);
    register_child("decoder", decoder_.get());
  }
}

PtbModel::CarriedState PtbModel::zero_carried(i64 batch) const {
  CarriedState s;
  for (i64 l = 0; l < config_.num_layers; ++l) {
    s.h.push_back(core::Tensor::zeros({batch, config_.hidden_dim}));
    s.c.push_back(core::Tensor::zeros({batch, config_.hidden_dim}));
  }
  return s;
}

ag::Variable PtbModel::logits(const std::vector<i32>& inputs, i64 batch,
                              i64 bptt, const CarriedState& carried,
                              core::Rng& dropout_rng,
                              CarriedState* final_state) const {
  // Initial states from the carried tensors (constants: truncated BPTT).
  std::vector<nn::LstmState> init;
  for (std::size_t l = 0; l < carried.h.size(); ++l) {
    init.push_back(nn::LstmState{ag::Variable::constant(carried.h[l]),
                                 ag::Variable::constant(carried.c[l])});
  }

  // Per-step token columns.
  std::vector<ag::Variable> steps;
  steps.reserve(static_cast<std::size_t>(bptt));
  for (i64 t = 0; t < bptt; ++t) {
    std::vector<i32> column(static_cast<std::size_t>(batch));
    for (i64 b = 0; b < batch; ++b) {
      column[static_cast<std::size_t>(b)] =
          inputs[static_cast<std::size_t>(b * bptt + t)];
    }
    steps.push_back(embedding_->forward(column));
  }

  nn::Lstm::Output out = lstm_->forward(steps, init, dropout_rng);
  for (const auto& s : out.final_states) {
    final_state->h.push_back(s.h.value());  // copies detach from the graph
    final_state->c.push_back(s.c.value());
  }
  // Top-layer outputs are [bptt*batch, H], step-major. Tied softmax shares
  // the embedding matrix: logits = h E^T + b.
  return config_.tie_embeddings
             ? ag::add_bias(ag::matmul(out.outputs, embedding_->weight(),
                                       /*trans_a=*/false, /*trans_b=*/true),
                            tied_bias_)
             : decoder_->forward(out.outputs);
}

PtbModel::ChunkResult PtbModel::chunk_loss(const std::vector<i32>& inputs,
                                           const std::vector<i32>& targets,
                                           i64 batch, i64 bptt,
                                           const CarriedState& carried,
                                           core::Rng& dropout_rng) const {
  LEGW_CHECK(static_cast<i64>(inputs.size()) == batch * bptt &&
                 static_cast<i64>(targets.size()) == batch * bptt,
             "chunk_loss: token counts must be batch*bptt");
  LEGW_CHECK(static_cast<i64>(carried.h.size()) == config_.num_layers,
             "chunk_loss: carried state layer count mismatch");

  ChunkResult result;
  ag::Variable lg =
      logits(inputs, batch, bptt, carried, dropout_rng, &result.carried);
  // Targets aligned step-major, as the logits rows.
  std::vector<i32> aligned(static_cast<std::size_t>(batch * bptt));
  for (i64 t = 0; t < bptt; ++t) {
    for (i64 b = 0; b < batch; ++b) {
      aligned[static_cast<std::size_t>(t * batch + b)] =
          targets[static_cast<std::size_t>(b * bptt + t)];
    }
  }
  result.loss = ag::softmax_cross_entropy(lg, aligned);
  return result;
}

core::Tensor PtbModel::sequence_logits(const std::vector<i32>& tokens) const {
  LEGW_CHECK(!tokens.empty(), "sequence_logits: empty token sequence");
  const bool was_training = is_training();
  const_cast<PtbModel*>(this)->set_training(false);
  core::Rng rng(0);  // eval mode: dropout inactive, rng unused
  CarriedState final_state;
  ag::Variable lg = logits(tokens, 1, static_cast<i64>(tokens.size()),
                           zero_carried(1), rng, &final_state);
  const_cast<PtbModel*>(this)->set_training(was_training);
  return lg.value();  // copies detach from the graph
}

double PtbModel::evaluate_nll(const std::vector<i32>& tokens, i64 batch,
                              i64 bptt) const {
  data::BpttBatcher batcher(tokens, batch, bptt);
  CarriedState carried = zero_carried(batch);
  core::Rng rng(0);  // eval mode: dropout inactive, rng unused
  double total = 0.0;
  i64 chunks = 0;
  const bool was_training = is_training();
  const_cast<PtbModel*>(this)->set_training(false);
  for (i64 i = 0; i < batcher.chunks_per_epoch(); ++i) {
    auto chunk = batcher.next_chunk();
    ChunkResult r = chunk_loss(chunk.inputs, chunk.targets, batch, bptt,
                               carried, rng);
    carried = std::move(r.carried);
    total += static_cast<double>(r.loss.value()[0]);
    ++chunks;
  }
  const_cast<PtbModel*>(this)->set_training(was_training);
  return chunks > 0 ? total / chunks : 0.0;
}

}  // namespace legw::models
