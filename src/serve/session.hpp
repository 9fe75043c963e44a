// ServeSession: a checkpoint loaded into an immutable compiled inference
// plan, in the spirit of ONNX Runtime's ort_session.h (ROADMAP item 2).
//
// No tape: the forwards below are raw core::Tensor kernel calls replicating
// the training graph's op order *exactly* — same xh concatenation, same
// core::matmul, same fused core::lstm_cell_forward, same per-row bias add —
// so a served forward is bitwise equal to the training graph's eval forward
// for the same checkpoint. Combined with the gemm determinism contract
// (every output row is reduced by one thread in ascending-k order, so a
// row's value is independent of which other rows share its batch), each
// request's result is also bitwise-invariant under dynamic batching: padding
// rows, padding sequence positions, and batch composition cannot perturb it.
// tests/test_serve_session.cpp proves both properties on mnist and ptb.
//
// Dropout is inference-mode by construction (there is simply no dropout op
// here), matching nn::Module::set_training(false) on the training side.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/tensor.hpp"
#include "serve/container.hpp"

namespace legw::serve {

enum class ModelKind {
  kMnistLstm,  // models::MnistLstm checkpoints: [784] pixels -> [10] logits
  kPtbLm,      // models::PtbModel checkpoints: token ids -> per-position
               // vocabulary logits, fresh zero state per request
};

struct MnistPlanConfig {
  i64 transform_dim = 128;
  i64 hidden_dim = 128;
  i64 n_rows = 28;
  i64 n_cols = 28;
  i64 n_classes = 10;
};

struct PtbPlanConfig {
  i64 vocab = 1000;
  i64 embed_dim = 128;
  i64 hidden_dim = 128;
  i64 num_layers = 2;
  bool tie_embeddings = false;
};

struct SessionConfig {
  ModelKind kind = ModelKind::kMnistLstm;
  MnistPlanConfig mnist;  // read when kind == kMnistLstm
  PtbPlanConfig ptb;      // read when kind == kPtbLm
};

// One inference request. kMnistLstm reads `features` ([rows*cols] pixels);
// kPtbLm reads `tokens` (a non-empty id sequence, each in [0, vocab)).
struct Request {
  u64 id = 0;  // caller's correlation id, echoed on the response
  std::vector<float> features;
  std::vector<i32> tokens;
};

struct Response {
  u64 id = 0;
  Status status = Status::kOk;
  std::string message;      // non-empty on failure
  core::Tensor logits;      // mnist: [n_classes]; ptb: [tokens, vocab]
  i64 enqueue_ns = 0;       // broker timestamps (steady clock); latency =
  i64 done_ns = 0;          // done_ns - enqueue_ns. Zero on direct run().
};

class ServeSession {
 public:
  // Loads and schema-validates `ckpt_path` against `config`. On failure the
  // session pointer is left null and the Result says why (structured Status,
  // never an abort). The returned session is immutable and safe to share
  // across broker worker threads.
  [[nodiscard]] static Result load(const SessionConfig& config,
                                   const std::string& ckpt_path,
                                   std::unique_ptr<ServeSession>* out);
  // Same, over in-memory container bytes (tests).
  [[nodiscard]] static Result load_bytes(const SessionConfig& config,
                                         const std::string& image,
                                         std::unique_ptr<ServeSession>* out);

  const SessionConfig& config() const { return config_; }
  i64 checkpoint_step() const { return step_; }
  i64 checkpoint_epoch() const { return epoch_; }
  // Rows of a response's logits: 1 for mnist, tokens.size() for ptb.
  i64 request_length(const Request& req) const;
  // Logit columns: n_classes for mnist, vocab for ptb.
  i64 output_dim() const;

  // Rejects malformed requests (wrong feature count, empty/out-of-range
  // tokens) before they reach a batch.
  [[nodiscard]] Result validate(const Request& req) const;

  // Runs `reqs` as ONE padded batch. Sequences are padded to `pad_len`
  // positions (ptb; pass the bucket length, or 0 for the batch max) and the
  // batch is padded with all-zero rows up to `pad_rows_to` rows (0 = no row
  // padding). Padding never changes any real request's logits (row
  // invariance above).
  //
  // Thread-safe: weights are immutable, scratch is per-call.
  //
  // Every request must already pass validate(); run_batch checks and fails
  // the whole batch otherwise (the broker rejects at submit, so a failure
  // here is a caller bug, reported not aborted).
  [[nodiscard]] Result run_batch(const std::vector<Request>& reqs,
                                 i64 pad_len, i64 pad_rows_to,
                                 std::vector<Response>* out) const;

  // Convenience: one request, no padding.
  Response run(const Request& req) const;

 private:
  ServeSession() = default;

  // Schema-validates `img` against `config` and builds the plan.
  static Result compile(const SessionConfig& config, const ModelImage& img,
                        std::unique_ptr<ServeSession>* out);

  void forward_mnist(const std::vector<Request>& reqs, i64 batch,
                     std::vector<Response>* out) const;
  void forward_ptb(const std::vector<Request>& reqs, i64 batch, i64 pad_len,
                   std::vector<Response>* out) const;

  SessionConfig config_;
  i64 step_ = 0;
  i64 epoch_ = 0;

  // kMnistLstm weights (training-side names in comments).
  core::Tensor w_transform_;  // transform.weight  [n_cols, transform_dim]
  core::Tensor b_transform_;  // transform.bias    [transform_dim]
  core::Tensor w_cls_;        // classifier.weight [hidden, n_classes]
  core::Tensor b_cls_;        // classifier.bias   [n_classes]

  // Shared LSTM stack: mnist has one cell ("lstm.weight"), ptb has
  // "lstm.layer<l>.weight" per layer. Gate order (i,f,g,o).
  std::vector<core::Tensor> w_cell_;  // [in+hidden, 4*hidden] per layer
  std::vector<core::Tensor> b_cell_;  // [4*hidden] per layer

  // kPtbLm weights.
  core::Tensor w_embed_;  // embedding.weight [vocab, embed_dim]
  core::Tensor w_dec_;    // decoder.weight [hidden, vocab] (untied)
  core::Tensor b_dec_;    // decoder.bias [vocab], or tied_bias [vocab]
};

}  // namespace legw::serve
