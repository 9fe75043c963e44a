// Model-level tests: shapes, gradient flow, and one-model smoke training
// (loss decreases under plain SGD on a fixed batch).
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "data/corpus.hpp"
#include "data/translation.hpp"
#include "models/gnmt.hpp"
#include "models/mnist_lstm.hpp"
#include "models/ptb_model.hpp"
#include "models/resnet.hpp"
#include "optim/optimizer.hpp"

namespace legw::models {
namespace {

using core::Rng;
using core::Tensor;

std::map<std::string, ag::Variable> params_by_name(const nn::Module& m) {
  std::map<std::string, ag::Variable> p;
  for (const nn::NamedParam& np : m.named_parameters()) p[np.name] = np.var;
  return p;
}

std::vector<Tensor> param_grads(const nn::Module& m) {
  std::vector<Tensor> g;
  for (const nn::NamedParam& np : m.named_parameters()) g.push_back(np.var.grad());
  return g;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(MnistLstm, ForwardShapeAndDeterminism) {
  MnistLstmConfig cfg;
  cfg.transform_dim = 16;
  cfg.hidden_dim = 16;
  MnistLstm m1(cfg), m2(cfg);
  Rng rng(1);
  Tensor images = Tensor::rand_uniform({3, 784}, rng);
  ag::Variable l1 = m1.forward(images);
  ag::Variable l2 = m2.forward(images);
  EXPECT_EQ(l1.size(0), 3);
  EXPECT_EQ(l1.size(1), 10);
  for (i64 i = 0; i < l1.numel(); ++i) ASSERT_EQ(l1.value()[i], l2.value()[i]);
}

TEST(MnistLstm, AllParametersReceiveGradient) {
  MnistLstmConfig cfg;
  cfg.transform_dim = 8;
  cfg.hidden_dim = 8;
  MnistLstm model(cfg);
  Rng rng(2);
  Tensor images = Tensor::rand_uniform({4, 784}, rng);
  ag::backward(model.loss(images, {0, 1, 2, 3}));
  for (const auto& p : model.named_parameters()) {
    EXPECT_GT(p.var.grad().l2_norm(), 0.0f) << p.name;
  }
}

TEST(MnistLstm, LossDecreasesOnFixedBatch) {
  MnistLstmConfig cfg;
  cfg.transform_dim = 16;
  cfg.hidden_dim = 16;
  MnistLstm model(cfg);
  Rng rng(3);
  Tensor images = Tensor::rand_uniform({8, 784}, rng);
  std::vector<i32> labels = {0, 1, 2, 3, 4, 5, 6, 7};
  auto opt = optim::make_optimizer("adam", model.parameters());
  opt->set_lr(0.01f);
  float first = 0.0f, last = 0.0f;
  for (int it = 0; it < 60; ++it) {
    model.zero_grad();
    ag::Variable loss = model.loss(images, labels);
    if (it == 0) first = loss.value()[0];
    last = loss.value()[0];
    ag::backward(loss);
    optim::clip_grad_norm(opt->params(), 5.0f);
    opt->step();
  }
  EXPECT_LT(last, 0.5f * first);
}

// The graph MnistLstm::forward built before the layer op: per image row one
// transform product and one one-step LSTM node.
ag::Variable per_step_mnist_logits(const MnistLstm& model,
                                   const Tensor& images) {
  auto p = params_by_name(model);
  const MnistLstmConfig& cfg = model.config();
  const i64 batch = images.size(0);
  const i64 H = cfg.hidden_dim;
  ag::Variable h = ag::Variable::constant(Tensor::zeros({batch, H}));
  ag::Variable c = h;
  for (i64 r = 0; r < cfg.n_rows; ++r) {
    Tensor row({batch, cfg.n_cols});
    for (i64 b = 0; b < batch; ++b)
      for (i64 j = 0; j < cfg.n_cols; ++j)
        row.at(b, j) = images.at(b, r * cfg.n_cols + j);
    ag::Variable x = ag::add_bias(
        ag::matmul(ag::Variable::constant(row), p["transform.weight"]),
        p["transform.bias"]);
    ag::Variable hc = ag::lstm_layer(x, h, c, p["lstm.weight"], p["lstm.bias"]);
    h = ag::slice_cols(hc, 0, H);
    c = ag::slice_cols(hc, H, 2 * H);
  }
  return ag::add_bias(ag::matmul(h, p["classifier.weight"]),
                      p["classifier.bias"]);
}

TEST(MnistLstm, LayerOpMatchesPerStepGraph) {
  // One layer node per image against the per-step graph: the logits and the
  // lstm and classifier gradients agree bit for bit. The transform
  // gradients sum the same 28 per-row products, but the layer node's
  // concat_rows runs the row closures last to first, so they may differ in
  // their last bits only.
  MnistLstmConfig cfg;
  cfg.transform_dim = 12;
  cfg.hidden_dim = 10;
  MnistLstm model(cfg);
  Rng rng(4);
  const Tensor images = Tensor::rand_uniform({5, 784}, rng);
  const std::vector<i32> labels = {0, 3, 9, 3, 1};

  model.zero_grad();
  ag::Variable logits = model.forward(images);
  ag::backward(ag::softmax_cross_entropy(logits, labels));
  const std::vector<Tensor> got = param_grads(model);
  model.zero_grad();
  ag::Variable want_logits = per_step_mnist_logits(model, images);
  ag::backward(ag::softmax_cross_entropy(want_logits, labels));
  const std::vector<Tensor> want = param_grads(model);

  EXPECT_TRUE(bitwise_equal(want_logits.value(), logits.value()));
  const auto named = model.named_parameters();
  for (std::size_t i = 0; i < named.size(); ++i) {
    SCOPED_TRACE(named[i].name);
    if (named[i].name.rfind("transform.", 0) != 0) {
      EXPECT_TRUE(bitwise_equal(want[i], got[i]));
      continue;
    }
    for (i64 e = 0; e < want[i].numel(); ++e)
      EXPECT_NEAR(want[i][e], got[i][e], 1e-6f + 1e-5f * std::abs(want[i][e]));
  }
}

// The graph PtbModel::chunk_loss built before the layer op: one embedding
// node and one one-step LSTM node per (step, layer), inter-layer dropout
// drawn per (step, layer), top-layer outputs stacked with concat_rows.
ag::Variable per_step_chunk_loss(const PtbModel& model,
                                 const std::vector<i32>& inputs,
                                 const std::vector<i32>& targets, i64 batch,
                                 i64 bptt,
                                 const PtbModel::CarriedState& carried,
                                 Rng& rng) {
  auto p = params_by_name(model);
  const PtbConfig& cfg = model.config();
  const i64 H = cfg.hidden_dim;
  const auto L = static_cast<std::size_t>(cfg.num_layers);
  std::vector<ag::Variable> h, c;
  for (std::size_t l = 0; l < L; ++l) {
    h.push_back(ag::Variable::constant(carried.h[l]));
    c.push_back(ag::Variable::constant(carried.c[l]));
  }
  std::vector<ag::Variable> outputs;
  for (i64 t = 0; t < bptt; ++t) {
    std::vector<i32> column;
    for (i64 b = 0; b < batch; ++b)
      column.push_back(inputs[static_cast<std::size_t>(b * bptt + t)]);
    ag::Variable x = ag::embedding(p["embedding.weight"], column);
    for (std::size_t l = 0; l < L; ++l) {
      const std::string layer = "lstm.layer" + std::to_string(l);
      ag::Variable hc = ag::lstm_layer(x, h[l], c[l], p[layer + ".weight"],
                                       p[layer + ".bias"]);
      h[l] = ag::slice_cols(hc, 0, H);
      c[l] = ag::slice_cols(hc, H, 2 * H);
      x = h[l];
      if (l + 1 < L) x = ag::dropout(x, cfg.dropout, rng, model.is_training());
    }
    outputs.push_back(x);
  }
  std::vector<i32> aligned;
  for (i64 t = 0; t < bptt; ++t)
    for (i64 b = 0; b < batch; ++b)
      aligned.push_back(targets[static_cast<std::size_t>(b * bptt + t)]);
  ag::Variable logits = ag::add_bias(
      ag::matmul(ag::concat_rows(outputs), p["decoder.weight"]),
      p["decoder.bias"]);
  return ag::softmax_cross_entropy(logits, aligned);
}

TEST(PtbModel, ChunkLossMatchesPerStepGraphBitwise) {
  // A 6-token vocabulary repeats tokens within every window, so embedding
  // rows collect three or more gradient terms whose order is part of the
  // bits. Three layers interleave two dropout masks per step.
  const i64 batch = 5, bptt = 7, vocab = 6;
  for (const i64 layers : {2, 3}) {
    for (const float dropout : {0.0f, 0.15f}) {
      SCOPED_TRACE(testing::Message() << layers << " layers, dropout " << dropout);
      PtbConfig cfg = PtbConfig::small(vocab);
      cfg.embed_dim = 12;
      cfg.hidden_dim = 10;
      cfg.num_layers = layers;
      cfg.dropout = dropout;
      PtbModel model(cfg);
      Rng rng(static_cast<u64>(layers));
      std::vector<i32> inputs, targets;
      for (i64 i = 0; i < batch * bptt; ++i) {
        inputs.push_back(static_cast<i32>(rng.uniform_int(static_cast<u64>(vocab))));
        targets.push_back(static_cast<i32>(rng.uniform_int(static_cast<u64>(vocab))));
      }
      PtbModel::CarriedState carried = model.zero_carried(batch);
      for (auto* states : {&carried.h, &carried.c})
        for (Tensor& s : *states) s = Tensor::randn({batch, cfg.hidden_dim}, rng, 0.5f);

      model.zero_grad();
      Rng got_rng(11);
      const auto got = model.chunk_loss(inputs, targets, batch, bptt, carried, got_rng);
      ag::backward(got.loss);
      const std::vector<Tensor> got_grads = param_grads(model);
      model.zero_grad();
      Rng want_rng(11);
      const ag::Variable want = per_step_chunk_loss(model, inputs, targets, batch,
                                                    bptt, carried, want_rng);
      ag::backward(want);
      const std::vector<Tensor> want_grads = param_grads(model);

      EXPECT_TRUE(bitwise_equal(want.value(), got.loss.value()));
      EXPECT_EQ(want_rng.next_u64(), got_rng.next_u64()) << "rng streams diverged";
      const auto named = model.named_parameters();
      for (std::size_t i = 0; i < named.size(); ++i)
        EXPECT_TRUE(bitwise_equal(want_grads[i], got_grads[i])) << named[i].name;
    }
  }
}

TEST(PtbModel, EvaluateNllKeepsEvalMode) {
  // evaluate_nll must hand back the mode it was given: an eval-mode model
  // with dropout stays in eval mode, so its chunk losses stay deterministic.
  PtbConfig cfg = PtbConfig::small(30);
  cfg.embed_dim = 8;
  cfg.hidden_dim = 8;
  cfg.dropout = 0.15f;
  PtbModel model(cfg);
  model.set_training(false);
  Rng rng(3);
  std::vector<i32> tokens;
  for (int i = 0; i < 200; ++i) tokens.push_back(static_cast<i32>(rng.uniform_int(30)));
  (void)model.evaluate_nll(tokens, 2, 5);
  EXPECT_FALSE(model.is_training());

  const std::vector<i32> chunk(tokens.begin(), tokens.begin() + 10);
  Rng d1(1), d2(2);
  const auto a = model.chunk_loss(chunk, chunk, 2, 5, model.zero_carried(2), d1);
  const auto b = model.chunk_loss(chunk, chunk, 2, 5, model.zero_carried(2), d2);
  EXPECT_TRUE(bitwise_equal(a.loss.value(), b.loss.value()));
}

TEST(PtbModel, ChunkLossAndCarriedState) {
  data::CorpusConfig ccfg;
  ccfg.vocab = 50;
  ccfg.n_train_tokens = 2000;
  ccfg.n_valid_tokens = 500;
  data::SyntheticCorpus corpus(ccfg);
  PtbConfig cfg = PtbConfig::small(50);
  cfg.embed_dim = 16;
  cfg.hidden_dim = 16;
  cfg.bptt_len = 5;
  PtbModel model(cfg);

  data::BpttBatcher batcher(corpus.train_tokens(), 4, 5);
  auto chunk = batcher.next_chunk();
  Rng drng(1);
  auto carried = model.zero_carried(4);
  auto out = model.chunk_loss(chunk.inputs, chunk.targets, 4, 5, carried, drng);
  EXPECT_EQ(out.loss.numel(), 1);
  EXPECT_GT(out.loss.value()[0], 0.0f);
  // Initial loss should be near log(vocab) for a fresh model.
  EXPECT_NEAR(out.loss.value()[0], std::log(50.0f), 1.0f);
  EXPECT_EQ(out.carried.h.size(), 2u);
  EXPECT_GT(out.carried.h[0].l2_norm(), 0.0f);  // state actually moved
}

TEST(PtbModel, TrainingReducesPerplexity) {
  data::CorpusConfig ccfg;
  ccfg.vocab = 40;
  ccfg.n_train_tokens = 4000;
  ccfg.n_valid_tokens = 600;
  data::SyntheticCorpus corpus(ccfg);
  PtbConfig cfg = PtbConfig::small(40);
  cfg.embed_dim = 24;
  cfg.hidden_dim = 24;
  cfg.bptt_len = 8;
  PtbModel model(cfg);

  const double ppl_before = std::exp(model.evaluate_nll(corpus.valid_tokens(), 4, 8));
  auto opt = optim::make_optimizer("adam", model.parameters());
  opt->set_lr(0.02f);
  data::BpttBatcher batcher(corpus.train_tokens(), 8, 8);
  Rng drng(2);
  auto carried = model.zero_carried(8);
  for (int it = 0; it < 240; ++it) {
    auto chunk = batcher.next_chunk();
    if (chunk.first_in_epoch) carried = model.zero_carried(8);
    model.zero_grad();
    auto out = model.chunk_loss(chunk.inputs, chunk.targets, 8, 8, carried, drng);
    carried = std::move(out.carried);
    ag::backward(out.loss);
    optim::clip_grad_norm(opt->params(), 5.0f);
    opt->step();
  }
  const double ppl_after = std::exp(model.evaluate_nll(corpus.valid_tokens(), 4, 8));
  EXPECT_LT(ppl_after, 0.8 * ppl_before);
}

TEST(Gnmt, LossShapeAndPadInvariance) {
  data::TranslationConfig tcfg;
  tcfg.n_train = 20;
  tcfg.n_test = 5;
  data::SyntheticTranslation dataset(tcfg);
  GnmtConfig cfg;
  cfg.hidden_dim = 8;
  cfg.embed_dim = 8;
  cfg.num_layers = 2;
  Gnmt model(cfg);

  auto batch = data::make_translation_batch(dataset.train(), {0, 1, 2});
  Rng drng(1);
  ag::Variable loss = model.loss(batch, drng);
  EXPECT_EQ(loss.numel(), 1);
  EXPECT_GT(loss.value()[0], 0.0f);
  // Fresh-model loss ~ log(tgt_vocab).
  EXPECT_NEAR(loss.value()[0], std::log(200.0f), 1.5f);
}

TEST(Gnmt, AllParametersReceiveGradient) {
  data::TranslationConfig tcfg;
  tcfg.n_train = 10;
  data::SyntheticTranslation dataset(tcfg);
  GnmtConfig cfg;
  cfg.hidden_dim = 8;
  cfg.embed_dim = 8;
  cfg.num_layers = 4;  // full depth incl. residual layers
  Gnmt model(cfg);
  auto batch = data::make_translation_batch(dataset.train(), {0, 1});
  Rng drng(1);
  ag::backward(model.loss(batch, drng));
  for (const auto& p : model.named_parameters()) {
    EXPECT_GT(p.var.grad().l2_norm(), 0.0f) << p.name;
  }
}

TEST(Gnmt, GreedyDecodeProducesTokens) {
  data::TranslationConfig tcfg;
  tcfg.n_train = 10;
  tcfg.n_test = 4;
  data::SyntheticTranslation dataset(tcfg);
  GnmtConfig cfg;
  cfg.hidden_dim = 8;
  cfg.embed_dim = 8;
  cfg.num_layers = 2;
  Gnmt model(cfg);
  auto batch = data::make_translation_batch(dataset.test(), {0, 1, 2, 3});
  auto hyps = model.greedy_decode(batch, 12);
  EXPECT_EQ(hyps.size(), 4u);
  for (const auto& h : hyps) {
    EXPECT_LE(h.size(), 12u);
    for (i32 t : h) {
      EXPECT_GE(t, 0);
      EXPECT_LT(t, 200);
    }
  }
}

TEST(Gnmt, LossDecreasesOnFixedBatch) {
  data::TranslationConfig tcfg;
  tcfg.n_train = 8;
  data::SyntheticTranslation dataset(tcfg);
  GnmtConfig cfg;
  cfg.hidden_dim = 12;
  cfg.embed_dim = 12;
  cfg.num_layers = 2;
  Gnmt model(cfg);
  auto batch = data::make_translation_batch(dataset.train(),
                                            {0, 1, 2, 3, 4, 5, 6, 7});
  auto opt = optim::make_optimizer("adam", model.parameters());
  opt->set_lr(0.01f);
  Rng drng(3);
  float first = 0.0f, last = 0.0f;
  for (int it = 0; it < 25; ++it) {
    model.zero_grad();
    ag::Variable loss = model.loss(batch, drng);
    if (it == 0) first = loss.value()[0];
    last = loss.value()[0];
    ag::backward(loss);
    optim::clip_grad_norm(opt->params(), 5.0f);
    opt->step();
  }
  EXPECT_LT(last, 0.7f * first);
}

TEST(ResNet, ForwardShapeAndParamCount) {
  ResNetConfig cfg;
  cfg.width = 4;
  cfg.blocks_per_stage = 1;
  ResNet model(cfg);
  Rng rng(4);
  Tensor images = Tensor::rand_uniform({2, 3, 16, 16}, rng);
  ag::Variable logits = model.forward(images);
  EXPECT_EQ(logits.size(0), 2);
  EXPECT_EQ(logits.size(1), 10);
  EXPECT_GT(model.num_parameters(), 1000);
}

TEST(ResNet, AllParametersReceiveGradient) {
  ResNetConfig cfg;
  cfg.width = 4;
  ResNet model(cfg);
  Rng rng(5);
  Tensor images = Tensor::rand_uniform({4, 3, 16, 16}, rng);
  ag::backward(model.loss(images, {0, 1, 2, 3}));
  for (const auto& p : model.named_parameters()) {
    EXPECT_GT(p.var.grad().l2_norm(), 0.0f) << p.name;
  }
}

TEST(ResNet, LossDecreasesOnFixedBatch) {
  ResNetConfig cfg;
  cfg.width = 4;
  ResNet model(cfg);
  Rng rng(6);
  Tensor images = Tensor::rand_uniform({8, 3, 16, 16}, rng);
  std::vector<i32> labels = {0, 1, 2, 3, 4, 5, 6, 7};
  auto opt = optim::make_optimizer("momentum", model.parameters());
  opt->set_lr(0.05f);
  float first = 0.0f, last = 0.0f;
  for (int it = 0; it < 30; ++it) {
    model.zero_grad();
    ag::Variable loss = model.loss(images, labels);
    if (it == 0) first = loss.value()[0];
    last = loss.value()[0];
    ag::backward(loss);
    opt->step();
  }
  EXPECT_LT(last, 0.5f * first);
}

TEST(ResNet, EvalModeIsDeterministic) {
  ResNetConfig cfg;
  cfg.width = 4;
  ResNet model(cfg);
  Rng rng(7);
  Tensor images = Tensor::rand_uniform({2, 3, 16, 16}, rng);
  model.set_training(false);
  ag::Variable l1 = model.forward(images);
  ag::Variable l2 = model.forward(images);
  for (i64 i = 0; i < l1.numel(); ++i) ASSERT_EQ(l1.value()[i], l2.value()[i]);
}

}  // namespace
}  // namespace legw::models
