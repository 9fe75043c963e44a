// Data-parallel training through dist::replica_backward: replica synchrony,
// equivalence with single-process training; plus beam search, EMA, cosine
// schedule, tied embeddings.
#include <gtest/gtest.h>

#include "data/corpus.hpp"
#include "data/images.hpp"
#include "data/synthetic_mnist.hpp"
#include "data/translation.hpp"
#include "dist/overlap.hpp"
#include "models/gnmt.hpp"
#include "models/mnist_lstm.hpp"
#include "models/ptb_model.hpp"
#include "optim/ema.hpp"
#include "optim/optimizer.hpp"
#include "sched/schedule.hpp"

namespace legw {
namespace {

using core::Rng;
using core::Tensor;

TEST(DataParallel, ReplicasStaySynchronisedOverSteps) {
  // 4 replicas of the MNIST-LSTM, identical init, per-replica shards,
  // identical Momentum updates: weights must stay bitwise identical.
  constexpr int kReplicas = 4;
  data::SyntheticMnist dataset(256, 32, 42);
  models::MnistLstmConfig cfg;
  cfg.transform_dim = 8;
  cfg.hidden_dim = 8;

  std::vector<std::unique_ptr<models::MnistLstm>> replicas;
  std::vector<std::vector<ag::Variable>> params;
  std::vector<std::unique_ptr<optim::Optimizer>> opts;
  for (int r = 0; r < kReplicas; ++r) {
    replicas.push_back(std::make_unique<models::MnistLstm>(cfg));
    params.push_back(replicas.back()->parameters());
    opts.push_back(optim::make_optimizer("momentum", params.back()));
    opts.back()->set_lr(0.05f);
  }
  EXPECT_EQ(dist::first_divergent_param(params), -1);

  data::IndexBatcher batcher(dataset.n_train(), 8 * kReplicas, 7);
  for (int step = 0; step < 5; ++step) {
    std::vector<i64> idx = batcher.next();
    dist::replica_backward(params, [&](int r) {
      std::vector<i64> shard(idx.begin() + r * 8, idx.begin() + (r + 1) * 8);
      return replicas[static_cast<std::size_t>(r)]->loss(
          dataset.gather_images(shard, true),
          dataset.gather_labels(shard, true));
    });
    for (auto& opt : opts) opt->step();
    ASSERT_EQ(dist::first_divergent_param(params), -1) << "step " << step;
  }
}

TEST(DataParallel, MatchesSingleProcessLargeBatch) {
  // 2 replicas x shard 4 == 1 process x batch 8 after one step (same data,
  // mean losses over equal shards), up to float reassociation.
  data::SyntheticMnist dataset(64, 16, 42);
  models::MnistLstmConfig cfg;
  cfg.transform_dim = 8;
  cfg.hidden_dim = 8;
  std::vector<i64> idx = {0, 1, 2, 3, 4, 5, 6, 7};

  // Reference: single model, full batch.
  models::MnistLstm single(cfg);
  auto single_params = single.parameters();
  single.zero_grad();
  ag::backward(single.loss(dataset.gather_images(idx, true),
                           dataset.gather_labels(idx, true)));

  // Data-parallel: two replicas.
  models::MnistLstm ra(cfg), rb(cfg);
  std::vector<std::vector<ag::Variable>> params = {ra.parameters(),
                                                   rb.parameters()};
  dist::replica_backward(params, [&](int r) {
    std::vector<i64> shard(idx.begin() + r * 4, idx.begin() + (r + 1) * 4);
    models::MnistLstm& model = r == 0 ? ra : rb;
    return model.loss(dataset.gather_images(shard, true),
                      dataset.gather_labels(shard, true));
  });

  for (std::size_t p = 0; p < single_params.size(); ++p) {
    const Tensor& ref = single_params[p].grad();
    const Tensor& got = params[0][p].grad();
    for (i64 i = 0; i < ref.numel(); ++i) {
      ASSERT_NEAR(got[i], ref[i], 1e-5f) << "param " << p << " elem " << i;
    }
  }
}

TEST(BeamSearch, WidthOneMatchesGreedy) {
  data::TranslationConfig tcfg;
  tcfg.n_train = 20;
  tcfg.n_test = 6;
  data::SyntheticTranslation dataset(tcfg);
  models::GnmtConfig cfg;
  cfg.hidden_dim = 8;
  cfg.embed_dim = 8;
  cfg.num_layers = 2;
  models::Gnmt model(cfg);
  auto batch = data::make_translation_batch(dataset.test(), {0, 1, 2});
  auto greedy = model.greedy_decode(batch, 10);
  auto beam1 = model.beam_decode(batch, 1, 10);
  EXPECT_EQ(greedy, beam1);
}

TEST(BeamSearch, WiderBeamNeverProducesInvalidTokens) {
  data::TranslationConfig tcfg;
  tcfg.n_train = 20;
  tcfg.n_test = 4;
  data::SyntheticTranslation dataset(tcfg);
  models::GnmtConfig cfg;
  cfg.hidden_dim = 8;
  cfg.embed_dim = 8;
  cfg.num_layers = 2;
  models::Gnmt model(cfg);
  auto batch = data::make_translation_batch(dataset.test(), {0, 1, 2, 3});
  auto hyps = model.beam_decode(batch, 4, 9);
  ASSERT_EQ(hyps.size(), 4u);
  for (const auto& h : hyps) {
    EXPECT_LE(h.size(), 9u);
    for (i32 t : h) {
      EXPECT_GE(t, 0);
      EXPECT_LT(t, 200);
      EXPECT_NE(t, data::kEosId);
      EXPECT_NE(t, data::kPadId);
    }
  }
}

TEST(Ema, ShadowTracksAndSwaps) {
  ag::Variable p = ag::Variable::leaf(Tensor({2}, {1.0f, 2.0f}), true);
  optim::EmaWeights ema({p}, 0.5f);
  // Move the live weights, update the average.
  p.mutable_value()[0] = 3.0f;
  p.mutable_value()[1] = 4.0f;
  ema.update();
  // shadow = 0.5*init + 0.5*current = (2, 3).
  EXPECT_FLOAT_EQ(ema.shadow()[0][0], 2.0f);
  EXPECT_FLOAT_EQ(ema.shadow()[0][1], 3.0f);
  ema.swap();
  EXPECT_FLOAT_EQ(p.value()[0], 2.0f);  // evaluating the average
  ema.swap();
  EXPECT_FLOAT_EQ(p.value()[0], 3.0f);  // training weights restored
}

TEST(CosineLr, EndpointsAndMidpoint) {
  sched::CosineLr s(2.0f, 10.0);
  EXPECT_FLOAT_EQ(s.lr(0.0), 2.0f);
  EXPECT_NEAR(s.lr(5.0), 1.0f, 1e-6f);
  EXPECT_NEAR(s.lr(10.0), 0.0f, 1e-6f);
  EXPECT_NEAR(s.lr(15.0), 0.0f, 1e-6f);  // clamped
  // Monotone decreasing on [0, total].
  float prev = s.lr(0.0);
  for (double e = 0.5; e <= 10.0; e += 0.5) {
    const float v = s.lr(e);
    EXPECT_LE(v, prev + 1e-7f);
    prev = v;
  }
}

TEST(TiedEmbeddings, SharesWeightAndTrains) {
  data::CorpusConfig ccfg;
  ccfg.vocab = 40;
  ccfg.n_train_tokens = 2000;
  ccfg.n_valid_tokens = 400;
  data::SyntheticCorpus corpus(ccfg);
  models::PtbConfig cfg = models::PtbConfig::small(40);
  cfg.embed_dim = 16;
  cfg.hidden_dim = 16;
  cfg.bptt_len = 5;
  cfg.tie_embeddings = true;
  models::PtbModel tied(cfg);
  models::PtbConfig untied_cfg = cfg;
  untied_cfg.tie_embeddings = false;
  models::PtbModel untied(untied_cfg);
  // Tied model saves vocab*hidden - vocab parameters.
  EXPECT_EQ(untied.num_parameters() - tied.num_parameters(),
            40 * 16);

  // One training step reduces loss on a fixed chunk.
  data::BpttBatcher batcher(corpus.train_tokens(), 4, 5);
  auto chunk = batcher.next_chunk();
  Rng drng(1);
  auto carried = tied.zero_carried(4);
  auto opt = optim::make_optimizer("adam", tied.parameters());
  opt->set_lr(0.05f);
  float first = 0.0f, last = 0.0f;
  for (int it = 0; it < 20; ++it) {
    tied.zero_grad();
    auto out = tied.chunk_loss(chunk.inputs, chunk.targets, 4, 5, carried, drng);
    if (it == 0) first = out.loss.value()[0];
    last = out.loss.value()[0];
    ag::backward(out.loss);
    opt->step();
  }
  EXPECT_LT(last, 0.8f * first);
}

TEST(TiedEmbeddings, RequiresMatchingDims) {
  models::PtbConfig cfg = models::PtbConfig::small(40);
  cfg.embed_dim = 8;
  cfg.hidden_dim = 16;
  cfg.tie_embeddings = true;
  EXPECT_DEATH(models::PtbModel{cfg}, "embed_dim == hidden_dim");
}

}  // namespace
}  // namespace legw
