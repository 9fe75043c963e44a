// Additional layer-level coverage: Conv2d/BatchNorm2d modules, LSTM dropout
// semantics, BiLSTM gradients, GNMT checkpointing, runner options.
#include <gtest/gtest.h>

#include <cstdio>

#include "ag/gradcheck.hpp"
#include "ckpt/checkpoint.hpp"
#include "data/images.hpp"
#include "data/synthetic_mnist.hpp"
#include "data/translation.hpp"
#include "models/gnmt.hpp"
#include "models/resnet.hpp"
#include "nn/conv.hpp"
#include "nn/lstm.hpp"
#include "sched/schedule.hpp"
#include "train/runners.hpp"

namespace legw {
namespace {

using ag::Variable;
using core::Rng;
using core::Tensor;

TEST(Conv2dModule, OutputShapeAndParams) {
  Rng rng(1);
  nn::Conv2d conv(3, 8, 3, /*stride=*/2, /*pad=*/1, rng);
  EXPECT_EQ(conv.parameters().size(), 1u);  // bias off by default
  Variable x = Variable::constant(Tensor::randn({2, 3, 8, 8}, rng));
  Variable y = conv.forward(x);
  EXPECT_EQ(y.value().shape(), (core::Shape{2, 8, 4, 4}));

  nn::Conv2d with_bias(3, 4, 1, 1, 0, rng, /*bias=*/true);
  EXPECT_EQ(with_bias.parameters().size(), 2u);
}

TEST(BatchNormModule, TrainEvalSwitch) {
  Rng rng(2);
  nn::BatchNorm2d bn(2);
  Variable x = Variable::constant(Tensor::randn({4, 2, 2, 2}, rng, 3.0f, 1.0f));
  // Training mode: normalises, updates running stats.
  Variable y_train = bn.forward(x);
  EXPECT_NEAR(y_train.value().mean(), 0.0f, 1e-4f);
  EXPECT_NE(bn.running_mean()[0], 0.0f);
  // Eval mode: uses (partially updated) running stats; output differs.
  bn.set_training(false);
  Variable y_eval = bn.forward(x);
  float diff = 0.0f;
  for (i64 i = 0; i < y_eval.numel(); ++i) {
    diff += std::abs(y_eval.value()[i] - y_train.value()[i]);
  }
  EXPECT_GT(diff, 0.01f);
}

TEST(LstmDropout, OnlyActiveBetweenLayersInTraining) {
  Rng rng(3);
  // With p ~ 1 ineffective inter-layer dropout would zero layer-2 inputs.
  nn::Lstm lstm(4, 4, 2, rng, /*dropout=*/0.9f);
  std::vector<Variable> inputs = {
      Variable::constant(Tensor::randn({2, 4}, rng))};
  Rng d1(1), d2(1);
  auto train_out = lstm.forward(inputs, {}, d1);
  lstm.set_training(false);
  auto eval_out = lstm.forward(inputs, {}, d2);
  // Outputs must differ between train (dropout active) and eval.
  float diff = 0.0f;
  for (i64 i = 0; i < train_out.outputs.numel(); ++i) {
    diff += std::abs(train_out.outputs.value()[i] -
                     eval_out.outputs.value()[i]);
  }
  EXPECT_GT(diff, 1e-4f);
  // Eval runs must be deterministic regardless of the rng passed.
  Rng d3(999);
  auto eval_out2 = lstm.forward(inputs, {}, d3);
  for (i64 i = 0; i < eval_out.outputs.numel(); ++i) {
    EXPECT_EQ(eval_out.outputs.value()[i], eval_out2.outputs.value()[i]);
  }
}

TEST(BiLstm, GradCheckThroughBothDirections) {
  Rng rng(4);
  nn::BiLstmLayer bi(2, 2, rng);
  std::vector<Variable> inputs;
  for (int t = 0; t < 3; ++t) {
    inputs.push_back(Variable::leaf(Tensor::randn({1, 2}, rng, 0.5f), true));
  }
  std::vector<Variable> leaves = bi.parameters();
  for (auto& x : inputs) leaves.push_back(x);
  auto r = ag::grad_check(
      [&] {
        auto out = bi.forward(inputs);
        Variable total;
        for (auto& o : out) {
          Variable sq = ag::sum_all(ag::mul(o, o));
          total = total.defined() ? ag::add(total, sq) : sq;
        }
        return total;
      },
      leaves);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(GnmtCheckpoint, RoundTripPreservesDecoding) {
  data::TranslationConfig tcfg;
  tcfg.n_train = 10;
  tcfg.n_test = 3;
  data::SyntheticTranslation dataset(tcfg);
  models::GnmtConfig cfg;
  cfg.hidden_dim = 8;
  cfg.embed_dim = 8;
  cfg.num_layers = 2;
  models::Gnmt a(cfg);
  auto batch = data::make_translation_batch(dataset.test(), {0, 1, 2});
  auto before = a.greedy_decode(batch, 10);

  const std::string path = "/tmp/legw_test_gnmt.ckpt";
  ckpt::TrainState source;
  source.models.push_back(&a);
  ASSERT_TRUE(ckpt::save(source, path).ok());
  models::GnmtConfig cfg_b = cfg;
  cfg_b.seed = 999;
  models::Gnmt b(cfg_b);
  ckpt::TrainState target;
  target.models.push_back(&b);
  ASSERT_TRUE(ckpt::load(target, path).ok());
  std::remove(path.c_str());
  auto after = b.greedy_decode(batch, 10);
  EXPECT_EQ(before, after);
}

TEST(ResNetBlocks, StrideChangesSpatialDims) {
  models::ResNetConfig cfg;
  cfg.width = 4;
  cfg.blocks_per_stage = 2;  // deeper variant: 1 stride-2 block per stage > 0
  models::ResNet model(cfg);
  Rng rng(5);
  Tensor images = Tensor::rand_uniform({1, 3, 16, 16}, rng);
  Variable logits = model.forward(images);
  EXPECT_EQ(logits.value().shape(), (core::Shape{1, 10}));
  // 6 blocks x (2 conv + 2 bn) + 2 shortcut pairs + stem pair + classifier.
  EXPECT_GT(model.named_parameters().size(), 30u);
}

TEST(Runners, FinalEvalOnlySkipsIntermediateMetrics) {
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 8;
  mcfg.hidden_dim = 8;
  sched::ConstantLr schedule(0.05f);
  train::RunConfig run;
  run.batch_size = 32;
  run.epochs = 3;
  run.schedule = &schedule;
  run.final_eval_only = true;
  auto result = train::train_mnist(dataset, mcfg, run);
  EXPECT_EQ(result.per_epoch_metric.size(), 1u);
  EXPECT_EQ(result.final_metric, result.per_epoch_metric.back());
  EXPECT_FALSE(result.diverged);
}

TEST(Runners, SeedChangesTrajectoryButNotDataset) {
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 8;
  mcfg.hidden_dim = 8;
  sched::ConstantLr schedule(0.05f);
  train::RunConfig run;
  run.batch_size = 32;
  run.epochs = 1;
  run.schedule = &schedule;
  run.final_eval_only = true;
  auto r1 = train::train_mnist(dataset, mcfg, run);
  run.seed = 2;
  auto r2 = train::train_mnist(dataset, mcfg, run);
  // Different seeds -> different init/shuffling -> different final loss.
  EXPECT_NE(r1.final_train_loss, r2.final_train_loss);
  // Same seed -> bitwise-identical runs.
  run.seed = 1;
  auto r3 = train::train_mnist(dataset, mcfg, run);
  EXPECT_EQ(r1.final_train_loss, r3.final_train_loss);
  EXPECT_EQ(r1.final_metric, r3.final_metric);
}

TEST(GnmtDropout, ChangesTrainingLossButNotEval) {
  data::TranslationConfig tcfg;
  tcfg.n_train = 10;
  tcfg.n_test = 3;
  data::SyntheticTranslation dataset(tcfg);
  models::GnmtConfig cfg;
  cfg.hidden_dim = 8;
  cfg.embed_dim = 8;
  cfg.num_layers = 2;
  cfg.dropout = 0.5f;
  models::Gnmt model(cfg);
  auto batch = data::make_translation_batch(dataset.train(), {0, 1});
  // Two different dropout streams give different training losses.
  Rng r1(1), r2(2);
  const float l1 = model.loss(batch, r1).value()[0];
  const float l2 = model.loss(batch, r2).value()[0];
  EXPECT_NE(l1, l2);
  // Eval mode: dropout off, rng irrelevant, decode deterministic.
  model.set_training(false);
  auto d1 = model.greedy_decode(batch, 8);
  auto d2 = model.greedy_decode(batch, 8);
  EXPECT_EQ(d1, d2);
}

}  // namespace
}  // namespace legw
