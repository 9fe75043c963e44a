// End-to-end smoke tests for the four training runners, including the LEGW
// schedule path and divergence detection.
#include <gtest/gtest.h>

#include <string>

#include "sched/legw.hpp"
#include "train/runners.hpp"

namespace legw::train {
namespace {

TEST(LossDiverged, Predicate) {
  EXPECT_FALSE(loss_diverged(2.3));
  EXPECT_TRUE(loss_diverged(std::nan("")));
  EXPECT_TRUE(loss_diverged(std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(loss_diverged(1e6));
}

TEST(TrainMnist, LearnsAboveChanceWithLegw) {
  data::SyntheticMnist dataset(1024, 256, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 32;
  mcfg.hidden_dim = 32;

  sched::LegwBaseline base{32, 0.1f, 0.2};
  auto schedule = sched::legw_constant(base, 32);
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 5;
  run.optimizer = "momentum";
  run.schedule = schedule.get();

  RunResult result = train_mnist(dataset, mcfg, run);
  EXPECT_FALSE(result.diverged);
  EXPECT_GT(result.final_metric, 0.4);  // >> 0.1 chance
  EXPECT_EQ(result.per_epoch_metric.size(), 5u);
  EXPECT_GT(result.steps, 0);
  EXPECT_GT(result.wall_seconds, 0.0);
}

// Every runner at an absurd LR: the run diverges in its first epoch and
// reports the task's worst metric (0 for accuracy/BLEU, 1e9 for perplexity)
// — as its final metric and, even under final_eval_only, as the metric row
// of the diverged epoch.
class DivergesAtAbsurdLr : public ::testing::TestWithParam<const char*> {};

TEST_P(DivergesAtAbsurdLr, ReportsWorstMetric) {
  const std::string runner = GetParam();
  const double worst = runner == "ptb" ? 1e9 : 0.0;
  sched::ConstantLr schedule(1e5f);
  RunConfig run;
  run.epochs = 2;
  run.clip_norm = 0.0f;  // no clipping: let it blow up
  run.schedule = &schedule;
  run.final_eval_only = true;
  RunResult result;
  if (runner == "mnist") {
    data::SyntheticMnist dataset(256, 64, 42);
    models::MnistLstmConfig mcfg;
    mcfg.transform_dim = 16;
    mcfg.hidden_dim = 16;
    run.batch_size = 64;
    result = train_mnist(dataset, mcfg, run);
  } else if (runner == "ptb") {
    data::CorpusConfig ccfg;
    ccfg.vocab = 40;
    ccfg.n_train_tokens = 1200;
    ccfg.n_valid_tokens = 200;
    data::SyntheticCorpus corpus(ccfg);
    models::PtbConfig mcfg = models::PtbConfig::small(40);
    mcfg.embed_dim = 16;
    mcfg.hidden_dim = 16;
    mcfg.bptt_len = 8;
    run.batch_size = 8;
    result = train_ptb(corpus, mcfg, run);
  } else if (runner == "gnmt") {
    data::TranslationConfig tcfg;
    tcfg.n_train = 60;
    tcfg.n_test = 10;
    tcfg.src_vocab = 30;
    tcfg.tgt_vocab = 30;
    tcfg.min_len = 3;
    tcfg.max_len = 5;
    data::SyntheticTranslation dataset(tcfg);
    models::GnmtConfig mcfg;
    mcfg.hidden_dim = 12;
    mcfg.embed_dim = 12;
    mcfg.num_layers = 2;
    run.batch_size = 20;
    result = train_gnmt(dataset, mcfg, run);
  } else {
    data::SyntheticImages dataset(96, 24, 42);
    models::ResNetConfig mcfg;
    mcfg.width = 4;
    mcfg.blocks_per_stage = 1;
    run.batch_size = 32;
    result = train_resnet(dataset, mcfg, run);
  }
  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.final_metric, worst);
  ASSERT_EQ(result.per_epoch_metric.size(), 1u);
  EXPECT_EQ(result.per_epoch_metric.back(), worst);
}

INSTANTIATE_TEST_SUITE_P(AllRunners, DivergesAtAbsurdLr,
                         ::testing::Values("mnist", "ptb", "gnmt", "resnet"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(TrainPtb, PerplexityDropsBelowVocab) {
  data::CorpusConfig ccfg;
  ccfg.vocab = 60;
  ccfg.n_train_tokens = 6000;
  ccfg.n_valid_tokens = 800;
  data::SyntheticCorpus corpus(ccfg);
  models::PtbConfig mcfg = models::PtbConfig::small(60);
  mcfg.embed_dim = 24;
  mcfg.hidden_dim = 24;
  mcfg.bptt_len = 8;

  sched::ExponentialEpochDecay decay(0.5f, 2.0, 0.5f);
  sched::GradualWarmup schedule(0.2, std::make_shared<sched::ExponentialEpochDecay>(decay));
  RunConfig run;
  run.batch_size = 16;
  run.epochs = 3;
  run.optimizer = "momentum";
  run.schedule = &schedule;

  RunResult result = train_ptb(corpus, mcfg, run);
  EXPECT_FALSE(result.diverged);
  EXPECT_LT(result.final_metric, 60.0);  // beats the uniform-model ppl
  // Perplexity is monotone-ish: final epoch no worse than the first.
  EXPECT_LE(result.per_epoch_metric.back(), result.per_epoch_metric.front());
}

TEST(TrainGnmt, BleuImprovesOverEpochs) {
  data::TranslationConfig tcfg;
  tcfg.n_train = 300;
  tcfg.n_test = 40;
  tcfg.src_vocab = 40;
  tcfg.tgt_vocab = 40;
  tcfg.min_len = 3;
  tcfg.max_len = 6;
  data::SyntheticTranslation dataset(tcfg);
  models::GnmtConfig mcfg;
  mcfg.hidden_dim = 16;
  mcfg.embed_dim = 16;
  mcfg.num_layers = 2;

  sched::ConstantLr inner(0.02f);
  sched::GradualWarmup schedule(0.2, std::make_shared<sched::ConstantLr>(inner));
  RunConfig run;
  run.batch_size = 20;
  run.epochs = 4;
  run.optimizer = "adam";
  run.schedule = &schedule;

  RunResult result = train_gnmt(dataset, mcfg, run);
  EXPECT_FALSE(result.diverged);
  EXPECT_GE(result.final_metric, result.per_epoch_metric.front());
}

TEST(TrainResnet, LearnsAboveChance) {
  data::SyntheticImages dataset(512, 128, 42);
  models::ResNetConfig mcfg;
  mcfg.width = 4;
  mcfg.blocks_per_stage = 1;

  // LARS folds an eta=0.001 trust coefficient into the step, so the global
  // peak LR sits in the single digits (the paper uses 2^2.5..2^5).
  sched::LegwBaseline base{32, 4.0f, 0.3};
  auto schedule = sched::legw_schedule(base, 32, [](float peak) {
    return std::make_shared<sched::PolynomialLr>(peak, 4.0, 2.0f);
  });
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 4;
  run.optimizer = "lars";
  run.weight_decay = 1e-4f;
  run.schedule = schedule.get();

  RunResult result = train_resnet(dataset, mcfg, run);
  EXPECT_FALSE(result.diverged);
  EXPECT_GT(result.final_metric, 0.3);
}

}  // namespace
}  // namespace legw::train
