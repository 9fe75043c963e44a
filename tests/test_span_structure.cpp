// Span-structure pin: the exact obs::TraceRecorder::span_counts() map of one
// small seeded run per runner. Each run is in protect mode with one injected
// NaN, so besides the step phases (step/data/forward/backward/clip/
// optimizer/eval) it also walks the checkpoint and rollback paths
// (ckpt_write/ckpt_restore/rollback/mitigate). The counts depend only on the
// seeded trajectory, never on the host, so a change to the training loop
// that drops, duplicates or renames a phase span fails here — which the
// golden suite, comparing two runs of the same code, cannot catch.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>

#include "guard/sentinel.hpp"
#include "obs/trace.hpp"
#include "sched/schedule.hpp"
#include "train/runners.hpp"

namespace legw::train {
namespace {

using SpanCounts = std::map<std::string, i64>;

struct TempDir {
  std::string path;
  // Pid-suffixed: ctest -j runs each test as its own process.
  explicit TempDir(const std::string& name)
      : path("/tmp/legw_spans_" + name + "_" + std::to_string(getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

class SpanStructure : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing_enabled(true);
    obs::TraceRecorder::global().clear();
  }
  void TearDown() override {
    obs::TraceRecorder::global().clear();
    obs::set_tracing_enabled(false);
  }

  // Protect mode, checkpoints every 2 steps, a NaN injected at
  // `anomaly_step` (one rollback), and per-epoch evaluation.
  static RunConfig protect_run(const sched::LrSchedule* schedule,
                               const std::string& dir, i64 batch_size,
                               i64 epochs, const char* optimizer,
                               const guard::AnomalyPlan* plan) {
    RunConfig run;
    run.batch_size = batch_size;
    run.epochs = epochs;
    run.optimizer = optimizer;
    run.schedule = schedule;
    run.checkpoint_dir = dir;
    run.checkpoint_every_steps = 2;
    run.checkpoint_keep_last = 0;
    run.sentinel.enabled = true;
    run.sentinel.window = 8;
    run.sentinel.min_history = 4;
    run.sentinel.bless_after = 2;
    run.anomaly_plan = plan;
    return run;
  }

  static void expect_spans(const RunResult& result, const SpanCounts& want) {
    EXPECT_FALSE(result.diverged);
    EXPECT_EQ(result.guard_rollbacks, 1);
    EXPECT_EQ(obs::TraceRecorder::global().span_counts(), want);
  }
};

TEST_F(SpanStructure, Mnist) {
  TempDir dir("mnist");
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  const auto plan = guard::AnomalyPlan::nan_at(6);
  const RunResult result = train_mnist(
      dataset, mcfg,
      protect_run(&schedule, dir.path, 32, 3, "momentum", &plan));
  expect_spans(result, {{"backward", 15}, {"ckpt_restore", 1},
                        {"ckpt_write", 9}, {"clip", 14}, {"data", 15},
                        {"eval", 3}, {"forward", 15}, {"mitigate", 1},
                        {"optimizer", 14}, {"rollback", 1}, {"step", 15}});
}

TEST_F(SpanStructure, Ptb) {
  TempDir dir("ptb");
  data::CorpusConfig ccfg;
  ccfg.vocab = 40;
  ccfg.n_train_tokens = 1200;
  ccfg.n_valid_tokens = 200;
  data::SyntheticCorpus corpus(ccfg);
  models::PtbConfig mcfg = models::PtbConfig::small(40);
  mcfg.embed_dim = 16;
  mcfg.hidden_dim = 16;
  mcfg.bptt_len = 8;
  mcfg.dropout = 0.2f;
  sched::ConstantLr schedule(0.5f);
  const auto plan = guard::AnomalyPlan::nan_at(10);
  const RunResult result = train_ptb(
      corpus, mcfg, protect_run(&schedule, dir.path, 8, 2, "momentum", &plan));
  expect_spans(result, {{"backward", 39}, {"ckpt_restore", 1},
                        {"ckpt_write", 21}, {"clip", 38}, {"data", 39},
                        {"eval", 2}, {"forward", 39}, {"mitigate", 1},
                        {"optimizer", 38}, {"rollback", 1}, {"step", 39}});
}

TEST_F(SpanStructure, Gnmt) {
  TempDir dir("gnmt");
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
  mcfg.residual_start = 2;
  mcfg.dropout = 0.1f;
  sched::ConstantLr schedule(0.01f);
  const auto plan = guard::AnomalyPlan::nan_at(6);
  // The rollback to step 4 replays the end of epoch 1, so its eval runs
  // twice: 5 evals over 4 epochs.
  const RunResult result = train_gnmt(
      dataset, mcfg, protect_run(&schedule, dir.path, 20, 4, "adam", &plan));
  expect_spans(result, {{"backward", 15}, {"ckpt_restore", 1},
                        {"ckpt_write", 9}, {"clip", 14}, {"data", 15},
                        {"eval", 5}, {"forward", 15}, {"mitigate", 1},
                        {"optimizer", 14}, {"rollback", 1}, {"step", 15}});
}

TEST_F(SpanStructure, Resnet) {
  TempDir dir("resnet");
  data::SyntheticImages dataset(96, 24, 42);
  models::ResNetConfig mcfg;
  mcfg.width = 4;
  mcfg.blocks_per_stage = 1;
  sched::ConstantLr schedule(0.05f);
  const auto plan = guard::AnomalyPlan::nan_at(6);
  const RunResult result = train_resnet(
      dataset, mcfg,
      protect_run(&schedule, dir.path, 32, 4, "momentum", &plan));
  expect_spans(result, {{"backward", 15}, {"ckpt_restore", 1},
                        {"ckpt_write", 9}, {"clip", 14}, {"data", 15},
                        {"eval", 5}, {"forward", 15}, {"mitigate", 1},
                        {"optimizer", 14}, {"rollback", 1}, {"step", 15}});
}

}  // namespace
}  // namespace legw::train
