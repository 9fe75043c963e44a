// Bitwise resume determinism: for every runner, N epochs + simulated crash +
// resume + remaining epochs must equal the uninterrupted run parameter for
// parameter AND step for step in the recorded train_loss series. This is the
// acceptance test of the checkpoint subsystem — a resume that silently
// changes the trajectory would invalidate any LEGW experiment that survived
// a preemption.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/flags.hpp"
#include "sched/legw.hpp"
#include "train/recorder.hpp"
#include "train/runners.hpp"

namespace legw::train {
namespace {

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name)
      : path("/tmp/legw_resume_" + name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

using Runner = std::function<RunResult(const RunConfig&)>;

void expect_series_match(const Recorder& expect, const Recorder& got,
                         i64 from_step, i64 to_step, const char* tag) {
  const auto* ref = expect.find_series("train_loss");
  const auto* res = got.find_series("train_loss");
  ASSERT_NE(ref, nullptr) << tag;
  ASSERT_NE(res, nullptr) << tag;
  for (const auto& p : *res) {
    if (p.step < from_step || p.step >= to_step) continue;
    bool found = false;
    for (const auto& q : *ref) {
      if (q.step == p.step) {
        EXPECT_EQ(p.value, q.value) << tag << " train_loss at step " << p.step;
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << tag << ": straight run missing step " << p.step;
  }
}

// The acceptance scenario: (a) run 2N epochs straight; (b) run the same
// seeded config with periodic checkpoints and an injected kill; (c) restart
// with resume=true and run to completion. Final parameters must match (a)
// bitwise, the crashed prefix and resumed suffix of the train_loss series
// must equal the straight run's exactly, and the resume must pick up from
// the newest checkpoint at or below the kill step.
void expect_bitwise_resume(const Runner& go, const RunConfig& base,
                           const ckpt::CrashPlan& plan, i64 every_steps,
                           i64 expected_resume_step, const std::string& tag) {
  TempDir dir(tag);

  Recorder rec_straight;
  RunConfig straight = base;
  straight.recorder = &rec_straight;
  straight.capture_final_params = true;
  const RunResult ref = go(straight);
  ASSERT_FALSE(ref.diverged) << tag;
  ASSERT_FALSE(ref.final_params.empty()) << tag;

  Recorder rec_crash;
  RunConfig crash = base;
  crash.recorder = &rec_crash;
  crash.checkpoint_dir = dir.path;
  crash.checkpoint_every_steps = every_steps;
  crash.crash_plan = &plan;
  const RunResult killed = go(crash);
  ASSERT_TRUE(killed.interrupted) << tag << ": injected kill did not fire";
  EXPECT_LT(killed.steps, ref.steps) << tag;

  Recorder rec_resume;
  RunConfig resumed = base;
  resumed.recorder = &rec_resume;
  resumed.checkpoint_dir = dir.path;
  resumed.checkpoint_every_steps = every_steps;
  resumed.resume = true;
  resumed.capture_final_params = true;
  const RunResult completed = go(resumed);
  ASSERT_FALSE(completed.diverged) << tag;
  EXPECT_FALSE(completed.interrupted) << tag;
  EXPECT_EQ(completed.resumed_from_step, expected_resume_step) << tag;
  EXPECT_EQ(completed.final_metric, ref.final_metric) << tag;

  // Parameter-for-parameter bitwise equality with the straight run.
  ASSERT_EQ(completed.final_params.size(), ref.final_params.size()) << tag;
  for (std::size_t p = 0; p < ref.final_params.size(); ++p) {
    const core::Tensor& a = ref.final_params[p];
    const core::Tensor& b = completed.final_params[p];
    ASSERT_EQ(a.numel(), b.numel()) << tag << " param " << p;
    for (i64 i = 0; i < a.numel(); ++i) {
      ASSERT_EQ(a[i], b[i]) << tag << " param " << p << " elem " << i;
    }
  }

  // The crashed prefix and the resumed suffix reproduce the straight run's
  // per-step train_loss series exactly.
  const i64 total = ref.steps;
  expect_series_match(rec_straight, rec_crash, 0, total,
                      (tag + ":prefix").c_str());
  expect_series_match(rec_straight, rec_resume, expected_resume_step, total,
                      (tag + ":suffix").c_str());
  const auto* res_series = rec_resume.find_series("train_loss");
  ASSERT_NE(res_series, nullptr) << tag;
  EXPECT_EQ(res_series->front().step, expected_resume_step) << tag;
  EXPECT_EQ(res_series->back().step, total - 1) << tag;
}

// ---- the four runners -------------------------------------------------------

TEST(CkptResume, MnistBitwise) {
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::LegwBaseline base{32, 0.1f, 0.2};
  auto schedule = sched::legw_constant(base, 32);
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 4;  // 4 steps/epoch -> 16 steps
  run.optimizer = "momentum";
  run.schedule = schedule.get();
  run.final_eval_only = true;
  // Kill at step 10 with checkpoints every 3: resume from step 9, mid-epoch
  // (exercises the non-epoch-aligned restart path).
  const auto plan = ckpt::CrashPlan::mid_step(10);
  expect_bitwise_resume(
      [&](const RunConfig& r) { return train_mnist(dataset, mcfg, r); }, run,
      plan, /*every=*/3, /*resume_step=*/9, "mnist");
}

TEST(CkptResume, PtbBitwiseWithDropoutAndCarriedState) {
  data::CorpusConfig ccfg;
  ccfg.vocab = 40;
  ccfg.n_train_tokens = 1200;
  ccfg.n_valid_tokens = 200;
  data::SyntheticCorpus corpus(ccfg);
  models::PtbConfig mcfg = models::PtbConfig::small(40);
  mcfg.embed_dim = 16;
  mcfg.hidden_dim = 16;
  mcfg.bptt_len = 8;
  mcfg.dropout = 0.2f;  // dropout RNG stream must survive the resume
  sched::ConstantLr schedule(0.5f);
  RunConfig run;
  run.batch_size = 8;
  run.epochs = 2;
  run.optimizer = "momentum";
  run.schedule = &schedule;
  run.final_eval_only = true;
  data::BpttBatcher probe(corpus.train_tokens(), run.batch_size, mcfg.bptt_len);
  const i64 per_epoch = probe.chunks_per_epoch();
  ASSERT_GE(per_epoch, 6);
  // Kill mid-second-epoch; resume lands mid-epoch with carried BPTT state.
  const i64 crash_step = per_epoch + 3;
  const i64 every = 2;
  // A mid-step kill fires before that step's checkpoint write, so the resume
  // point is the newest cadence multiple strictly below the crash step.
  const i64 resume_step = ((crash_step - 1) / every) * every;
  const auto plan = ckpt::CrashPlan::mid_step(crash_step);
  expect_bitwise_resume(
      [&](const RunConfig& r) { return train_ptb(corpus, mcfg, r); }, run,
      plan, every, resume_step, "ptb");
}

TEST(CkptResume, GnmtBitwiseWithDropout) {
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
  RunConfig run;
  run.batch_size = 20;
  run.epochs = 4;  // 3 steps/epoch -> 12 steps
  run.optimizer = "adam";
  run.schedule = &schedule;
  run.final_eval_only = true;
  const auto plan = ckpt::CrashPlan::mid_step(7);
  expect_bitwise_resume(
      [&](const RunConfig& r) { return train_gnmt(dataset, mcfg, r); }, run,
      plan, /*every=*/2, /*resume_step=*/6, "gnmt");
}

TEST(CkptResume, ResnetBitwiseWithBatchNormBuffers) {
  data::SyntheticImages dataset(96, 24, 42);
  models::ResNetConfig mcfg;
  mcfg.width = 4;
  mcfg.blocks_per_stage = 1;
  sched::ConstantLr schedule(0.05f);
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 4;  // 3 steps/epoch -> 12 steps
  run.optimizer = "momentum";
  run.schedule = &schedule;
  run.final_eval_only = true;
  const auto plan = ckpt::CrashPlan::mid_step(7);
  expect_bitwise_resume(
      [&](const RunConfig& r) { return train_resnet(dataset, mcfg, r); }, run,
      plan, /*every=*/2, /*resume_step=*/6, "resnet");
}

// ---- crash kinds beyond mid-step --------------------------------------------

TEST(CkptResume, MidWriteCrashFallsBackToPreviousCheckpoint) {
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 3;  // 12 steps
  run.optimizer = "momentum";
  run.schedule = &schedule;
  run.final_eval_only = true;
  // The kill fires *during the write* of the step-6 checkpoint: nothing is
  // published for step 6, so the resume must come from step 4.
  const auto plan = ckpt::CrashPlan::mid_write(6, 0.7);
  expect_bitwise_resume(
      [&](const RunConfig& r) { return train_mnist(dataset, mcfg, r); }, run,
      plan, /*every=*/2, /*resume_step=*/4, "midwrite");
}

TEST(CkptResume, TornPublishIsDetectedAndSkipped) {
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 3;
  run.optimizer = "momentum";
  run.schedule = &schedule;
  run.final_eval_only = true;
  // A truncated file lands at the *final* step-6 path (non-atomic
  // filesystem model); the loader must reject it by CRC/truncation and fall
  // back to step 4 — still reproducing the straight run bitwise.
  const auto plan = ckpt::CrashPlan::torn_publish(6, 0.5);
  expect_bitwise_resume(
      [&](const RunConfig& r) { return train_mnist(dataset, mcfg, r); }, run,
      plan, /*every=*/2, /*resume_step=*/4, "tornpublish");
}

// ---- resuming a finished run ------------------------------------------------

// A run killed after its last checkpoint but before (or during) its final
// eval resumes at the end: no step is left, yet the eval tail must still
// run, so the resumed run reports the straight run's metric rather than the
// never-evaluated worst value, and its last step's loss rather than 0.
TEST(CkptResume, ResumingAFinishedRunReportsItsMetric) {
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  TempDir dir("finished");
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 4;  // 4 steps/epoch -> 16 steps
  run.optimizer = "momentum";
  run.schedule = &schedule;
  run.checkpoint_dir = dir.path;
  run.checkpoint_every_steps = 4;
  const RunResult first = train_mnist(dataset, mcfg, run);
  ASSERT_FALSE(first.interrupted);
  ASSERT_EQ(first.steps, 16);
  ASSERT_GT(first.final_metric, 0.0) << "worst metric would pass vacuously";

  Recorder rec;
  run.resume = true;
  run.recorder = &rec;
  const RunResult again = train_mnist(dataset, mcfg, run);
  EXPECT_EQ(again.resumed_from_step, 16);
  EXPECT_EQ(again.steps, 0);
  EXPECT_FALSE(again.interrupted);
  EXPECT_EQ(again.final_metric, first.final_metric);
  EXPECT_EQ(again.final_train_loss, first.final_train_loss);
  ASSERT_EQ(again.per_epoch_metric.size(), 1u);
  EXPECT_EQ(again.per_epoch_metric[0], first.per_epoch_metric.back());
  EXPECT_EQ(rec.find_series("train_loss"), nullptr) << "no step may run";
  const auto* metric = rec.find_series("test_acc");
  ASSERT_NE(metric, nullptr);
  ASSERT_EQ(metric->size(), 1u);
  EXPECT_EQ(metric->front().step, 3) << "the last epoch's eval tail";
}

// The same contract for any runner: a straight run checkpointing at its last
// step, then a resume from that checkpoint with no step left. The resumed
// run must report the straight run's metric from its one eval tail and its
// last step's loss, and leave the parameters bit for bit as the straight run
// left them.
void expect_finished_resume(const Runner& go, const RunConfig& base,
                            i64 every_steps, const std::string& tag) {
  TempDir dir("finished_" + tag);
  RunConfig run = base;
  run.checkpoint_dir = dir.path;
  run.checkpoint_every_steps = every_steps;
  run.capture_final_params = true;
  const RunResult first = go(run);
  ASSERT_FALSE(first.interrupted) << tag;
  ASSERT_FALSE(first.diverged) << tag;
  ASSERT_EQ(first.steps % every_steps, 0) << tag << ": no final checkpoint";
  ASSERT_FALSE(first.per_epoch_metric.empty()) << tag;

  Recorder rec;
  run.resume = true;
  run.recorder = &rec;
  const RunResult again = go(run);
  EXPECT_EQ(again.resumed_from_step, first.steps) << tag;
  EXPECT_EQ(again.steps, 0) << tag;
  EXPECT_FALSE(again.interrupted) << tag;
  EXPECT_EQ(again.final_metric, first.final_metric) << tag;
  EXPECT_EQ(again.final_train_loss, first.final_train_loss) << tag;
  ASSERT_EQ(again.per_epoch_metric.size(), 1u) << tag;
  EXPECT_EQ(again.per_epoch_metric[0], first.per_epoch_metric.back()) << tag;
  EXPECT_EQ(rec.find_series("train_loss"), nullptr) << tag << ": a step ran";

  ASSERT_EQ(again.final_params.size(), first.final_params.size()) << tag;
  for (std::size_t p = 0; p < first.final_params.size(); ++p) {
    const core::Tensor& a = first.final_params[p];
    const core::Tensor& b = again.final_params[p];
    ASSERT_EQ(a.numel(), b.numel()) << tag << " param " << p;
    for (i64 i = 0; i < a.numel(); ++i) {
      ASSERT_EQ(a[i], b[i]) << tag << " param " << p << " elem " << i;
    }
  }
}

TEST(CkptResume, ResumingAFinishedPtbRunReportsItsMetric) {
  data::CorpusConfig ccfg;
  ccfg.vocab = 40;
  ccfg.n_train_tokens = 1200;
  ccfg.n_valid_tokens = 200;
  data::SyntheticCorpus corpus(ccfg);
  models::PtbConfig mcfg = models::PtbConfig::small(40);
  mcfg.embed_dim = 16;
  mcfg.hidden_dim = 16;
  mcfg.bptt_len = 8;
  sched::ConstantLr schedule(0.5f);
  RunConfig run;
  run.batch_size = 8;
  run.epochs = 2;
  run.optimizer = "momentum";
  run.schedule = &schedule;
  data::BpttBatcher probe(corpus.train_tokens(), run.batch_size, mcfg.bptt_len);
  expect_finished_resume(
      [&](const RunConfig& r) { return train_ptb(corpus, mcfg, r); }, run,
      /*every=*/probe.chunks_per_epoch(), "ptb");
}

// GNMT's final eval is a greedy decode over the test set, the slowest tail
// of any runner and so the likeliest place for a kill to land.
TEST(CkptResume, ResumingAFinishedGnmtRunReportsItsMetric) {
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
  sched::ConstantLr schedule(0.01f);
  RunConfig run;
  run.batch_size = 20;
  run.epochs = 4;  // 3 steps/epoch -> 12 steps
  run.optimizer = "adam";
  run.schedule = &schedule;
  run.final_eval_only = true;
  expect_finished_resume(
      [&](const RunConfig& r) { return train_gnmt(dataset, mcfg, r); }, run,
      /*every=*/4, "gnmt");
}

TEST(CkptResume, ResumingAFinishedResnetRunReportsItsMetric) {
  // The eval tail runs batch norm in inference mode, so it reads the
  // running statistics restored from the checkpoint's buffers.
  data::SyntheticImages dataset(96, 24, 42);
  models::ResNetConfig mcfg;
  mcfg.width = 4;
  mcfg.blocks_per_stage = 1;
  sched::ConstantLr schedule(0.05f);
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 4;  // 3 steps/epoch -> 12 steps
  run.optimizer = "momentum";
  run.schedule = &schedule;
  run.final_eval_only = true;
  expect_finished_resume(
      [&](const RunConfig& r) { return train_resnet(dataset, mcfg, r); }, run,
      /*every=*/6, "resnet");
}

TEST(CkptResume, ResumingAFinishedReplicatedRunReportsItsMetric) {
  // Four replicas over an int8 wire: the restore also reloads every
  // replica and its error-feedback residuals before the eval tail.
  const core::WireFormat saved = core::dist_wire();
  core::set_dist_wire(core::WireFormat::kInt8);
  data::SyntheticMnist dataset(128, 16, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 2;  // 4 steps/epoch -> 8 steps
  run.optimizer = "momentum";
  run.schedule = &schedule;
  run.replicas = 4;
  expect_finished_resume(
      [&](const RunConfig& r) { return train_mnist(dataset, mcfg, r); }, run,
      /*every=*/4, "replicas4_int8");
  core::set_dist_wire(saved);
}

// ---- data-parallel replicas -------------------------------------------------

class CkptResumeReplicas : public ::testing::TestWithParam<int> {};

TEST_P(CkptResumeReplicas, MnistBitwiseAcrossReplicasAndEngines) {
  const int n_replicas = GetParam();

  data::SyntheticMnist dataset(128, 16, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 2;  // 4 steps/epoch -> 8 steps
  run.optimizer = "momentum";
  run.schedule = &schedule;
  run.final_eval_only = true;
  run.replicas = n_replicas;
  const auto plan = ckpt::CrashPlan::mid_step(5);
  expect_bitwise_resume(
      [&](const RunConfig& r) { return train_mnist(dataset, mcfg, r); }, run,
      plan, /*every=*/2, /*resume_step=*/4,
      "replicas" + std::to_string(n_replicas));
}

INSTANTIATE_TEST_SUITE_P(
    ReplicaMatrix, CkptResumeReplicas, ::testing::Values(1, 2, 4),
    [](const ::testing::TestParamInfo<int>& info) {
      return "r" + std::to_string(info.param);
    });

// ---- data-parallel replicas over a quantized wire ---------------------------
//
// A lossy wire (LEGW_DIST_WIRE) gives the runner error-feedback residuals
// that carry across steps; they ride in the checkpoint's extra tensors, so a
// resume must restore them bit for bit or the resumed trajectory drifts.

using WireParam = std::tuple<int, core::WireFormat>;

class CkptResumeWire : public ::testing::TestWithParam<WireParam> {};

TEST_P(CkptResumeWire, MnistBitwiseOverQuantizedWire) {
  const int n_replicas = std::get<0>(GetParam());
  const core::WireFormat format = std::get<1>(GetParam());
  const core::WireFormat saved = core::dist_wire();
  core::set_dist_wire(format);

  data::SyntheticMnist dataset(128, 16, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 2;  // 4 steps/epoch -> 8 steps
  run.optimizer = "momentum";
  run.schedule = &schedule;
  run.final_eval_only = true;
  run.replicas = n_replicas;
  const auto plan = ckpt::CrashPlan::mid_step(5);
  expect_bitwise_resume(
      [&](const RunConfig& r) { return train_mnist(dataset, mcfg, r); }, run,
      plan, /*every=*/2, /*resume_step=*/4,
      "replicas" + std::to_string(n_replicas) + "_" +
          core::wire_format_name(format));

  core::set_dist_wire(saved);
}

INSTANTIATE_TEST_SUITE_P(
    WireMatrix, CkptResumeWire,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values(core::WireFormat::kFp16,
                                         core::WireFormat::kInt8)),
    [](const ::testing::TestParamInfo<WireParam>& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "_" +
             core::wire_format_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace legw::train
