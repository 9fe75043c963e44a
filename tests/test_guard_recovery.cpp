// End-to-end stability-sentinel acceptance: for every runner, a seeded
// injected anomaly (NaN / loss spike / gradient explosion) must be detected,
// rolled back to the newest blessed checkpoint, and recovered from — and the
// post-rollback trajectory must be bitwise-identical to the same protect-mode
// run with no anomaly at all (level-1 mitigation retries as-is, and a
// detected anomaly never reaches the optimizer). Escalation, ladder
// exhaustion, crash-mid-recovery resume, and observe-mode transparency ride
// along.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/flags.hpp"
#include "core/rng.hpp"
#include "guard/sentinel.hpp"
#include "nn/layers.hpp"
#include "obs/trace.hpp"
#include "optim/optimizer.hpp"
#include "sched/schedule.hpp"
#include "train/runners.hpp"

namespace legw::train {
namespace {

struct TempDir {
  std::string path;
  // Pid-suffixed: ctest -j runs each test as its own process.
  explicit TempDir(const std::string& name)
      : path("/tmp/legw_guard_e2e_" + name + "_" + std::to_string(getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

void expect_params_equal(const RunResult& a, const RunResult& b,
                         const char* tag) {
  ASSERT_FALSE(a.final_params.empty()) << tag;
  ASSERT_EQ(a.final_params.size(), b.final_params.size()) << tag;
  for (std::size_t p = 0; p < a.final_params.size(); ++p) {
    const core::Tensor& x = a.final_params[p];
    const core::Tensor& y = b.final_params[p];
    ASSERT_EQ(x.numel(), y.numel()) << tag << " param " << p;
    for (i64 i = 0; i < x.numel(); ++i) {
      ASSERT_EQ(x[i], y[i]) << tag << " param " << p << " elem " << i;
    }
  }
}

// Small-but-real sentinel geometry: relative baselines have history by step
// 4, checkpoints ripen after 2 healthy steps.
guard::SentinelConfig test_sentinel() {
  guard::SentinelConfig c;
  c.enabled = true;
  c.window = 8;
  c.min_history = 4;
  c.bless_after = 2;
  return c;
}

// 24-step seeded mnist run; checkpoint cadence 2, everything retained so the
// tests can reason about exact rollback targets.
RunConfig mnist_run(const sched::LrSchedule* schedule,
                    const std::string& dir) {
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 6;  // 4 steps/epoch -> 24 steps
  run.optimizer = "momentum";
  run.schedule = schedule;
  run.final_eval_only = true;
  run.capture_final_params = true;
  run.checkpoint_dir = dir;
  run.checkpoint_every_steps = 2;
  run.checkpoint_keep_last = 0;
  run.sentinel = test_sentinel();
  return run;
}

using Runner = std::function<RunResult(const RunConfig&)>;

// The core acceptance scenario: a protect-mode run with one injected anomaly
// must complete, having detected + rolled back exactly once, with final
// parameters bitwise-equal to the anomaly-free protect run (level-1
// mitigation replays the blessed trajectory as-is).
void expect_single_anomaly_recovery(const Runner& go, const RunConfig& base,
                                    const guard::AnomalyPlan& plan,
                                    const std::string& tag) {
  TempDir clean_dir(tag + "_clean");
  TempDir anom_dir(tag + "_anom");

  RunConfig clean = base;
  clean.checkpoint_dir = clean_dir.path;
  const RunResult ref = go(clean);
  ASSERT_FALSE(ref.diverged) << tag;
  EXPECT_EQ(ref.guard_anomalies, 0) << tag;
  EXPECT_EQ(ref.guard_rollbacks, 0) << tag;

  RunConfig anom = base;
  anom.checkpoint_dir = anom_dir.path;
  anom.anomaly_plan = &plan;
  const RunResult got = go(anom);
  ASSERT_FALSE(got.diverged) << tag << ": recovery did not complete";
  EXPECT_FALSE(got.interrupted) << tag;
  EXPECT_EQ(got.guard_anomalies, 1) << tag << ": anomaly not detected";
  EXPECT_EQ(got.guard_rollbacks, 1) << tag << ": rollback not performed";
  EXPECT_EQ(got.guard_escalation_max, 1) << tag;
  EXPECT_FALSE(got.guard_failed) << tag;
  expect_params_equal(ref, got, tag.c_str());
}

// ---- anomaly classes x mnist ------------------------------------------------

TEST(GuardRecovery, MnistNaNDetectedAndRecovered) {
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  const auto plan = guard::AnomalyPlan::nan_at(10);
  expect_single_anomaly_recovery(
      [&](const RunConfig& r) { return train_mnist(dataset, mcfg, r); },
      mnist_run(&schedule, ""), plan, "mnist_nan");
}

TEST(GuardRecovery, MnistLossSpikeDetectedAndRecovered) {
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  const auto plan = guard::AnomalyPlan::loss_spike_at(10, 1e3f);
  expect_single_anomaly_recovery(
      [&](const RunConfig& r) { return train_mnist(dataset, mcfg, r); },
      mnist_run(&schedule, ""), plan, "mnist_spike");
}

TEST(GuardRecovery, MnistGradExplosionDetectedAndRecovered) {
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  const auto plan = guard::AnomalyPlan::grad_explosion_at(10, 1e6f);
  expect_single_anomaly_recovery(
      [&](const RunConfig& r) { return train_mnist(dataset, mcfg, r); },
      mnist_run(&schedule, ""), plan, "mnist_grad");
}

// ---- the other three runners ------------------------------------------------

TEST(GuardRecovery, PtbAnomaliesRecoverWithCarriedStateAndDropout) {
  data::CorpusConfig ccfg;
  ccfg.vocab = 40;
  ccfg.n_train_tokens = 1200;
  ccfg.n_valid_tokens = 200;
  data::SyntheticCorpus corpus(ccfg);
  models::PtbConfig mcfg = models::PtbConfig::small(40);
  mcfg.embed_dim = 16;
  mcfg.hidden_dim = 16;
  mcfg.bptt_len = 8;
  mcfg.dropout = 0.2f;  // the dropout RNG must replay through the rollback
  sched::ConstantLr schedule(0.5f);
  RunConfig base = mnist_run(&schedule, "");
  base.batch_size = 8;
  base.epochs = 2;
  const Runner go = [&](const RunConfig& r) {
    return train_ptb(corpus, mcfg, r);
  };
  expect_single_anomaly_recovery(go, base, guard::AnomalyPlan::nan_at(10),
                                 "ptb_nan");
  expect_single_anomaly_recovery(
      go, base, guard::AnomalyPlan::loss_spike_at(10, 1e3f), "ptb_spike");
}

TEST(GuardRecovery, GnmtNaNDetectedAndRecovered) {
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
  RunConfig base = mnist_run(&schedule, "");
  base.batch_size = 20;
  base.epochs = 4;  // 3 steps/epoch -> 12 steps
  base.optimizer = "adam";
  expect_single_anomaly_recovery(
      [&](const RunConfig& r) { return train_gnmt(dataset, mcfg, r); }, base,
      guard::AnomalyPlan::nan_at(6), "gnmt_nan");
}

TEST(GuardRecovery, ResnetNaNDetectedAndRecovered) {
  data::SyntheticImages dataset(96, 24, 42);
  models::ResNetConfig mcfg;
  mcfg.width = 4;
  mcfg.blocks_per_stage = 1;
  sched::ConstantLr schedule(0.05f);
  RunConfig base = mnist_run(&schedule, "");
  base.epochs = 4;  // 3 steps/epoch -> 12 steps
  expect_single_anomaly_recovery(
      [&](const RunConfig& r) { return train_resnet(dataset, mcfg, r); },
      base, guard::AnomalyPlan::nan_at(6), "resnet_nan");
}

// ---- escalation -------------------------------------------------------------

TEST(GuardRecovery, EscalatingMitigationIsDeterministic) {
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  // Back-to-back anomalies: the second fires during recovery, escalating to
  // level 2 (LR backoff + re-warmup ramp).
  guard::AnomalyPlan plan = guard::AnomalyPlan::loss_spike_at(10, 1e3f);
  plan.add(11, guard::AnomalyPlan::Kind::kLossSpike, 1e3f);

  auto go = [&](const std::string& tag) {
    TempDir dir(tag);
    RunConfig run = mnist_run(&schedule, dir.path);
    run.mitigation.rewarm_steps = 4;
    run.anomaly_plan = &plan;
    return train_mnist(dataset, mcfg, run);
  };
  const RunResult a = go("esc_a");
  ASSERT_FALSE(a.diverged);
  EXPECT_EQ(a.guard_anomalies, 2);
  EXPECT_EQ(a.guard_rollbacks, 2);
  EXPECT_EQ(a.guard_escalation_max, 2);
  EXPECT_FALSE(a.guard_failed);
  // The mitigated trajectory (backed-off LR, re-warmup) is itself seeded and
  // deterministic: a second identical run reproduces it bitwise.
  const RunResult b = go("esc_b");
  expect_params_equal(a, b, "escalation determinism");
}

TEST(GuardRecovery, ExhaustedLadderFailsWithStructuredReport) {
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  guard::AnomalyPlan plan = guard::AnomalyPlan::loss_spike_at(10, 1e3f);
  plan.add(11, guard::AnomalyPlan::Kind::kLossSpike, 1e3f)
      .add(12, guard::AnomalyPlan::Kind::kLossSpike, 1e3f);
  TempDir dir("exhaust");
  RunConfig run = mnist_run(&schedule, dir.path);
  run.mitigation.max_escalations = 2;
  run.mitigation.rewarm_steps = 16;  // keep the episode open across replays
  run.anomaly_plan = &plan;
  const RunResult got = train_mnist(dataset, mcfg, run);
  EXPECT_TRUE(got.guard_failed);
  EXPECT_TRUE(got.diverged);
  EXPECT_EQ(got.guard_anomalies, 3);
  EXPECT_EQ(got.guard_rollbacks, 2);  // the third anomaly exhausts the ladder
  EXPECT_EQ(got.guard_escalation_max, 2);
  ASSERT_FALSE(got.guard_report.empty());
  EXPECT_NE(got.guard_report.find("ladder exhausted"), std::string::npos);
  EXPECT_NE(got.guard_report.find("loss_spike"), std::string::npos);
}

// ---- crash mid-recovery -----------------------------------------------------

TEST(GuardRecovery, CrashMidRecoveryResumesWithLedgerIntact) {
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  const auto plan = guard::AnomalyPlan::loss_spike_at(10, 1e3f);

  // Reference: the anomaly recovery running to completion uninterrupted.
  TempDir ref_dir("crash_ref");
  RunConfig ref_run = mnist_run(&schedule, ref_dir.path);
  ref_run.anomaly_plan = &plan;
  const RunResult ref = train_mnist(dataset, mcfg, ref_run);
  ASSERT_FALSE(ref.diverged);
  ASSERT_EQ(ref.guard_rollbacks, 1);

  // The same run killed mid-replay: anomaly at 10 rolls back to the blessed
  // step-8 checkpoint, and the injected kill fires at step 12 of the replay
  // — after the rollback machinery ran, before the episode is over.
  TempDir dir("crash_mid");
  const auto crash = ckpt::CrashPlan::mid_step(12);
  RunConfig killed_run = mnist_run(&schedule, dir.path);
  killed_run.anomaly_plan = &plan;
  killed_run.crash_plan = &crash;
  const RunResult killed = train_mnist(dataset, mcfg, killed_run);
  ASSERT_TRUE(killed.interrupted) << "injected kill did not fire";
  ASSERT_EQ(killed.guard_rollbacks, 1);
  // The rollback re-saved the blessed target with the updated ledger, so the
  // on-disk trajectory is the recovery's: step 8 blessed, step 10 unblessed.
  EXPECT_TRUE(ckpt::CheckpointManager::is_blessed(
      ckpt::CheckpointManager::step_path(dir.path, 8)));

  // Resuming restores the sentinel state (escalation ledger, fired-injection
  // set, episode) from the checkpoint extra section and completes the
  // recovery exactly as the uninterrupted run did — bitwise.
  RunConfig resumed_run = mnist_run(&schedule, dir.path);
  resumed_run.anomaly_plan = &plan;
  resumed_run.resume = true;
  const RunResult completed = train_mnist(dataset, mcfg, resumed_run);
  ASSERT_FALSE(completed.diverged);
  EXPECT_FALSE(completed.interrupted);
  EXPECT_EQ(completed.resumed_from_step, 10);
  // The fired-injection set survived: the step-10 anomaly does not re-fire.
  EXPECT_EQ(completed.guard_anomalies, 0);
  EXPECT_EQ(completed.guard_rollbacks, 0);
  expect_params_equal(ref, completed, "crash mid-recovery");
}

// ---- observe mode -----------------------------------------------------------

TEST(GuardRecovery, ObserveModeKeepsTrajectoryBitwise) {
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
  run.capture_final_params = true;

  const core::GuardMode saved = core::guard_mode();
  core::set_guard_mode(core::GuardMode::kOff);
  const RunResult off = train_mnist(dataset, mcfg, run);
  core::set_guard_mode(core::GuardMode::kObserve);
  const RunResult observed = train_mnist(dataset, mcfg, run);
  core::set_guard_mode(saved);

  ASSERT_FALSE(off.diverged);
  ASSERT_FALSE(observed.diverged);
  // Observe mode watches signals but never intervenes: same bits out.
  expect_params_equal(off, observed, "observe mode");
  EXPECT_EQ(observed.guard_rollbacks, 0);
}

// ---- counters without tracing -----------------------------------------------

TEST(GuardRecovery, ObserveRunCountsEveryStepWithTracingDisabled) {
  // guard.* and steps ride every telemetry record, so an ordinary run (no
  // LEGW_TRACE) must still leave them in the recorder's counters.
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 2;
  run.optimizer = "momentum";
  run.schedule = &schedule;
  run.final_eval_only = true;

  const core::GuardMode saved_mode = core::guard_mode();
  const bool was_tracing = obs::tracing_enabled();
  core::set_guard_mode(core::GuardMode::kObserve);
  obs::set_tracing_enabled(false);
  obs::TraceRecorder::global().clear();
  const RunResult got = train_mnist(dataset, mcfg, run);
  const auto counters = obs::TraceRecorder::global().counters();
  const bool spans_empty = obs::TraceRecorder::global().spans().empty();
  obs::TraceRecorder::global().clear();
  obs::set_tracing_enabled(was_tracing);
  core::set_guard_mode(saved_mode);

  ASSERT_FALSE(got.diverged);
  ASSERT_GT(got.steps, 0);
  ASSERT_NE(counters.find("guard.steps"), counters.end());
  EXPECT_EQ(counters.at("guard.steps"), got.steps);
  ASSERT_NE(counters.find("steps"), counters.end());
  EXPECT_EQ(counters.at("steps"), got.steps);
  EXPECT_TRUE(spans_empty) << "spans stay gated by the tracing flag";
}

TEST(GuardRecovery, RollbackCountersRecordWithTracingDisabled) {
  // A protect-mode recovery in an ordinary run: the anomaly, the rollback
  // and the checkpoint traffic behind it all reach counters().
  TempDir dir("counters");
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  RunConfig run = mnist_run(&schedule, dir.path);
  const auto plan = guard::AnomalyPlan::nan_at(10);
  run.anomaly_plan = &plan;

  const bool was_tracing = obs::tracing_enabled();
  obs::set_tracing_enabled(false);
  obs::TraceRecorder::global().clear();
  const RunResult got = train_mnist(dataset, mcfg, run);
  const auto counters = obs::TraceRecorder::global().counters();
  obs::TraceRecorder::global().clear();
  obs::set_tracing_enabled(was_tracing);

  ASSERT_FALSE(got.diverged);
  ASSERT_EQ(got.guard_rollbacks, 1);
  const auto counter = [&](const char* name) -> i64 {
    const auto it = counters.find(name);
    return it == counters.end() ? -1 : it->second;
  };
  EXPECT_EQ(counter("guard.anomalies"), 1);
  EXPECT_EQ(counter("guard.rollbacks"), 1);
  EXPECT_GT(counter("guard.steps"), 0);
  EXPECT_GT(counter("guard.blessed"), 0);
  EXPECT_GT(counter("ckpt_writes"), 0);
  EXPECT_GE(counter("ckpt_restores"), 1);
}

// ---- corrupt-skip telemetry events ------------------------------------------

TEST(GuardRecovery, CorruptCheckpointSkipEmitsTelemetryEvents) {
  TempDir dir("corrupt_events");
  ckpt::ManagerConfig cfg;
  cfg.dir = dir.path + "/ckpts";
  cfg.every_steps = 2;
  cfg.keep_last = 0;
  ckpt::CheckpointManager mgr(cfg);

  core::Rng rng(5);
  nn::Linear model(3, 2, rng);
  auto opt = optim::make_optimizer("momentum", model.parameters(), 0.0f);
  ckpt::TrainState s;
  s.models.push_back(&model);
  s.optimizers.push_back(opt.get());
  s.step = 2;
  ASSERT_TRUE(mgr.save_now(s).ok());
  s.step = 4;
  ASSERT_TRUE(mgr.save_now(s).ok());
  // Truncate the newest file: restore must skip it, fall back to step 2, and
  // leave a machine-readable trail in the event log.
  const std::string newest = ckpt::CheckpointManager::step_path(cfg.dir, 4);
  const auto full = std::filesystem::file_size(newest);
  std::filesystem::resize_file(newest, full / 2);

  obs::TraceRecorder::global().clear();
  ckpt::TrainState tgt;
  tgt.models.push_back(&model);
  tgt.optimizers.push_back(opt.get());
  const auto outcome = mgr.restore_latest(tgt);
  ASSERT_TRUE(outcome.restored);
  EXPECT_EQ(tgt.step, 2);

  const auto events = obs::TraceRecorder::global().events();
  bool saw_skip = false;
  bool saw_fallback = false;
  for (const auto& e : events) {
    if (e.kind == "ckpt_corrupt_skipped") {
      saw_skip = true;
      bool has_path = false;
      for (const auto& [k, v] : e.fields) {
        if (k == "path") {
          has_path = true;
          EXPECT_NE(v.find("000000000004"), std::string::npos);
        }
      }
      EXPECT_TRUE(has_path);
    }
    if (e.kind == "ckpt_fallback") saw_fallback = true;
  }
  EXPECT_TRUE(saw_skip) << "no ckpt_corrupt_skipped event recorded";
  EXPECT_TRUE(saw_fallback) << "no ckpt_fallback event recorded";
  obs::TraceRecorder::global().clear();
}

}  // namespace
}  // namespace legw::train
