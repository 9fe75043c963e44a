// The `epoch` counter stamped into a checkpoint is step / steps_per_epoch —
// the epoch the next step runs in — whichever save wrote the file: the
// periodic save, the guard's step-0 rollback target, or its rollback
// re-save of the restored step. At an epoch boundary the periodic save and
// the re-save of the same step must agree, so a file's epoch (what
// ServeSession::checkpoint_epoch() reports) never changes after a rollback.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "guard/sentinel.hpp"
#include "obs/trace.hpp"
#include "sched/schedule.hpp"
#include "serve/container.hpp"
#include "train/runners.hpp"

namespace legw::train {
namespace {

struct TempDir {
  std::string path;
  // Pid-suffixed: ctest -j runs each test as its own process.
  explicit TempDir(const std::string& name)
      : path("/tmp/legw_ckpt_epoch_" + name + "_" + std::to_string(getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

i64 epoch_of(const std::string& dir, i64 step) {
  serve::ModelImage img;
  const serve::Result r = serve::read_model_image(
      ckpt::CheckpointManager::step_path(dir, step), &img);
  EXPECT_TRUE(r.ok()) << "step " << step << ": " << r.message;
  EXPECT_EQ(img.step, step);
  return img.epoch;
}

TEST(CkptEpoch, BoundaryStepAgreesBeforeAndAfterRollbackResave) {
  data::SyntheticMnist dataset(128, 32, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);
  RunConfig run;
  run.batch_size = 32;
  run.epochs = 3;  // 4 steps/epoch -> 12 steps
  run.schedule = &schedule;
  run.final_eval_only = true;
  run.checkpoint_every_steps = 2;
  run.checkpoint_keep_last = 0;
  run.sentinel.enabled = true;
  run.sentinel.window = 8;
  run.sentinel.min_history = 4;
  run.sentinel.bless_after = 2;

  // Before: the anomaly-free run's periodic saves, including the step-0
  // rollback target and the boundary steps 4, 8 and 12.
  TempDir clean("clean");
  run.checkpoint_dir = clean.path;
  ASSERT_FALSE(train_mnist(dataset, mcfg, run).diverged);
  EXPECT_EQ(epoch_of(clean.path, 0), 0);
  EXPECT_EQ(epoch_of(clean.path, 2), 0);
  EXPECT_EQ(epoch_of(clean.path, 4), 1);
  EXPECT_EQ(epoch_of(clean.path, 6), 1);
  EXPECT_EQ(epoch_of(clean.path, 8), 2);
  EXPECT_EQ(epoch_of(clean.path, 12), 3);

  // After: a NaN at step 6 rolls back to the blessed boundary step 4, and
  // the guard re-saves step 4 with its updated ledger.
  TempDir anom("anom");
  run.checkpoint_dir = anom.path;
  const auto plan = guard::AnomalyPlan::nan_at(6);
  run.anomaly_plan = &plan;
  obs::TraceRecorder::global().clear();
  const RunResult got = train_mnist(dataset, mcfg, run);
  ASSERT_FALSE(got.diverged);
  ASSERT_EQ(got.guard_rollbacks, 1);
  std::string to_step;
  for (const auto& e : obs::TraceRecorder::global().events()) {
    if (e.kind != "guard_rollback") continue;
    for (const auto& [key, value] : e.fields) {
      if (key == "to_step") to_step = value;
    }
  }
  obs::TraceRecorder::global().clear();
  ASSERT_EQ(to_step, "4");
  EXPECT_EQ(epoch_of(anom.path, 4), epoch_of(clean.path, 4));
}

}  // namespace
}  // namespace legw::train
