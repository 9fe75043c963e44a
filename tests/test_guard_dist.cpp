// Rank-consistent recovery under data parallelism: the anomaly x replicas
// matrix, and the same matrix over a quantized wire. Every replica must take
// the identical rollback decision (verdicts reduce by max severity), the
// recovery must keep the replicas bit-synchronised, and the recovered run
// must match the anomaly-free protect run bitwise. Compiled into both the
// guard suite and the concurrency suite (the engine spins up real threads,
// so tsan covers it).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "core/flags.hpp"
#include "guard/sentinel.hpp"
#include "sched/schedule.hpp"
#include "train/runners.hpp"

namespace legw::train {
namespace {

struct TempDir {
  std::string path;
  // Pid-suffixed: ctest -j runs each test as its own process.
  explicit TempDir(const std::string& name)
      : path("/tmp/legw_guard_dist_" + name + "_" + std::to_string(getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

void expect_params_equal(const RunResult& a, const RunResult& b,
                         const std::string& tag) {
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

const char* kind_name(guard::AnomalyPlan::Kind kind) {
  switch (kind) {
    case guard::AnomalyPlan::Kind::kNaN: return "nan";
    case guard::AnomalyPlan::Kind::kLossSpike: return "spike";
    case guard::AnomalyPlan::Kind::kGradExplosion: return "grad";
  }
  return "nan";
}

// One cell of the matrix: an anomaly-free protect run and the same run with
// one injected anomaly at step 10 must end bitwise equal.
void expect_rank_consistent_recovery(int n_replicas,
                                     guard::AnomalyPlan::Kind kind,
                                     const std::string& tag) {

  data::SyntheticMnist dataset(128, 16, 42);
  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 16;
  mcfg.hidden_dim = 16;
  sched::ConstantLr schedule(0.1f);

  guard::AnomalyPlan plan;
  plan.add(10, kind,
           kind == guard::AnomalyPlan::Kind::kGradExplosion ? 1e6f : 1e3f);

  RunConfig base;
  base.batch_size = 32;
  base.epochs = 4;  // 4 steps/epoch -> 16 steps
  base.optimizer = "momentum";
  base.schedule = &schedule;
  base.final_eval_only = true;
  base.capture_final_params = true;
  base.checkpoint_every_steps = 2;
  base.checkpoint_keep_last = 0;
  base.replicas = n_replicas;
  base.sentinel.enabled = true;
  base.sentinel.window = 8;
  base.sentinel.min_history = 4;
  base.sentinel.bless_after = 2;

  TempDir clean_dir(tag + "_clean");
  RunConfig clean = base;
  clean.checkpoint_dir = clean_dir.path;
  const RunResult ref = train_mnist(dataset, mcfg, clean);
  ASSERT_FALSE(ref.diverged) << tag;

  TempDir anom_dir(tag + "_anom");
  RunConfig anom = base;
  anom.checkpoint_dir = anom_dir.path;
  anom.anomaly_plan = &plan;
  const RunResult got = train_mnist(dataset, mcfg, anom);
  ASSERT_FALSE(got.diverged) << tag << ": recovery did not complete";
  EXPECT_EQ(got.guard_anomalies, 1) << tag;
  EXPECT_EQ(got.guard_rollbacks, 1) << tag;
  EXPECT_FALSE(got.guard_failed) << tag;
  // Replica 0's parameters (the replicas stay bit-synchronised through the
  // anomaly, the rollback, and the replay) match the anomaly-free run.
  expect_params_equal(ref, got, tag);
}

const auto kKinds = ::testing::Values(guard::AnomalyPlan::Kind::kNaN,
                                      guard::AnomalyPlan::Kind::kLossSpike,
                                      guard::AnomalyPlan::Kind::kGradExplosion);

using MatrixParam = std::tuple<int, guard::AnomalyPlan::Kind>;

class GuardDistMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(GuardDistMatrix, RecoveryIsRankConsistentAndBitwise) {
  const int n_replicas = std::get<0>(GetParam());
  const guard::AnomalyPlan::Kind kind = std::get<1>(GetParam());
  expect_rank_consistent_recovery(
      n_replicas, kind,
      "r" + std::to_string(n_replicas) + "_" + kind_name(kind));
}

INSTANTIATE_TEST_SUITE_P(
    AnomalyMatrix, GuardDistMatrix,
    ::testing::Combine(::testing::Values(1, 2, 4), kKinds),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "_" +
             kind_name(std::get<1>(info.param));
    });

// The same matrix over a quantized wire (LEGW_DIST_WIRE): the runner then
// carries error-feedback residuals across steps, and the rollback must
// restore them from the checkpoint along with the weights, or the replayed
// steps would ship different gradients than the anomaly-free run.
using WireParam =
    std::tuple<int, core::WireFormat, guard::AnomalyPlan::Kind>;

class GuardDistWire : public ::testing::TestWithParam<WireParam> {};

TEST_P(GuardDistWire, RecoveryIsBitwiseOverQuantizedWire) {
  const int n_replicas = std::get<0>(GetParam());
  const core::WireFormat format = std::get<1>(GetParam());
  const guard::AnomalyPlan::Kind kind = std::get<2>(GetParam());
  const core::WireFormat saved = core::dist_wire();
  core::set_dist_wire(format);
  expect_rank_consistent_recovery(
      n_replicas, kind,
      "r" + std::to_string(n_replicas) + "_" +
          core::wire_format_name(format) + "_" + kind_name(kind));
  core::set_dist_wire(saved);
}

INSTANTIATE_TEST_SUITE_P(
    WireMatrix, GuardDistWire,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values(core::WireFormat::kFp16,
                                         core::WireFormat::kInt8),
                       kKinds),
    [](const ::testing::TestParamInfo<WireParam>& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "_" +
             core::wire_format_name(std::get<1>(info.param)) + "_" +
             kind_name(std::get<2>(info.param));
    });

}  // namespace
}  // namespace legw::train
