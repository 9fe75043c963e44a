// Counter pin: the exact obs::TraceRecorder::counters() map (name -> value,
// heap mem.* excluded) of one small seeded train_mnist run that walks every
// always-on tally of a training step: two data-parallel replicas (bucket
// reductions, dist.algo.*, dist.wire_bytes), periodic checkpoints
// (ckpt_writes, ckpt_bytes), the sentinel in observe mode (guard.*) and the
// kernel dispatch counts. The values depend only on the seeded run and the
// pinned kernel, algorithm and wire settings, never on the host, so a
// counter that is dropped, renamed or re-valued fails here.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>

#include "core/flags.hpp"
#include "obs/trace.hpp"
#include "sched/schedule.hpp"
#include "train/runners.hpp"

namespace legw::train {
namespace {

using Counters = std::map<std::string, i64>;

struct TempDir {
  std::string path;
  // Pid-suffixed: ctest -j runs each test as its own process.
  explicit TempDir(const std::string& name)
      : path("/tmp/legw_counters_" + name + "_" + std::to_string(getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

// Pins every process-wide setting a counter value depends on for one test,
// whatever the environment (CI legs set LEGW_KERNEL / LEGW_DIST_*).
struct PinnedSettings {
  core::GemmKernel kernel = core::gemm_kernel();
  core::DistAlgo algo = core::dist_algo();
  core::WireFormat wire = core::dist_wire();
  core::GuardMode guard = core::guard_mode();
  bool tracing = obs::tracing_enabled();
  PinnedSettings() {
    core::set_gemm_kernel(core::GemmKernel::kBlocked);
    core::set_dist_algo(core::DistAlgo::kAuto);
    core::set_dist_wire(core::WireFormat::kFp32);
    core::set_guard_mode(core::GuardMode::kObserve);
    obs::set_tracing_enabled(false);
  }
  ~PinnedSettings() {
    core::set_gemm_kernel(kernel);
    core::set_dist_algo(algo);
    core::set_dist_wire(wire);
    core::set_guard_mode(guard);
    obs::set_tracing_enabled(tracing);
  }
};

TEST(CounterStructure, MnistReplicasCheckpointsGuardObserve) {
  TempDir dir("mnist");
  PinnedSettings pinned;
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
  run.replicas = 2;
  run.checkpoint_dir = dir.path;
  run.checkpoint_every_steps = 3;

  obs::TraceRecorder::global().clear();
  const RunResult result = train_mnist(dataset, mcfg, run);
  Counters got;
  for (const auto& [name, value] : obs::TraceRecorder::global().counters()) {
    // Zero counters are left out so the pin reads the same whether or not
    // a view lists counters that never moved.
    if (name.rfind("mem.", 0) != 0 && value != 0) got[name] = value;
  }
  obs::TraceRecorder::global().clear();

  ASSERT_FALSE(result.diverged);
  ASSERT_EQ(result.steps, 8);
  EXPECT_EQ(got, (Counters{{"bucket_reduce", 8},
                            {"ckpt_bytes", 45486},
                            {"ckpt_writes", 2},
                            {"dispatch.gemm.blocked", 2402},
                            {"dispatch.lstm_cell.backward", 448},
                            {"dispatch.lstm_cell.forward", 504},
                            {"dist.algo.tree", 48},
                            {"dist.wire_bytes", 175744},
                            {"guard.steps", 8},
                            {"steps", 8}}));
}

}  // namespace
}  // namespace legw::train
