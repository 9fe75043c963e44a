// Checkpoint overhead characterisation (docs/CHECKPOINT.md).
//
// Quantifies what crash-safety costs: per-step wall time of the MNIST-LSTM
// runner without checkpointing vs checkpointing every step (the worst-case
// cadence; real runs amortise over hundreds of steps), plus isolated
// save/restore latency and the on-disk image size. Emits BENCH_ckpt.json.
//
// Usage: ckpt_overhead [--out BENCH_ckpt.json] [--reps 5] [--trace t.json]

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/flags.hpp"
#include "core/io.hpp"
#include "optim/optimizer.hpp"

namespace {

using legw::i64;
namespace bench = legw::bench;
namespace ckpt = legw::ckpt;
namespace train = legw::train;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() *
         1e3;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ScopedTrace scoped_trace(argc, argv);
  legw::core::Flags flags(argc, argv);
  const std::string out_path = flags.get_string("out", "BENCH_ckpt.json");
  const int reps = bench::count_flag(flags, "reps", 5);

  const std::string dir = "bench_ckpt_tmp";
  std::filesystem::remove_all(dir);

  bench::MnistWorkload w;
  auto schedule = legw::sched::legw_constant(w.legw_base, w.base_batch);

  train::RunConfig run;
  run.batch_size = w.base_batch;
  run.epochs = 1;
  run.optimizer = "momentum";
  run.schedule = schedule.get();
  run.final_eval_only = true;

  // Timed loops: identical seeded run with and without a per-step write.
  const auto t0 = std::chrono::steady_clock::now();
  auto baseline = train::train_mnist(w.dataset, w.model, run);
  const double baseline_ms = ms_since(t0);

  run.checkpoint_dir = dir;
  run.checkpoint_every_steps = 1;  // worst case: every optimizer step
  run.checkpoint_keep_last = 2;
  const auto t1 = std::chrono::steady_clock::now();
  auto checked = train::train_mnist(w.dataset, w.model, run);
  const double checked_ms = ms_since(t1);

  const double base_step_ms = baseline_ms / static_cast<double>(baseline.steps);
  const double ckpt_step_ms = checked_ms / static_cast<double>(checked.steps);
  const double overhead_pct = (ckpt_step_ms / base_step_ms - 1.0) * 100.0;

  // Isolated save/restore latency on the same model + optimizer state.
  legw::models::MnistLstm model(w.model);
  auto opt = legw::optim::make_optimizer("momentum", model.parameters(), 0.0f);
  ckpt::TrainState state;
  state.models.push_back(&model);
  state.optimizers.push_back(opt.get());
  state.step = 1;
  const std::string micro_path = dir + "/micro.legw";
  const i64 image_bytes = static_cast<i64>(ckpt::encode(state).size());

  double save_ms = 0.0;
  double restore_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto ts = std::chrono::steady_clock::now();
    const auto sres = ckpt::save(state, micro_path);
    LEGW_CHECK(sres.ok(), "ckpt_overhead: save failed: " + sres.message);
    save_ms += ms_since(ts);
    const auto tl = std::chrono::steady_clock::now();
    const auto lres = ckpt::load(state, micro_path);
    LEGW_CHECK(lres.ok(), "ckpt_overhead: load failed: " + lres.message);
    restore_ms += ms_since(tl);
  }
  save_ms /= reps;
  restore_ms /= reps;

  std::printf("steps %lld  base %.3f ms/step  ckpt-every-step %.3f ms/step  "
              "overhead %.1f%%\n",
              static_cast<long long>(baseline.steps), base_step_ms,
              ckpt_step_ms, overhead_pct);
  std::printf("image %lld bytes  save %.3f ms  restore %.3f ms\n",
              static_cast<long long>(image_bytes), save_ms, restore_ms);

  char body[1024];
  std::snprintf(
      body, sizeof body,
      "{\n"
      "  \"steps\": %lld,\n"
      "  \"baseline_step_ms\": %.4f,\n"
      "  \"ckpt_every_step_ms\": %.4f,\n"
      "  \"overhead_pct\": %.2f,\n"
      "  \"image_bytes\": %lld,\n"
      "  \"save_ms\": %.4f,\n"
      "  \"restore_ms\": %.4f\n"
      "}\n",
      static_cast<long long>(baseline.steps), base_step_ms, ckpt_step_ms,
      overhead_pct, static_cast<long long>(image_bytes), save_ms, restore_ms);
  const legw::core::Status st =
      legw::core::atomic_write_file(out_path, std::string(body));
  LEGW_CHECK(st.ok(), "ckpt_overhead: " + st.message());
  std::printf("wrote %s\n", out_path.c_str());

  std::filesystem::remove_all(dir);
  return 0;
}
