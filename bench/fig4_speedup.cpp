// Figure 4: wall-clock speedup from LEGW-enabled large batches on the same
// hardware. The paper reports 5.3x average over 4 LSTM apps: larger batches
// amortise per-step overhead, so epochs finish faster at equal sample counts.
//
// Procedure here: (1) train one epoch of each app at several batch sizes
// through its train::train_* runner (constant LR, final eval only) and read
// the mean time of the "step" spans the training loop opens; (2) fit the
// saturation DeviceModel; (3) report measured epoch-time speedup of the
// largest LEGW batch over the baseline batch, plus the model's extrapolation
// to cluster execution.
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "dist/cluster_model.hpp"
#include "sched/schedule.hpp"

using namespace legw;

namespace {

using Points = std::vector<std::pair<i64, double>>;  // (batch, step seconds)

struct App {
  const char* name;
  const char* optimizer;
  float lr;
  // front() is the baseline batch, back() the largest LEGW batch.
  std::vector<i64> batches;
  i64 n_samples;  // per epoch
};

obs::TraceRecorder::PhaseStats step_spans() {
  const auto phases = obs::TraceRecorder::global().phase_summary();
  const auto it = phases.find("step");
  return it == phases.end() ? obs::TraceRecorder::PhaseStats{} : it->second;
}

// Trains one epoch of `app` at each of its batches through `train` (a
// train::train_* call on the app's data and model). A point's step time is
// the mean of the "step" spans its run opened: the recorder is never
// cleared, so they are the difference of two phase summaries, and a --trace
// file still covers the whole binary.
template <typename Train>
Points time_app(const App& app, Train&& train) {
  const sched::ConstantLr lr(app.lr);
  Points points;
  for (const i64 batch : app.batches) {
    train::RunConfig run;
    run.batch_size = batch;
    run.epochs = 1;
    run.optimizer = app.optimizer;
    run.schedule = &lr;
    run.final_eval_only = true;
    const auto before = step_spans();
    const train::RunResult result = train(run);
    const auto after = step_spans();
    const i64 count = after.count - before.count;
    const double secs = (after.total_ms - before.total_ms) / 1e3 /
                        static_cast<double>(count);
    const std::string where = std::string("fig4_speedup: ") + app.name +
                              " batch " + std::to_string(batch) + ": ";
    LEGW_CHECK(result.steps > 0 && count == result.steps,
               where + std::to_string(count) + " step spans for " +
                   std::to_string(result.steps) + " steps");
    LEGW_CHECK(std::isfinite(secs) && secs > 0.0,
               where + "step time " + std::to_string(secs) + " s");
    points.emplace_back(batch, secs);
  }
  return points;
}

// Prints one app row and returns its epoch-time speedup.
double report(const App& app, const Points& points) {
  const dist::DeviceModel model = dist::fit_device_model(points);
  const auto epoch_seconds = [&app](const std::pair<i64, double>& p) {
    return p.second *
           static_cast<double>((app.n_samples + p.first - 1) / p.first);
  };
  const double base_epoch = epoch_seconds(points.front());
  const double big_epoch = epoch_seconds(points.back());
  const double speedup = base_epoch / big_epoch;
  std::printf("%-12s batch %4lld -> %5lld: epoch %7.2fs -> %7.2fs,  "
              "speedup %4.2fx  (fitted peak %.0f samp/s, b_half %.0f)\n",
              app.name, static_cast<long long>(points.front().first),
              static_cast<long long>(points.back().first), base_epoch,
              big_epoch, speedup, model.peak_samples_per_sec,
              model.half_saturation_batch);
  return speedup;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ScopedTrace scoped_trace(argc, argv);
  // The step times are read from the runners' spans.
  obs::set_tracing_enabled(true);
  bench::print_header("Figure 4: large-batch speedup on the same hardware",
                      "paper Figure 4 (5.3x average over 4 LSTM apps)");
  std::vector<double> speedups;

  {
    const bench::MnistWorkload w;
    const App app{"MNIST-LSTM", "momentum", 0.05f, {32, 64, 128, 256, 512},
                  w.dataset.n_train()};
    speedups.push_back(report(app, time_app(app, [&](const auto& run) {
      return train::train_mnist(w.dataset, w.model, run);
    })));
  }
  {
    // One "sample" = one BPTT stream position; a step covers `batch`.
    const bench::PtbWorkload w;
    const App app{"PTB-small", "momentum", 0.1f, {8, 16, 32, 64, 128},
                  static_cast<i64>(w.corpus.train_tokens().size()) /
                      w.model.bptt_len};
    speedups.push_back(report(app, time_app(app, [&](const auto& run) {
      return train::train_ptb(w.corpus, w.model, run);
    })));
  }
  {
    // Wider model, same pipeline.
    const bench::PtbWorkload w;
    models::PtbConfig large = models::PtbConfig::large(200);
    large.embed_dim = 96;
    large.hidden_dim = 96;
    large.bptt_len = 12;
    const App app{"PTB-large", "lars", 1.0f, {8, 16, 32, 64},
                  static_cast<i64>(w.corpus.train_tokens().size()) /
                      large.bptt_len};
    speedups.push_back(report(app, time_app(app, [&](const auto& run) {
      return train::train_ptb(w.corpus, large, run);
    })));
  }
  {
    const bench::GnmtWorkload w;
    const App app{"GNMT", "adam", 0.001f, {16, 32, 64, 128, 256},
                  static_cast<i64>(w.dataset.train().size())};
    speedups.push_back(report(app, time_app(app, [&](const auto& run) {
      return train::train_gnmt(w.dataset, w.model, run);
    })));
  }

  double speedup_sum = 0.0;
  for (const double s : speedups) speedup_sum += s;
  std::printf("\naverage speedup over %zu LSTM apps: %.2fx\n", speedups.size(),
              speedup_sum / static_cast<double>(speedups.size()));

  // Cluster extrapolation: with data parallelism the large batch also buys
  // more workers (the paper's TPU-pod setting).
  std::printf("\ncluster-model extrapolation (data-parallel, 1M-param model):\n");
  dist::ClusterConfig cfg;
  cfg.device = {1000.0, 64.0};
  cfg.max_batch_per_worker = 64;
  for (i64 batch : {64, 256, 1024, 4096}) {
    const auto seq =
        dist::cluster_epoch_time(cfg, 100000, batch,
                                 dist::CommMode::kSequential);
    const auto ovl =
        dist::cluster_epoch_time(cfg, 100000, batch,
                                 dist::CommMode::kOverlapped);
    std::printf(
        "  batch %5lld: %2lld workers, epoch %6.2fs sync, %6.2fs "
        "overlapped (%.2fx)\n",
        static_cast<long long>(batch), static_cast<long long>(seq.workers),
        seq.epoch_seconds, ovl.epoch_seconds,
        seq.epoch_seconds / ovl.epoch_seconds);
  }
  std::printf(
      "\nShape check (paper): the paper's 5.3x comes from an accelerator\n"
      "whose utilisation rises steeply with batch (TPU) plus pod-scale data\n"
      "parallelism. Here every step runs on the global thread pool\n"
      "(LEGW_NUM_THREADS, default one thread per hardware thread), which\n"
      "these small models fill at tens of samples (fitted b_half above),\n"
      "so the same-hardware factor here is modest; the cluster-model\n"
      "extrapolation shows where the paper's headline factor comes from\n"
      "once large batches buy parallel workers.\n");
  return 0;
}
