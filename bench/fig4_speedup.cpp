// Figure 4: wall-clock speedup from LEGW-enabled large batches on the same
// hardware. The paper reports 5.3x average over 4 LSTM apps: larger batches
// amortise per-step overhead, so epochs finish faster at equal sample counts.
//
// Procedure here: (1) measure real per-step seconds of this implementation
// at several batch sizes for each app; (2) fit the saturation DeviceModel;
// (3) report measured epoch-time speedup of the largest LEGW batch over the
// baseline batch, plus the model's extrapolation to cluster execution.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "dist/cluster_model.hpp"
#include "optim/optimizer.hpp"

using namespace legw;

namespace {

using Clock = std::chrono::steady_clock;

// Measures seconds per training step at the given batch size (median-ish:
// averages the post-warmup steps).
template <typename StepFn>
double measure_step_seconds(StepFn&& step, int reps = 3) {
  step();  // warm-up (allocations, pool spin-up)
  const auto start = Clock::now();
  for (int i = 0; i < reps; ++i) step();
  return std::chrono::duration<double>(Clock::now() - start).count() / reps;
}

struct AppTiming {
  const char* name;
  std::vector<std::pair<i64, double>> samples;  // (batch, step seconds)
  i64 base_batch;
  i64 big_batch;
  i64 n_samples;  // per epoch
};

void report(const AppTiming& t, double* speedup_accum) {
  dist::DeviceModel model = dist::fit_device_model(t.samples);
  // Measured step times at the endpoints.
  double base_step = 0.0, big_step = 0.0;
  for (const auto& [b, s] : t.samples) {
    if (b == t.base_batch) base_step = s;
    if (b == t.big_batch) big_step = s;
  }
  const double base_epoch =
      base_step * static_cast<double>((t.n_samples + t.base_batch - 1) / t.base_batch);
  const double big_epoch =
      big_step * static_cast<double>((t.n_samples + t.big_batch - 1) / t.big_batch);
  const double speedup = base_epoch / big_epoch;
  *speedup_accum += speedup;

  std::printf("%-12s batch %4lld -> %5lld: epoch %7.2fs -> %7.2fs,  "
              "speedup %4.2fx  (fitted peak %.0f samp/s, b_half %.0f)\n",
              t.name, static_cast<long long>(t.base_batch),
              static_cast<long long>(t.big_batch), base_epoch, big_epoch,
              speedup, model.peak_samples_per_sec,
              model.half_saturation_batch);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ScopedTrace scoped_trace(argc, argv);
  bench::print_header("Figure 4: large-batch speedup on the same hardware",
                      "paper Figure 4 (5.3x average over 4 LSTM apps)");
  double speedup_sum = 0.0;
  int n_apps = 0;

  // --- MNIST-LSTM -------------------------------------------------------------
  {
    bench::MnistWorkload w;
    models::MnistLstm model(w.model);
    auto opt = optim::make_optimizer("momentum", model.parameters());
    opt->set_lr(0.05f);
    AppTiming t{"MNIST-LSTM", {}, 32, 512, w.dataset.n_train()};
    for (i64 batch : {32, 64, 128, 256, 512}) {
      data::IndexBatcher batcher(w.dataset.n_train(), batch, 1);
      const double secs = measure_step_seconds([&] {
        obs::Span step_span("step");
        core::Tensor images;
        std::vector<i32> labels;
        {
          obs::Span span("data");
          const std::vector<i64> idx = batcher.next();
          images = w.dataset.gather_images(idx, true);
          labels = w.dataset.gather_labels(idx, true);
        }
        model.zero_grad();
        ag::Variable loss;
        {
          obs::Span span("forward");
          loss = model.loss(images, labels);
        }
        {
          obs::Span span("backward");
          ag::backward(loss);
        }
        obs::Span span("optimizer");
        opt->step();
      });
      t.samples.emplace_back(batch, secs);
    }
    report(t, &speedup_sum);
    ++n_apps;
  }

  // --- PTB-small --------------------------------------------------------------
  {
    bench::PtbWorkload w;
    models::PtbModel model(w.model);
    auto opt = optim::make_optimizer("momentum", model.parameters());
    opt->set_lr(0.1f);
    core::Rng drng(1);
    AppTiming t{"PTB-small", {}, 8, 128,
                static_cast<i64>(w.corpus.train_tokens().size()) /
                    w.model.bptt_len};
    for (i64 batch : {8, 16, 32, 64, 128}) {
      data::BpttBatcher batcher(w.corpus.train_tokens(), batch,
                                w.model.bptt_len);
      auto carried = model.zero_carried(batch);
      const double secs = measure_step_seconds([&] {
        obs::Span step_span("step");
        data::BpttBatcher::Chunk chunk;
        {
          obs::Span span("data");
          chunk = batcher.next_chunk();
        }
        model.zero_grad();
        models::PtbModel::ChunkResult out;
        {
          obs::Span span("forward");
          out = model.chunk_loss(chunk.inputs, chunk.targets, batch,
                                 w.model.bptt_len, carried, drng);
        }
        {
          obs::Span span("backward");
          ag::backward(out.loss);
        }
        obs::Span span("optimizer");
        opt->step();
      });
      // One "sample" = one BPTT stream position; a step covers `batch`.
      t.samples.emplace_back(batch, secs);
    }
    report(t, &speedup_sum);
    ++n_apps;
  }

  // --- PTB-large (wider model, same pipeline) ----------------------------------
  {
    bench::PtbWorkload w;
    models::PtbConfig large = models::PtbConfig::large(200);
    large.embed_dim = 96;
    large.hidden_dim = 96;
    large.bptt_len = 12;
    models::PtbModel model(large);
    auto opt = optim::make_optimizer("lars", model.parameters());
    opt->set_lr(1.0f);
    core::Rng drng(2);
    AppTiming t{"PTB-large", {}, 8, 64,
                static_cast<i64>(w.corpus.train_tokens().size()) /
                    large.bptt_len};
    for (i64 batch : {8, 16, 32, 64}) {
      data::BpttBatcher batcher(w.corpus.train_tokens(), batch, large.bptt_len);
      auto carried = model.zero_carried(batch);
      const double secs = measure_step_seconds([&] {
        obs::Span step_span("step");
        data::BpttBatcher::Chunk chunk;
        {
          obs::Span span("data");
          chunk = batcher.next_chunk();
        }
        model.zero_grad();
        models::PtbModel::ChunkResult out;
        {
          obs::Span span("forward");
          out = model.chunk_loss(chunk.inputs, chunk.targets, batch,
                                 large.bptt_len, carried, drng);
        }
        {
          obs::Span span("backward");
          ag::backward(out.loss);
        }
        obs::Span span("optimizer");
        opt->step();
      });
      t.samples.emplace_back(batch, secs);
    }
    report(t, &speedup_sum);
    ++n_apps;
  }

  // --- GNMT --------------------------------------------------------------------
  {
    bench::GnmtWorkload w;
    models::Gnmt model(w.model);
    auto opt = optim::make_optimizer("adam", model.parameters());
    opt->set_lr(0.001f);
    core::Rng drng(3);
    AppTiming t{"GNMT", {}, 16, 256,
                static_cast<i64>(w.dataset.train().size())};
    for (i64 batch : {16, 32, 64, 128, 256}) {
      data::IndexBatcher batcher(static_cast<i64>(w.dataset.train().size()),
                                 batch, 2);
      const double secs = measure_step_seconds([&] {
        obs::Span step_span("step");
        data::TranslationBatch b;
        {
          obs::Span span("data");
          const std::vector<i64> idx = batcher.next();
          b = data::make_translation_batch(w.dataset.train(), idx);
        }
        model.zero_grad();
        ag::Variable loss;
        {
          obs::Span span("forward");
          loss = model.loss(b, drng);
        }
        {
          obs::Span span("backward");
          ag::backward(loss);
        }
        obs::Span span("optimizer");
        opt->step();
      });
      t.samples.emplace_back(batch, secs);
    }
    report(t, &speedup_sum);
    ++n_apps;
  }

  std::printf("\naverage speedup over %d LSTM apps: %.2fx\n", n_apps,
              speedup_sum / n_apps);

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
      "parallelism. A single CPU core is already saturated at tiny batches\n"
      "(fitted b_half ~ 0-5 above), so the same-hardware factor here is\n"
      "modest; the cluster-model extrapolation shows where the paper's\n"
      "headline factor comes from once large batches buy parallel workers.\n");
  return 0;
}
