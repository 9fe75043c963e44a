// Ablation/extension: "don't decay the learning rate, increase the batch
// size" (Smith et al. 2017, the paper's ref [27]) versus classic LR decay,
// both driven through this library's schedules, on MNIST-LSTM.
//
// Three arms at equal sample budgets:
//   A: fixed small batch + multi-step LR decay (classic)
//   B: growing batch (the decay's dual) + constant LR
//   C: growing batch + LEGW warmup on top
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "optim/optimizer.hpp"
#include "sched/batch_schedule.hpp"

using namespace legw;

namespace {

// A training loop that re-batches per epoch according to a BatchSchedule.
double train_with_batch_schedule(const bench::MnistWorkload& w,
                                 const sched::BatchSchedule& batches,
                                 const sched::LrSchedule& lr) {
  models::MnistLstm model(w.model);
  auto opt = optim::make_optimizer("momentum", model.parameters());
  i64 samples_seen = 0;
  const i64 budget = w.dataset.n_train() * w.epochs;
  // Owned by this call, so every arm starts its own shuffle stream; rebuilt
  // on each batch-size change (epoch-level shuffling granularity is fine).
  std::unique_ptr<data::IndexBatcher> batcher;
  i64 batcher_size = -1;
  while (samples_seen < budget) {
    const double epoch =
        static_cast<double>(samples_seen) / w.dataset.n_train();
    const i64 batch = batches.batch(epoch);
    opt->set_lr(lr.lr(epoch));
    if (!batcher || batcher_size != batch) {
      batcher = std::make_unique<data::IndexBatcher>(w.dataset.n_train(),
                                                     batch, 99);
      batcher_size = batch;
    }
    std::vector<i64> idx = batcher->next();
    model.zero_grad();
    ag::Variable loss = model.loss(w.dataset.gather_images(idx, true),
                                   w.dataset.gather_labels(idx, true));
    if (train::loss_diverged(loss.value()[0])) return 0.0;
    ag::backward(loss);
    optim::clip_grad_norm(opt->params(), 5.0f);
    opt->step();
    samples_seen += batch;
  }
  // Final test accuracy, chunked.
  double acc_sum = 0.0;
  i64 n = 0;
  for (i64 begin = 0; begin < w.dataset.n_test(); begin += 256) {
    const i64 end = std::min(w.dataset.n_test(), begin + 256);
    std::vector<i64> idx;
    for (i64 i = begin; i < end; ++i) idx.push_back(i);
    acc_sum += model.accuracy(w.dataset.gather_images(idx, false),
                              w.dataset.gather_labels(idx, false)) *
               static_cast<double>(end - begin);
    n += end - begin;
  }
  return acc_sum / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ScopedTrace scoped_trace(argc, argv);
  bench::print_header(
      "Ablation: LR decay vs batch growth (Smith et al. dual)",
      "extension of paper ref [27]");
  bench::MnistWorkload w;
  const float lr0 = w.legw_base.peak_lr;
  const std::vector<double> milestones = {2.0, 3.0};
  const float gamma = 0.25f;

  // A: fixed batch, multi-step decay.
  {
    sched::ConstantBatch batches(w.base_batch);
    sched::MultiStepLr lr(lr0, milestones, gamma);
    const double acc = train_with_batch_schedule(w, batches, lr);
    std::printf("A  fixed batch %3lld + LR decay x%.2f:        acc %.4f\n",
                static_cast<long long>(w.base_batch), gamma, acc);
  }
  // B: batch growth dual, constant LR.
  {
    auto batches = sched::batch_growth_dual(w.base_batch, milestones, gamma,
                                            /*max_batch=*/512);
    sched::ConstantLr lr(lr0);
    const double acc = train_with_batch_schedule(w, *batches, lr);
    std::printf("B  %-38s acc %.4f\n",
                (batches->describe() + " + const LR:").c_str(), acc);
  }
  // C: batch growth + LEGW warmup.
  {
    auto batches = sched::batch_growth_dual(w.base_batch, milestones, gamma,
                                            /*max_batch=*/512);
    sched::GradualWarmup lr(w.legw_base.warmup_epochs,
                            std::make_shared<sched::ConstantLr>(lr0));
    const double acc = train_with_batch_schedule(w, *batches, lr);
    std::printf("C  batch growth + LEGW warmup:             acc %.4f\n", acc);
  }

  std::printf(
      "\nShape check (Smith et al. / paper §2.3): batch growth matches LR\n"
      "decay at equal sample budgets while taking fewer optimizer steps;\n"
      "warmup remains compatible with the growing-batch regime.\n");
  return 0;
}
