// Synchronous data-parallel training with LEGW: R thread-replicas train the
// MNIST-LSTM on shards of a global batch, gradients flow through the
// data-parallel engine's deterministic bucketed all-reduce, and every replica
// applies the identical update — the execution model behind the paper's
// TPU-pod runs, in miniature. Each bucket reduces as soon as every replica
// has finished its gradients, while the rest of backward still runs.
//
// Run: ./build/examples/data_parallel [--replicas 4] [--global_batch 128]
#include <cstdio>
#include <string>

#include "core/flags.hpp"
#include "data/images.hpp"
#include "data/synthetic_mnist.hpp"
#include "dist/overlap.hpp"
#include "models/mnist_lstm.hpp"
#include "optim/optimizer.hpp"
#include "sched/legw.hpp"

using namespace legw;

int main(int argc, char** argv) {
  core::Flags flags(argc, argv);
  data::SyntheticMnist dataset(2048, 512, 42);
  // Check the flags as read, before any narrowing or division.
  const i64 replicas_flag = flags.get_int("replicas", 4);
  const i64 global_batch = flags.get_int("global_batch", 128);
  LEGW_CHECK(replicas_flag >= 1,
             "--replicas must be >= 1, got " + std::to_string(replicas_flag));
  LEGW_CHECK(global_batch >= 1 && global_batch <= dataset.n_train(),
             "--global_batch must be in [1, " +
                 std::to_string(dataset.n_train()) + "], got " +
                 std::to_string(global_batch));
  LEGW_CHECK(global_batch % replicas_flag == 0,
             "--replicas " + std::to_string(replicas_flag) +
                 " must divide --global_batch " +
                 std::to_string(global_batch));
  const int n_replicas = static_cast<int>(replicas_flag);
  const i64 shard = global_batch / n_replicas;

  std::printf("data-parallel MNIST-LSTM: %d replicas x shard %lld = batch %lld\n\n",
              n_replicas, static_cast<long long>(shard),
              static_cast<long long>(global_batch));

  models::MnistLstmConfig mcfg;
  mcfg.transform_dim = 32;
  mcfg.hidden_dim = 32;

  // Identical replicas (same config seed -> same init).
  std::vector<std::unique_ptr<models::MnistLstm>> replicas;
  std::vector<std::vector<ag::Variable>> params;
  std::vector<std::unique_ptr<optim::Optimizer>> opts;
  for (int r = 0; r < n_replicas; ++r) {
    replicas.push_back(std::make_unique<models::MnistLstm>(mcfg));
    params.push_back(replicas.back()->parameters());
    opts.push_back(optim::make_optimizer("momentum", params.back()));
  }

  // LEGW schedule for the *global* batch.
  const sched::LegwBaseline baseline{32, 0.1f, 0.1};
  auto schedule = sched::legw_constant(baseline, global_batch);
  const auto recipe = sched::legw_scale(baseline, global_batch);
  std::printf("LEGW: peak LR %.4f, warmup %.3f epochs\n\n", recipe.peak_lr,
              recipe.warmup_epochs);

  data::IndexBatcher batcher(dataset.n_train(), global_batch, 5);
  const i64 steps_per_epoch = batcher.batches_per_epoch();
  const i64 epochs = 6;
  for (i64 epoch = 0; epoch < epochs; ++epoch) {
    float mean_loss = 0.0f;
    for (i64 s = 0; s < steps_per_epoch; ++s) {
      const double frac =
          static_cast<double>(epoch * steps_per_epoch + s) / steps_per_epoch;
      const float lr = schedule->lr(frac);
      std::vector<i64> idx = batcher.next();
      mean_loss = dist::replica_backward(params, [&](int r) {
        std::vector<i64> slice(idx.begin() + r * shard,
                               idx.begin() + (r + 1) * shard);
        return replicas[static_cast<std::size_t>(r)]->loss(
            dataset.gather_images(slice, true),
            dataset.gather_labels(slice, true));
      });
      for (auto& opt : opts) {
        opt->set_lr(lr);
        opt->step();
      }
    }
    // All replicas are identical, so evaluate replica 0.
    const i64 divergent = dist::first_divergent_param(params);
    std::vector<i64> test_idx;
    for (i64 i = 0; i < 256; ++i) test_idx.push_back(i);
    const double acc =
        replicas[0]->accuracy(dataset.gather_images(test_idx, false),
                              dataset.gather_labels(test_idx, false));
    std::printf("epoch %lld: loss %.4f, test acc %.4f, replicas %s\n",
                static_cast<long long>(epoch + 1), mean_loss, acc,
                divergent == -1 ? "in sync" : "DIVERGED");
  }
  return 0;
}
