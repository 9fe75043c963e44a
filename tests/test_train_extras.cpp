// Checkpointing, gradient accumulation, and batch-size schedules.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "ag/ops.hpp"
#include "ckpt/checkpoint.hpp"
#include "dist/overlap.hpp"
#include "models/mnist_lstm.hpp"
#include "nn/layers.hpp"
#include "sched/batch_schedule.hpp"
#include "train/accumulate.hpp"

namespace legw {
namespace {

using core::Rng;
using core::Tensor;

struct TempFile {
  std::string path;
  explicit TempFile(const char* name)
      : path(std::string("/tmp/legw_test_") + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

// A parameters-and-buffers-only training state over one model.
ckpt::TrainState model_state(nn::Module& model) {
  ckpt::TrainState state;
  state.models.push_back(&model);
  return state;
}

TEST(Checkpoint, RoundTripsLinearLayer) {
  TempFile tmp("linear.ckpt");
  Rng rng(1);
  nn::Linear a(4, 3, rng);
  ASSERT_TRUE(ckpt::save(model_state(a), tmp.path).ok());

  Rng rng2(999);  // different init
  nn::Linear b(4, 3, rng2);
  EXPECT_NE(a.weight().value()[0], b.weight().value()[0]);
  ckpt::TrainState target = model_state(b);
  const ckpt::Result restored = ckpt::load(target, tmp.path);
  ASSERT_TRUE(restored.ok()) << restored.message;
  EXPECT_EQ(b.parameters().size(), 2u);
  for (i64 i = 0; i < a.weight().numel(); ++i) {
    ASSERT_EQ(a.weight().value()[i], b.weight().value()[i]);
  }
  for (i64 i = 0; i < a.bias().numel(); ++i) {
    ASSERT_EQ(a.bias().value()[i], b.bias().value()[i]);
  }
}

TEST(Checkpoint, RoundTripsFullModelAndPreservesOutputs) {
  TempFile tmp("mnist.ckpt");
  models::MnistLstmConfig cfg;
  cfg.transform_dim = 8;
  cfg.hidden_dim = 8;
  models::MnistLstm a(cfg);
  Rng rng(2);
  Tensor images = Tensor::rand_uniform({2, 784}, rng);
  ag::Variable out_a = a.forward(images);

  ASSERT_TRUE(ckpt::save(model_state(a), tmp.path).ok());
  models::MnistLstmConfig cfg_b = cfg;
  cfg_b.seed = 777;  // different init
  models::MnistLstm b(cfg_b);
  ckpt::TrainState target = model_state(b);
  ASSERT_TRUE(ckpt::load(target, tmp.path).ok());
  ag::Variable out_b = b.forward(images);
  for (i64 i = 0; i < out_a.numel(); ++i) {
    ASSERT_EQ(out_a.value()[i], out_b.value()[i]);
  }
}

TEST(Checkpoint, RejectsShapeMismatchWithoutAborting) {
  TempFile tmp("mismatch.ckpt");
  Rng rng(3);
  nn::Linear a(4, 3, rng);
  ASSERT_TRUE(ckpt::save(model_state(a), tmp.path).ok());
  nn::Linear b(5, 3, rng);
  ckpt::TrainState target = model_state(b);
  const ckpt::Result res = ckpt::load(target, tmp.path);
  EXPECT_EQ(res.status, ckpt::Status::kStateMismatch);
  EXPECT_NE(res.message.find("shape"), std::string::npos);
}

TEST(Checkpoint, RejectsCorruptMagicWithoutAborting) {
  TempFile tmp("corrupt.ckpt");
  std::FILE* f = std::fopen(tmp.path.c_str(), "wb");
  std::fwrite("NOTACKPT_________", 1, 16, f);
  std::fclose(f);
  Rng rng(4);
  nn::Linear a(2, 2, rng);
  ckpt::TrainState target = model_state(a);
  const ckpt::Result res = ckpt::load(target, tmp.path);
  EXPECT_EQ(res.status, ckpt::Status::kBadMagic);
}

TEST(GradientAccumulator, MatchesLargeBatchGradient) {
  // mean-of-means over equal micro-batches == mean over the union.
  Rng rng(5);
  nn::Linear layer(3, 2, rng);
  Tensor x = Tensor::randn({8, 3}, rng);
  Rng wrng(6);
  Tensor w = Tensor::randn({8, 2}, wrng);

  // Full batch.
  layer.zero_grad();
  ag::backward(ag::mean_all(ag::mul(
      layer.forward(ag::Variable::constant(x)), ag::Variable::constant(w))));
  Tensor full = layer.weight().grad();

  // 4 micro-batches of 2.
  layer.zero_grad();
  train::GradientAccumulator acc(layer.parameters());
  for (int m = 0; m < 4; ++m) {
    acc.micro_step([&] {
      Tensor xm({2, 3});
      Tensor wm({2, 2});
      for (i64 r = 0; r < 2; ++r) {
        for (i64 c = 0; c < 3; ++c) xm.at(r, c) = x.at(m * 2 + r, c);
        for (i64 c = 0; c < 2; ++c) wm.at(r, c) = w.at(m * 2 + r, c);
      }
      return ag::mean_all(ag::mul(layer.forward(ag::Variable::constant(xm)),
                                  ag::Variable::constant(wm)));
    });
  }
  EXPECT_EQ(acc.pending_micro_steps(), 4);
  acc.finish();
  EXPECT_EQ(acc.pending_micro_steps(), 0);
  for (i64 i = 0; i < full.numel(); ++i) {
    EXPECT_NEAR(layer.weight().grad()[i], full[i], 1e-5f) << "elem " << i;
  }
}

TEST(GradientAccumulator, ComposesWithOverlappedBackward) {
  // Large-batch composition: 2 replicas × 2 micro-batches through the
  // overlapped allreduce engine (zero_grads=false so micro-batch means
  // accumulate) must reproduce the single-model batch-8 gradient.
  const int n_replicas = 2;
  const int n_micro = 2;
  const i64 rows_per_shard = 2;
  Rng rng(5);
  nn::Linear reference(3, 2, rng);
  Tensor x = Tensor::randn({8, 3}, rng);
  Rng wrng(6);
  Tensor w = Tensor::randn({8, 2}, wrng);

  auto rows = [&](const Tensor& src, i64 begin, i64 count, i64 cols) {
    Tensor out({count, cols});
    for (i64 r = 0; r < count; ++r) {
      for (i64 c = 0; c < cols; ++c) out.at(r, c) = src.at(begin + r, c);
    }
    return out;
  };

  // Reference: one model, the full batch of 8.
  reference.zero_grad();
  ag::backward(ag::mean_all(
      ag::mul(reference.forward(ag::Variable::constant(x)),
              ag::Variable::constant(w))));
  const Tensor full = reference.weight().grad();

  // Two identically-initialised replicas (same seed as the reference).
  std::vector<std::unique_ptr<nn::Linear>> replicas;
  std::vector<std::vector<ag::Variable>> replica_params;
  for (int r = 0; r < n_replicas; ++r) {
    Rng seed(5);
    replicas.push_back(std::make_unique<nn::Linear>(3, 2, seed));
    replicas.back()->zero_grad();
    replica_params.push_back(replicas.back()->parameters());
  }

  train::GradientAccumulator acc(replica_params[0]);
  dist::OverlapConfig config;
  config.zero_grads = false;  // the accumulator owns gradient lifetime
  for (int m = 0; m < n_micro; ++m) {
    const dist::OverlapResult res = dist::overlapped_backward(
        replica_params,
        [&](int r) {
          const i64 begin = (m * n_replicas + r) * rows_per_shard;
          return ag::mean_all(ag::mul(
              replicas[static_cast<std::size_t>(r)]->forward(
                  ag::Variable::constant(rows(x, begin, rows_per_shard, 3))),
              ag::Variable::constant(rows(w, begin, rows_per_shard, 2))));
        },
        config);
    ASSERT_TRUE(res.ok) << res.error;
    acc.count_external_micro_step();
  }
  EXPECT_EQ(acc.pending_micro_steps(), n_micro);
  acc.finish();

  const Tensor& got = replica_params[0][0].grad();
  ASSERT_EQ(got.numel(), full.numel());
  for (i64 i = 0; i < full.numel(); ++i) {
    EXPECT_NEAR(got[i], full[i], 1e-5f) << "elem " << i;
  }
}

TEST(BatchSchedule, ConstantAndMultiStep) {
  sched::ConstantBatch c(64);
  EXPECT_EQ(c.batch(0.0), 64);
  EXPECT_EQ(c.batch(99.0), 64);

  sched::MultiStepBatch m(32, {2.0, 4.0}, 4);
  EXPECT_EQ(m.batch(0.0), 32);
  EXPECT_EQ(m.batch(1.9), 32);
  EXPECT_EQ(m.batch(2.0), 128);
  EXPECT_EQ(m.batch(4.0), 512);
}

TEST(BatchSchedule, GrowthDualOfLrDecay) {
  // LR decay x0.25 at epochs {2,4,6} with a 512 memory cap from batch 32:
  // factor 4, but the third milestone would hit 2048 > 512, so it's dropped.
  auto dual = sched::batch_growth_dual(32, {2.0, 4.0, 6.0}, 0.25f, 512);
  EXPECT_EQ(dual->batch(0.0), 32);
  EXPECT_EQ(dual->batch(3.0), 128);
  EXPECT_EQ(dual->batch(5.0), 512);
  EXPECT_EQ(dual->batch(7.0), 512);  // capped: third step dropped
}

TEST(BatchSchedule, DescribeIsInformative) {
  sched::MultiStepBatch m(32, {1.0}, 2);
  EXPECT_NE(m.describe().find("multistep_batch"), std::string::npos);
}

}  // namespace
}  // namespace legw
