// Contract checks: the library aborts loudly (LEGW_CHECK) on misuse instead
// of corrupting state. These death tests pin down the error surface, plus
// direct unit tests of the low-level kernels backing the autograd ops.
#include <gtest/gtest.h>

#include <cmath>

#include "ag/ops.hpp"
#include "core/kernels.hpp"
#include "core/tensor.hpp"
#include "core/thread_pool.hpp"
#include "data/corpus.hpp"
#include "data/translation.hpp"
#include "dist/cluster_model.hpp"
#include "sched/legw.hpp"
#include "sched/schedule.hpp"

namespace legw {
namespace {

using core::Rng;
using core::Tensor;

// ---- kernel unit tests -------------------------------------------------------

TEST(Kernels, SigmoidMatchesStd) {
  const float x[4] = {-2.0f, -0.5f, 0.0f, 3.0f};
  float y[4];
  core::sigmoid_forward(x, y, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(y[i], 1.0f / (1.0f + std::exp(-x[i])), 1e-6f);
  }
  // Backward: dy/dx = y(1-y), accumulating.
  float dx[4] = {1.0f, 1.0f, 1.0f, 1.0f};
  const float dy[4] = {1.0f, 1.0f, 1.0f, 1.0f};
  core::sigmoid_backward(y, dy, dx, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(dx[i], 1.0f + y[i] * (1.0f - y[i]), 1e-6f);
  }
}

TEST(Kernels, TanhAndReluMatchStd) {
  const float x[3] = {-1.5f, 0.25f, 2.0f};
  float y[3];
  core::tanh_forward(x, y, 3);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(y[i], std::tanh(x[i]), 1e-6f);
  core::relu_forward(x, y, 3);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.25f);
  EXPECT_EQ(y[2], 2.0f);
}

TEST(Kernels, LogSoftmaxIsLogOfSoftmax) {
  Rng rng(1);
  Tensor x = Tensor::randn({4, 7}, rng, 2.0f);
  Tensor sm({4, 7}), lsm({4, 7});
  core::softmax_rows(x.data(), sm.data(), 4, 7);
  core::log_softmax_rows(x.data(), lsm.data(), 4, 7);
  for (i64 i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(lsm[i], std::log(sm[i]), 1e-4f);
  }
}

TEST(Kernels, CrossEntropyCountsAndIgnores) {
  Tensor logits({3, 2}, {0.0f, 0.0f, 5.0f, -5.0f, 0.0f, 0.0f});
  const i32 targets[3] = {0, -1, 1};
  i64 counted = 0;
  const double loss = core::softmax_cross_entropy_forward(
      logits.data(), targets, 3, 2, -1, nullptr, &counted);
  EXPECT_EQ(counted, 2);
  // Row 0: -log(0.5); row 2: -log(0.5).
  EXPECT_NEAR(loss, 2.0 * std::log(2.0), 1e-5);
}

// ---- contract death tests ------------------------------------------------------

TEST(Contracts, NumThreadsAcceptsOnlyWholeIntegersInRange) {
  const auto parse = &core::ThreadPool::parse_num_threads;
  EXPECT_EQ(parse(nullptr), 0);  // unset: hardware default
  EXPECT_EQ(parse("4"), 4);
  EXPECT_EQ(parse("1"), 1);
  EXPECT_EQ(parse("1024"), 1024);
  EXPECT_DEATH(parse("4x"), "LEGW_NUM_THREADS.*got '4x'");
  EXPECT_DEATH(parse(""), "LEGW_NUM_THREADS.*got ''");
  EXPECT_DEATH(parse("0"), "LEGW_NUM_THREADS.*got '0'");
  EXPECT_DEATH(parse("-2"), "LEGW_NUM_THREADS.*got '-2'");
  EXPECT_DEATH(parse("100000"), "LEGW_NUM_THREADS.*got '100000'");
}

TEST(Contracts, TensorShapeMismatchAborts) {
  Tensor a({2, 2});
  Tensor b({4});
  EXPECT_DEATH(a.add_(b), "shape mismatch");
  EXPECT_DEATH((void)(a + b), "shape mismatch");
}

TEST(Contracts, ReshapeMustPreserveNumel) {
  Tensor a({2, 3});
  EXPECT_DEATH((void)a.reshape({4, 2}), "changes element count");
}

TEST(Contracts, MatmulInnerDimensionsMustAgree) {
  Rng rng(2);
  Tensor a = Tensor::randn({2, 3}, rng);
  Tensor b = Tensor::randn({4, 5}, rng);
  EXPECT_DEATH((void)core::matmul(a, b), "inner dimensions differ");
}

TEST(Contracts, BackwardNeedsScalarRoot) {
  ag::Variable v = ag::Variable::leaf(Tensor({2}, {1.0f, 2.0f}), true);
  ag::Variable y = ag::mul(v, v);
  EXPECT_DEATH(ag::backward(y), "scalar root");
}

TEST(Contracts, EmbeddingIndexOutOfRangeAborts) {
  ag::Variable w = ag::Variable::leaf(Tensor::zeros({3, 2}), true);
  EXPECT_DEATH((void)ag::embedding(w, {5}), "index out of range");
}

TEST(Contracts, SliceColsValidatesRange) {
  ag::Variable v = ag::Variable::leaf(Tensor::zeros({2, 4}), true);
  EXPECT_DEATH((void)ag::slice_cols(v, 2, 6), "bad column range");
  EXPECT_DEATH((void)ag::slice_cols(v, 3, 3), "bad column range");
}

TEST(Contracts, LstmCellValidatesShapes) {
  Rng rng(3);
  ag::Variable x = ag::Variable::constant(Tensor::randn({2, 3}, rng));
  ag::Variable h = ag::Variable::constant(Tensor::randn({2, 4}, rng));
  ag::Variable c = ag::Variable::constant(Tensor::randn({2, 4}, rng));
  ag::Variable w_bad = ag::Variable::constant(Tensor::randn({5, 16}, rng));
  ag::Variable b = ag::Variable::constant(Tensor::zeros({16}));
  EXPECT_DEATH((void)ag::lstm_layer(x, h, c, w_bad, b),
               "w must be \\[in\\+hidden, 4\\*hidden\\]");
}

TEST(Contracts, LegwValidatesBatchSizes) {
  sched::LegwBaseline base{0, 0.1f, 1.0};
  EXPECT_DEATH((void)sched::legw_scale(base, 64), "baseline batch size");
  sched::LegwBaseline ok{32, 0.1f, 1.0};
  EXPECT_DEATH((void)sched::legw_scale(ok, 0), "target batch size");
}

TEST(Contracts, MultiStepMilestonesMustBeSorted) {
  EXPECT_DEATH(sched::MultiStepLr(1.0f, {30.0, 10.0}, 0.1f),
               "sorted ascending");
}

TEST(Contracts, BpttBatcherNeedsEnoughTokens) {
  std::vector<i32> tiny(10, 1);
  EXPECT_DEATH(data::BpttBatcher(tiny, 8, 20), "not enough tokens");
}

TEST(Contracts, TranslationVocabMustFitReservedIds) {
  data::TranslationConfig cfg;
  cfg.src_vocab = 4;  // smaller than kFirstTokenId + 2
  EXPECT_DEATH(data::SyntheticTranslation{cfg}, "vocab too small");
}

TEST(Contracts, ClusterModelValidatesSizes) {
  dist::ClusterConfig cfg;
  EXPECT_DEATH((void)dist::cluster_epoch_time(cfg, 0, 32), "bad sizes");
  EXPECT_DEATH((void)dist::cluster_epoch_time(cfg, 100, 0), "bad sizes");
}

TEST(Contracts, DeviceModelFitDegenerateInputIsGraceful) {
  // Degenerate sample sets used to abort; they now fall back without
  // dividing by zero (full behaviour in tests/test_dist_properties.cpp).
  const dist::DeviceModel one = dist::fit_device_model({{32, 0.1}});
  EXPECT_NEAR(one.peak_samples_per_sec, 320.0, 1e-9);
  EXPECT_EQ(one.half_saturation_batch, 0.0);
  const dist::DeviceModel none = dist::fit_device_model({});
  EXPECT_EQ(none.peak_samples_per_sec, dist::DeviceModel{}.peak_samples_per_sec);
}

TEST(Contracts, GradualWarmupRejectsNegativeAndNull) {
  EXPECT_DEATH(sched::GradualWarmup(-1.0, std::make_shared<sched::ConstantLr>(1.0f)),
               "negative warmup");
  EXPECT_DEATH(sched::GradualWarmup(1.0, nullptr), "null inner");
}

}  // namespace
}  // namespace legw
