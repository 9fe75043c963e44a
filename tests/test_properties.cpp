// Property-style tests: algebraic invariants checked over randomized inputs
// and parameter sweeps (TEST_P), complementing the example-based unit tests.
#include <gtest/gtest.h>

#include <cmath>

#include "ag/ops.hpp"
#include "core/kernels.hpp"
#include "core/tensor.hpp"
#include "dist/algorithms.hpp"
#include "optim/optimizer.hpp"
#include "sched/legw.hpp"
#include "train/metrics.hpp"

namespace legw {
namespace {

using ag::Variable;
using core::Rng;
using core::Shape;
using core::Tensor;

// ---- tensor algebra over random shapes ---------------------------------------

class TensorAlgebraTest : public ::testing::TestWithParam<u64> {};

TEST_P(TensorAlgebraTest, AdditionCommutesAndAssociates) {
  Rng rng(GetParam());
  const Shape shape{static_cast<i64>(1 + rng.uniform_int(8)),
                    static_cast<i64>(1 + rng.uniform_int(8))};
  Tensor a = Tensor::randn(shape, rng);
  Tensor b = Tensor::randn(shape, rng);
  Tensor c = Tensor::randn(shape, rng);
  Tensor ab = a + b;
  Tensor ba = b + a;
  Tensor abc1 = (a + b) + c;
  Tensor abc2 = a + (b + c);
  for (i64 i = 0; i < ab.numel(); ++i) {
    EXPECT_EQ(ab[i], ba[i]);
    EXPECT_NEAR(abc1[i], abc2[i], 1e-5f);
  }
}

TEST_P(TensorAlgebraTest, ScalingDistributesOverAddition) {
  Rng rng(GetParam() ^ 0xabcdef);
  const Shape shape{static_cast<i64>(1 + rng.uniform_int(10))};
  Tensor a = Tensor::randn(shape, rng);
  Tensor b = Tensor::randn(shape, rng);
  const float s = static_cast<float>(rng.uniform(-2.0, 2.0));
  Tensor lhs = (a + b) * s;
  Tensor rhs = a * s + b * s;
  for (i64 i = 0; i < lhs.numel(); ++i) EXPECT_NEAR(lhs[i], rhs[i], 1e-5f);
}

TEST_P(TensorAlgebraTest, TransposeIsInvolution) {
  Rng rng(GetParam() ^ 0x123456);
  const Shape shape{static_cast<i64>(1 + rng.uniform_int(7)),
                    static_cast<i64>(1 + rng.uniform_int(7))};
  Tensor a = Tensor::randn(shape, rng);
  Tensor tt = a.transposed_2d().transposed_2d();
  for (i64 i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], tt[i]);
}

TEST_P(TensorAlgebraTest, MatmulIdentity) {
  Rng rng(GetParam() ^ 0x777);
  const i64 n = 1 + static_cast<i64>(rng.uniform_int(6));
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor eye({n, n});
  for (i64 i = 0; i < n; ++i) eye.at(i, i) = 1.0f;
  Tensor ai = core::matmul(a, eye);
  Tensor ia = core::matmul(eye, a);
  for (i64 i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(ai[i], a[i], 1e-5f);
    EXPECT_NEAR(ia[i], a[i], 1e-5f);
  }
}

TEST_P(TensorAlgebraTest, MatmulTransposeDuality) {
  // (A B)^T == B^T A^T, exercised through the trans flags.
  Rng rng(GetParam() ^ 0x999);
  const i64 m = 1 + static_cast<i64>(rng.uniform_int(5));
  const i64 k = 1 + static_cast<i64>(rng.uniform_int(5));
  const i64 n = 1 + static_cast<i64>(rng.uniform_int(5));
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor ab_t = core::matmul(a, b).transposed_2d();
  Tensor bt_at = core::matmul(b, a, true, true);  // B^T A^T
  for (i64 i = 0; i < ab_t.numel(); ++i) EXPECT_NEAR(ab_t[i], bt_at[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TensorAlgebraTest,
                         ::testing::Range<u64>(1, 11));

// ---- softmax / cross-entropy invariants ---------------------------------------

class SoftmaxInvarianceTest : public ::testing::TestWithParam<u64> {};

TEST_P(SoftmaxInvarianceTest, ShiftInvariantPerRow) {
  Rng rng(GetParam());
  Variable a = Variable::leaf(Tensor::randn({3, 5}, rng), true);
  Tensor shifted = a.value();
  for (i64 r = 0; r < 3; ++r) {
    const float c = static_cast<float>(rng.uniform(-5.0, 5.0));
    for (i64 j = 0; j < 5; ++j) shifted[r * 5 + j] += c;
  }
  Variable b = Variable::constant(shifted);
  Variable sa = ag::softmax_rows(a);
  Variable sb = ag::softmax_rows(b);
  for (i64 i = 0; i < sa.numel(); ++i) {
    EXPECT_NEAR(sa.value()[i], sb.value()[i], 1e-5f);
  }
}

TEST_P(SoftmaxInvarianceTest, CrossEntropyEqualsNegLogSoftmaxAtTarget) {
  Rng rng(GetParam() ^ 0x42);
  const i64 rows = 4, cols = 6;
  Variable logits = Variable::leaf(Tensor::randn({rows, cols}, rng), true);
  std::vector<i32> targets;
  for (i64 r = 0; r < rows; ++r) {
    targets.push_back(static_cast<i32>(rng.uniform_int(cols)));
  }
  Variable loss = ag::softmax_cross_entropy(logits, targets);
  Tensor ls({rows, cols});
  core::log_softmax_rows(logits.value().data(), ls.data(), rows, cols);
  double manual = 0.0;
  for (i64 r = 0; r < rows; ++r) manual -= ls[r * cols + targets[static_cast<std::size_t>(r)]];
  EXPECT_NEAR(loss.value()[0], manual / rows, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SoftmaxInvarianceTest,
                         ::testing::Range<u64>(1, 9));

// ---- LEGW invariants -----------------------------------------------------------

class LegwInvariantTest : public ::testing::TestWithParam<u64> {};

TEST_P(LegwInvariantTest, ScalingComposesTransitively) {
  // scale(base, B1) then re-baselining at B1 and scaling to B2 must equal
  // scaling base directly to B2.
  Rng rng(GetParam());
  sched::LegwBaseline base;
  base.batch_size = 1 << (3 + rng.uniform_int(5));
  base.peak_lr = static_cast<float>(rng.uniform(0.01, 1.0));
  base.warmup_epochs = rng.uniform(0.05, 2.0);
  const i64 b1 = base.batch_size << rng.uniform_int(4);
  const i64 b2 = base.batch_size << rng.uniform_int(6);

  const auto r1 = sched::legw_scale(base, b1);
  sched::LegwBaseline rebased{b1, r1.peak_lr, r1.warmup_epochs};
  const auto direct = sched::legw_scale(base, b2);
  const auto via = sched::legw_scale(rebased, b2);
  EXPECT_NEAR(direct.peak_lr, via.peak_lr, 1e-5f * direct.peak_lr + 1e-8f);
  EXPECT_NEAR(direct.warmup_epochs, via.warmup_epochs,
              1e-9 * direct.warmup_epochs + 1e-12);
}

TEST_P(LegwInvariantTest, WarmupIterationCountIsBatchInvariant) {
  // warmup_epochs * (samples / batch) — the number of warmup *iterations* —
  // is the same for every batch size under LEGW (paper Table 2's constant
  // 200 iterations).
  Rng rng(GetParam() ^ 0x5555);
  sched::LegwBaseline base;
  base.batch_size = 64;
  base.peak_lr = 0.1f;
  base.warmup_epochs = rng.uniform(0.01, 1.0);
  const double n_samples = 1e6;
  const double base_iters = base.warmup_epochs * n_samples / base.batch_size;
  for (i64 k = 2; k <= 64; k *= 2) {
    const auto r = sched::legw_scale(base, base.batch_size * k);
    const double iters = r.warmup_epochs * n_samples / r.batch_size;
    EXPECT_NEAR(iters, base_iters, 1e-6 * base_iters);
  }
}

TEST_P(LegwInvariantTest, ScheduleIsContinuousAtWarmupEnd) {
  Rng rng(GetParam() ^ 0xAAAA);
  sched::LegwBaseline base{128, static_cast<float>(rng.uniform(0.05, 0.5)),
                           rng.uniform(0.1, 1.0)};
  const i64 batch = 128 << rng.uniform_int(4);
  auto s = sched::legw_schedule(base, batch, [](float peak) {
    return std::make_shared<sched::PolynomialLr>(peak, 50.0, 2.0f);
  });
  const double w = sched::legw_scale(base, batch).warmup_epochs;
  const float just_before = s->lr(w * (1.0 - 1e-6));
  const float at = s->lr(w);
  EXPECT_NEAR(just_before, at, 1e-3f * at + 1e-7f);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, LegwInvariantTest,
                         ::testing::Range<u64>(1, 13));

// ---- optimizer invariants --------------------------------------------------------

TEST(OptimizerInvariants, ZeroLrIsNoOp) {
  Rng rng(3);
  for (const char* name : {"sgd", "momentum", "nesterov", "adagrad", "rmsprop",
                           "adam", "adadelta", "lars"}) {
    Variable p = Variable::leaf(Tensor::randn({4}, rng), true);
    p.mutable_grad().fill_(1.0f);
    Tensor before = p.value();
    auto opt = optim::make_optimizer(name, {p});
    opt->set_lr(0.0f);
    opt->step();
    for (i64 i = 0; i < 4; ++i) {
      EXPECT_EQ(p.value()[i], before[i]) << name;
    }
  }
}

TEST(OptimizerInvariants, ZeroGradIsNoOpForStatelessSolvers) {
  // LARS is excluded: the factory gives it a nonzero default weight decay,
  // so it legitimately moves weights even with zero gradient.
  Rng rng(4);
  for (const char* name : {"sgd", "momentum", "nesterov", "adagrad",
                           "rmsprop", "adam"}) {
    Variable p = Variable::leaf(Tensor::randn({3}, rng), true);
    p.zero_grad();
    Tensor before = p.value();
    auto opt = optim::make_optimizer(name, {p});
    opt->set_lr(0.1f);
    opt->step();
    for (i64 i = 0; i < 3; ++i) {
      EXPECT_EQ(p.value()[i], before[i]) << name;
    }
  }
}

TEST(OptimizerInvariants, ClipIsIdempotent) {
  Rng rng(5);
  Variable p = Variable::leaf(Tensor::zeros({16}), true);
  p.mutable_grad() = Tensor::randn({16}, rng, 3.0f);
  optim::clip_grad_norm({p}, 1.0f);
  Tensor after_one = p.grad();
  optim::clip_grad_norm({p}, 1.0f);
  for (i64 i = 0; i < 16; ++i) {
    EXPECT_NEAR(p.grad()[i], after_one[i], 1e-6f);
  }
  EXPECT_NEAR(p.grad().l2_norm(), 1.0f, 1e-4f);
}

// ---- all-reduce invariants ---------------------------------------------------------

class AllreduceLinearityTest : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceLinearityTest, MeanIsPermutationInsensitiveUpToFloat) {
  // The tree is order-dependent in float, but the result must stay within
  // float tolerance of the exact mean for any shard count.
  const int n = GetParam();
  Rng rng(77);
  std::vector<Tensor> shards;
  std::vector<double> exact(32, 0.0);
  for (int i = 0; i < n; ++i) {
    shards.push_back(Tensor::randn({32}, rng));
    for (i64 j = 0; j < 32; ++j) exact[static_cast<std::size_t>(j)] += shards.back()[j];
  }
  std::vector<Tensor*> ptrs;
  for (auto& t : shards) ptrs.push_back(&t);
  dist::tree_allreduce_mean(ptrs);
  for (i64 j = 0; j < 32; ++j) {
    EXPECT_NEAR(shards[0][j], exact[static_cast<std::size_t>(j)] / n, 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, AllreduceLinearityTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 32));

// ---- BLEU properties ------------------------------------------------------------------

TEST(BleuProperties, CorpusOrderInvariant) {
  std::vector<std::vector<i32>> h1 = {{1, 2, 3, 4}, {5, 6, 7, 8, 9}};
  std::vector<std::vector<i32>> r1 = {{1, 2, 3, 9}, {5, 6, 7, 8, 10}};
  std::vector<std::vector<i32>> h2 = {h1[1], h1[0]};
  std::vector<std::vector<i32>> r2 = {r1[1], r1[0]};
  EXPECT_DOUBLE_EQ(train::corpus_bleu(h1, r1), train::corpus_bleu(h2, r2));
}

TEST(BleuProperties, TokenRelabelInvariant) {
  // BLEU only compares token identities; a consistent relabeling of both
  // hypothesis and reference cannot change the score.
  std::vector<std::vector<i32>> h = {{1, 2, 3, 4, 2}};
  std::vector<std::vector<i32>> r = {{1, 2, 4, 3, 2}};
  auto relabel = [](std::vector<std::vector<i32>> v) {
    for (auto& s : v)
      for (auto& t : s) t += 100;
    return v;
  };
  EXPECT_DOUBLE_EQ(train::corpus_bleu(h, r),
                   train::corpus_bleu(relabel(h), relabel(r)));
}

TEST(BleuProperties, BoundedIn0To100) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::vector<i32>> h(3), r(3);
    for (int s = 0; s < 3; ++s) {
      const int hl = 1 + static_cast<int>(rng.uniform_int(8));
      const int rl = 1 + static_cast<int>(rng.uniform_int(8));
      for (int i = 0; i < hl; ++i)
        h[static_cast<std::size_t>(s)].push_back(static_cast<i32>(rng.uniform_int(5)));
      for (int i = 0; i < rl; ++i)
        r[static_cast<std::size_t>(s)].push_back(static_cast<i32>(rng.uniform_int(5)));
    }
    const double b = train::corpus_bleu(h, r);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 100.0 + 1e-9);
  }
}

}  // namespace
}  // namespace legw
