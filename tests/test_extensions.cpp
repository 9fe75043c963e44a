// LAMB optimizer, gradient-noise-scale estimator, Recorder, and Flags.
#include <gtest/gtest.h>

#include <cmath>

#include "ag/ops.hpp"
#include "analysis/gradient_noise.hpp"
#include "core/flags.hpp"
#include "optim/optimizer.hpp"
#include "train/recorder.hpp"

namespace legw {
namespace {

using ag::Variable;
using core::Rng;
using core::Tensor;

// ---- LAMB -----------------------------------------------------------------

TEST(Lamb, FirstStepScalesWithTrustRatio) {
  // ||w|| = 2; first Adam update is ~sign(g) per element so ||update|| ~ 1
  // (one active coordinate, wd 0) -> trust ratio ~ 2, step ~ lr * 2.
  Variable p = Variable::leaf(Tensor({2}, {2.0f, 0.0f}), true);
  p.mutable_grad()[1] = 0.5f;
  optim::Lamb opt({p}, 0.9f, 0.999f, 1e-6f, /*weight_decay=*/0.0f);
  opt.set_lr(0.01f);
  opt.step();
  // update vector ≈ (0, 1); trust = 2/1; w1 -= 0.01 * 2 * 1.
  EXPECT_NEAR(p.value()[1], -0.02f, 2e-3f);
  EXPECT_NEAR(p.value()[0], 2.0f, 1e-6f);
}

TEST(Lamb, WeightDecayEntersUpdateNorm) {
  Variable p = Variable::leaf(Tensor({1}, {1.0f}), true);
  p.mutable_grad()[0] = 0.0f;
  optim::Lamb opt({p}, 0.9f, 0.999f, 1e-6f, /*weight_decay=*/0.1f);
  opt.set_lr(0.1f);
  opt.step();
  // update = wd*w = 0.1; trust = |w|/|update| = 10; w -= 0.1*10*0.1 = 0.1.
  EXPECT_NEAR(p.value()[0], 0.9f, 1e-4f);
}

TEST(Lamb, FactoryAndConvergence) {
  Rng rng(42);
  Variable w = Variable::leaf(Tensor::randn({4}, rng), true);
  Variable a = Variable::constant(Tensor({4}, {1.0f, 2.0f, 5.0f, 10.0f}));
  auto opt = optim::make_optimizer("lamb", {w});
  EXPECT_EQ(opt->name(), "lamb");
  opt->set_lr(0.05f);
  float initial = 0.0f, final_loss = 0.0f;
  for (int it = 0; it < 400; ++it) {
    opt->zero_grad();
    Variable loss = ag::scale(ag::sum_all(ag::mul(a, ag::mul(w, w))), 0.5f);
    if (it == 0) initial = loss.value()[0];
    final_loss = loss.value()[0];
    ag::backward(loss);
    opt->step();
  }
  EXPECT_LT(final_loss, 0.05f * initial);
}

// ---- gradient noise scale ---------------------------------------------------

TEST(NoiseScale, ExactOnSyntheticModel) {
  // Construct E[||g_B||²] = G2 + S/B exactly and verify recovery.
  const double G2 = 4.0, S = 80.0;
  auto norm_at = [&](i64 batch) {
    return G2 + S / static_cast<double>(batch);
  };
  auto e = analysis::estimate_noise_scale(16, 256, norm_at);
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.trace_sigma, S, 1e-9);
  EXPECT_NEAR(e.grad_sq_norm, G2, 1e-9);
  EXPECT_NEAR(e.noise_scale, S / G2, 1e-9);
}

TEST(NoiseScale, InvalidWhenBigBatchNoisier) {
  // If the big batch measures a *larger* norm, tr(Σ) < 0: flagged invalid.
  auto norm_at = [](i64 batch) { return static_cast<double>(batch); };
  auto e = analysis::estimate_noise_scale(8, 64, norm_at);
  EXPECT_FALSE(e.valid);
  EXPECT_EQ(e.noise_scale, 0.0);
}

TEST(NoiseScale, AveragedEstimatorOnRealGradients) {
  // Linear regression gradients: noise scale must come out positive and
  // finite on an actual stochastic objective.
  Rng rng(7);
  const i64 n = 512, dim = 4;
  Tensor x = Tensor::randn({n, dim}, rng);
  Tensor y({n, 1});
  for (i64 i = 0; i < n; ++i) {
    y[i] = x[i * dim] * 2.0f - x[i * dim + 1] +
           static_cast<float>(rng.normal(0.0, 0.5));
  }
  Variable w = Variable::leaf(Tensor::zeros({dim, 1}), true);
  Rng draw_rng(9);
  auto grad_sq = [&](i64 batch, int) {
    // Fresh random batch each draw.
    Tensor xb({batch, dim});
    Tensor yb({batch, 1});
    for (i64 i = 0; i < batch; ++i) {
      const i64 src = static_cast<i64>(draw_rng.uniform_int(static_cast<u64>(n)));
      for (i64 d = 0; d < dim; ++d) xb[i * dim + d] = x[src * dim + d];
      yb[i] = y[src];
    }
    w.zero_grad();
    Variable err = ag::sub(ag::matmul(Variable::constant(xb), w),
                           Variable::constant(yb));
    ag::backward(ag::mean_all(ag::mul(err, err)));
    const double norm = w.grad().l2_norm();
    return norm * norm;
  };
  auto e = analysis::estimate_noise_scale_averaged(4, 256, 30, grad_sq);
  ASSERT_TRUE(e.valid);
  EXPECT_GT(e.noise_scale, 0.0);
  EXPECT_LT(e.noise_scale, 1e4);
}

// ---- Recorder -----------------------------------------------------------------

TEST(Recorder, RecordsAndRendersCsv) {
  train::Recorder rec;
  EXPECT_TRUE(rec.empty());
  rec.record("loss", 0, 2.5);
  rec.record("loss", 1, 1.25);
  rec.record("lr", 0, 0.1);
  EXPECT_FALSE(rec.empty());
  ASSERT_EQ(rec.series("loss").size(), 2u);
  EXPECT_EQ(rec.series("loss")[1].step, 1);
  EXPECT_DOUBLE_EQ(rec.series("loss")[1].value, 1.25);
  const auto names = rec.series_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "loss");  // lexicographic
  EXPECT_EQ(names[1], "lr");
  const std::string csv = rec.to_csv();
  EXPECT_NE(csv.find("series,step,value"), std::string::npos);
  EXPECT_NE(csv.find("loss,1,1.25"), std::string::npos);
}

TEST(Recorder, WriteCsvRoundTrip) {
  train::Recorder rec;
  rec.record("acc", 5, 0.75);
  const std::string path = "/tmp/legw_test_recorder.csv";
  ASSERT_TRUE(rec.write_csv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256] = {};
  const std::size_t got = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_GT(got, 0u);
  EXPECT_NE(std::string(buf).find("acc,5,0.75"), std::string::npos);
}

TEST(Recorder, RejectsDecreasingSteps) {
  train::Recorder rec;
  rec.record("x", 3, 1.0);
  EXPECT_DEATH(rec.record("x", 2, 1.0), "non-decreasing");
}

// ---- Flags -------------------------------------------------------------------------

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog",      "--batch", "64",   "--lr=0.5",
                        "positional", "--verbose"};
  core::Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.program(), "prog");
  EXPECT_EQ(flags.get_int("batch", 0), 64);
  EXPECT_DOUBLE_EQ(flags.get_double("lr", 0.0), 0.5);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_FALSE(flags.get_bool("quiet", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
  EXPECT_TRUE(flags.has("batch"));
  EXPECT_FALSE(flags.has("missing"));
  EXPECT_EQ(flags.get_string("missing", "fallback"), "fallback");
}

TEST(Flags, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n", "abc"};
  core::Flags flags(3, const_cast<char**>(argv));
  EXPECT_DEATH(flags.get_int("n", 0), "expects an integer");
  // An empty value must not silently parse as 0 over the default, and an
  // out-of-range one must not saturate.
  const char* edge_argv[] = {"prog",
                             "--epochs=",
                             "--lr=",
                             "--steps",
                             "99999999999999999999999",
                             "--low",
                             "-99999999999999999999999",
                             "--big",
                             "1e999"};
  core::Flags edge(9, const_cast<char**>(edge_argv));
  EXPECT_DEATH(edge.get_int("epochs", 5), "expects an integer");
  EXPECT_DEATH(edge.get_double("lr", 0.1), "expects a number");
  EXPECT_DEATH(edge.get_int("steps", 1), "expects an integer");
  EXPECT_DEATH(edge.get_int("low", 1), "expects an integer");
  EXPECT_DEATH(edge.get_double("big", 1.0), "expects a number");
  // strtod's non-finite spellings and strtoll/strtod's skipped leading
  // whitespace are not numbers a flag accepts.
  const char* odd_argv[] = {"prog",  "--lr", "nan", "--neg", "-nan", "--m",
                            "inf",   "--n",  " 7",  "--x",   " 0.5"};
  core::Flags odd(11, const_cast<char**>(odd_argv));
  EXPECT_DEATH(odd.get_double("lr", 0.1), "expects a number");
  EXPECT_DEATH(odd.get_double("neg", 0.1), "expects a number");
  EXPECT_DEATH(odd.get_double("m", 1.0), "expects a number");
  EXPECT_DEATH(odd.get_int("n", 1), "expects an integer");
  EXPECT_DEATH(odd.get_double("x", 1.0), "expects a number");
}

}  // namespace
}  // namespace legw
