// fp16 compression (exact rounding semantics) and the LR range test.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "analysis/lr_finder.hpp"
#include "core/rng.hpp"
#include "dist/algorithms.hpp"
#include "dist/compression.hpp"

namespace legw {
namespace {

using core::Rng;
using core::Tensor;

TEST(Fp16, ExactValuesRoundTrip) {
  // Values exactly representable in binary16 survive the round trip.
  for (float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, 65504.0f,
                  -65504.0f, 0.25f, 6.1035156e-5f /* min normal half */}) {
    EXPECT_EQ(dist::half_to_float(dist::float_to_half(v)), v) << v;
  }
}

TEST(Fp16, RelativeErrorBoundedForNormals) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const float v = static_cast<float>(rng.uniform(-100.0, 100.0));
    if (std::abs(v) < 1e-3f) continue;
    const float rt = dist::half_to_float(dist::float_to_half(v));
    // binary16 has 11 significand bits: relative error <= 2^-11.
    EXPECT_NEAR(rt, v, std::abs(v) * (1.0f / 2048.0f) + 1e-9f);
  }
}

TEST(Fp16, OverflowToInfAndNanPreserved) {
  EXPECT_TRUE(std::isinf(dist::half_to_float(dist::float_to_half(1e6f))));
  EXPECT_TRUE(std::isinf(dist::half_to_float(dist::float_to_half(-1e6f))));
  EXPECT_LT(dist::half_to_float(dist::float_to_half(-1e6f)), 0.0f);
  EXPECT_TRUE(std::isnan(dist::half_to_float(
      dist::float_to_half(std::numeric_limits<float>::quiet_NaN()))));
  EXPECT_TRUE(std::isinf(dist::half_to_float(
      dist::float_to_half(std::numeric_limits<float>::infinity()))));
}

TEST(Fp16, SubnormalsRepresented) {
  // 2^-24 is the smallest positive subnormal half.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(dist::half_to_float(dist::float_to_half(tiny)), tiny);
  // Halfway below it underflows to zero.
  EXPECT_EQ(dist::half_to_float(dist::float_to_half(tiny / 4.0f)), 0.0f);
}

TEST(Fp16, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1 + 2^-10):
  // ties-to-even rounds to 1.0 (even mantissa).
  const float halfway = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(dist::half_to_float(dist::float_to_half(halfway)), 1.0f);
  // Slightly above halfway rounds up.
  const float above = 1.0f + std::ldexp(1.5f, -11);
  EXPECT_EQ(dist::half_to_float(dist::float_to_half(above)),
            1.0f + std::ldexp(1.0f, -10));
}

TEST(Fp16, TensorWireRoundTrip) {
  Rng rng(2);
  Tensor t = Tensor::randn({64}, rng);
  Tensor back = t;
  dist::wire_roundtrip(dist::WireFormat::kFp16, back);
  for (i64 i = 0; i < 64; ++i) {
    EXPECT_EQ(back[i], dist::half_to_float(dist::float_to_half(t[i])));
    EXPECT_NEAR(back[i], t[i], std::abs(t[i]) / 1000.0f + 1e-6f);
  }
}

TEST(Fp16Allreduce, CloseToExactMean) {
  Rng rng(3);
  std::vector<Tensor> shards;
  std::vector<double> exact(32, 0.0);
  for (int r = 0; r < 8; ++r) {
    shards.push_back(Tensor::randn({32}, rng));
    for (i64 j = 0; j < 32; ++j) exact[static_cast<std::size_t>(j)] += shards.back()[j];
  }
  std::vector<Tensor*> ptrs;
  for (auto& t : shards) ptrs.push_back(&t);
  // The engine's fp16 wire: quantize each contribution at the sender, sum
  // in fp32, quantize the mean once more for the broadcast.
  dist::quantize_contributions(ptrs, core::WireFormat::kFp16, nullptr, 0);
  dist::tree_allreduce_mean(ptrs);
  dist::quantize_broadcast(ptrs, core::WireFormat::kFp16);
  for (i64 j = 0; j < 32; ++j) {
    const double want = exact[static_cast<std::size_t>(j)] / 8.0;
    EXPECT_NEAR(shards[0][j], want, std::abs(want) * 0.01 + 1e-3);
    // All shards identical after broadcast.
    for (int r = 1; r < 8; ++r) {
      EXPECT_EQ(shards[static_cast<std::size_t>(r)][j], shards[0][j]);
    }
  }
}

TEST(LrFinder, DetectsBlowupOnQuadratic) {
  // Gradient descent on f(w) = 0.5 w^2 diverges for lr > 2: the range test
  // must stop and suggest a stable LR below that.
  double w = 5.0;
  auto step = [&](float lr) {
    const double loss = 0.5 * w * w;
    w -= lr * w;
    return loss;
  };
  analysis::LrFinderConfig cfg;
  cfg.min_lr = 0.01f;
  cfg.max_lr = 100.0f;
  cfg.n_steps = 60;
  auto result = analysis::lr_range_test(cfg, step);
  EXPECT_TRUE(result.blew_up);
  EXPECT_GT(result.suggested_lr, 0.0f);
  EXPECT_LT(result.suggested_lr, 2.0f);
}

TEST(LrFinder, SuggestsHalfTheBestLr) {
  // Loss minimised at a known interior step: the suggestion must be half
  // that step's LR.
  int step_idx = 0;
  auto step = [&](float) {
    // V-shape: minimum at step 10 of 20.
    const double s = static_cast<double>(step_idx++);
    return 1.0 + std::abs(s - 10.0);
  };
  analysis::LrFinderConfig cfg;
  cfg.min_lr = 0.001f;
  cfg.max_lr = 0.1f;
  cfg.n_steps = 20;
  cfg.smoothing = 0.0;  // no EMA: exact minimum location
  cfg.blowup_factor = 100.0;
  auto result = analysis::lr_range_test(cfg, step);
  EXPECT_FALSE(result.blew_up);
  ASSERT_EQ(result.trace.size(), 20u);
  EXPECT_FLOAT_EQ(result.suggested_lr, result.trace[10].lr / 2.0f);
}

TEST(LrFinder, NanLossStopsImmediately) {
  auto step = [](float) { return std::nan(""); };
  analysis::LrFinderConfig cfg;
  auto result = analysis::lr_range_test(cfg, step);
  EXPECT_TRUE(result.blew_up);
  EXPECT_TRUE(result.trace.empty());
  EXPECT_EQ(result.suggested_lr, cfg.min_lr);
}

}  // namespace
}  // namespace legw
