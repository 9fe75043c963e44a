// Property battery for the dist layer: tree-allreduce determinism and
// mean-correctness over shard counts 1–16 (odd, even, non-power-of-two),
// degenerate tensor shapes, the bucket planner's invariants, the graceful
// fit_device_model fallbacks, fp16 round-trip edge cases, and the
// overlap-aware cluster step-time model.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ag/variable.hpp"
#include "dist/algorithms.hpp"
#include "dist/cluster_model.hpp"
#include "dist/compression.hpp"
#include "dist/overlap.hpp"

namespace legw::dist {
namespace {

using core::Rng;
using core::Tensor;

class AllreducePropertyTest : public ::testing::TestWithParam<int> {};

// Bitwise determinism across repeated runs, for every shard count 1–16 and
// for zero-element, 1-element and non-round tensor sizes.
TEST_P(AllreducePropertyTest, BitwiseDeterministicAcrossRuns) {
  const int n = GetParam();
  for (const i64 numel : {i64{0}, i64{1}, i64{33}, i64{64}}) {
    auto run = [&](std::vector<Tensor>& storage) {
      storage.clear();
      Rng rng(1234 + static_cast<u64>(numel));
      for (int i = 0; i < n; ++i) {
        storage.push_back(numel > 0 ? Tensor::randn({numel}, rng)
                                    : Tensor({0}));
      }
      std::vector<Tensor*> ptrs;
      for (auto& t : storage) ptrs.push_back(&t);
      tree_allreduce_mean(ptrs);
    };
    std::vector<Tensor> s1, s2;
    run(s1);
    run(s2);
    for (int i = 0; i < n; ++i) {
      for (i64 j = 0; j < numel; ++j) {
        ASSERT_EQ(s1[static_cast<std::size_t>(i)][j],
                  s2[static_cast<std::size_t>(i)][j])
            << "shards=" << n << " numel=" << numel << " elem " << j;
      }
    }
  }
}

// Every shard ends up holding the mean, verified against a straightforward
// double-precision reference summation.
TEST_P(AllreducePropertyTest, MatchesDoublePrecisionMean) {
  const int n = GetParam();
  const i64 numel = 47;
  Rng rng(99 + static_cast<u64>(n));
  std::vector<Tensor> shards;
  for (int i = 0; i < n; ++i) shards.push_back(Tensor::randn({numel}, rng));

  std::vector<double> reference(static_cast<std::size_t>(numel), 0.0);
  for (const Tensor& t : shards) {
    for (i64 j = 0; j < numel; ++j) {
      reference[static_cast<std::size_t>(j)] += static_cast<double>(t[j]);
    }
  }
  for (double& v : reference) v /= static_cast<double>(n);

  std::vector<Tensor*> ptrs;
  for (auto& t : shards) ptrs.push_back(&t);
  tree_allreduce_mean(ptrs);

  for (int i = 0; i < n; ++i) {
    for (i64 j = 0; j < numel; ++j) {
      ASSERT_NEAR(shards[static_cast<std::size_t>(i)][j],
                  reference[static_cast<std::size_t>(j)], 1e-5)
          << "shards=" << n << " elem " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, AllreducePropertyTest,
                         ::testing::Range(1, 17));

TEST(AllreduceProperty, OneElementTensors) {
  Tensor a({1}, {2.0f});
  Tensor b({1}, {4.0f});
  std::vector<Tensor*> shards = {&a, &b};
  tree_allreduce_mean(shards);
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  EXPECT_FLOAT_EQ(b[0], 3.0f);
}

// ---- bucket planner ---------------------------------------------------------

std::vector<ag::Variable> make_params(const std::vector<i64>& sizes) {
  std::vector<ag::Variable> params;
  Rng rng(7);
  for (i64 s : sizes) {
    params.push_back(ag::Variable::leaf(Tensor::randn({s}, rng), true));
  }
  return params;
}

TEST(PlanBuckets, CoversEveryParamOnceInOrder) {
  const auto params = make_params({100, 300, 50, 50, 700, 10, 10, 10});
  const i64 target = 256 * static_cast<i64>(sizeof(float));  // 1 KB
  const auto buckets = plan_buckets(params, target);
  std::vector<std::size_t> flattened;
  for (const auto& b : buckets) {
    ASSERT_FALSE(b.empty());
    for (std::size_t p : b) flattened.push_back(p);
  }
  ASSERT_EQ(flattened.size(), params.size());
  for (std::size_t i = 0; i < flattened.size(); ++i) {
    EXPECT_EQ(flattened[i], i) << "buckets must cover params consecutively";
  }
}

TEST(PlanBuckets, ClosesBucketsAtTargetSize) {
  const auto params = make_params({100, 300, 50, 50, 700, 10, 10, 10});
  const i64 target = 256 * static_cast<i64>(sizeof(float));
  const auto buckets = plan_buckets(params, target);
  EXPECT_GT(buckets.size(), 1u);
  for (const auto& b : buckets) {
    // The bucket was still open before its last parameter was added.
    i64 before_last = 0;
    for (std::size_t i = 0; i + 1 < b.size(); ++i) {
      before_last += params[b[i]].numel() * static_cast<i64>(sizeof(float));
    }
    EXPECT_LT(before_last, target);
  }
}

TEST(PlanBuckets, DeterministicAndSingleBucketWhenLarge) {
  const auto params = make_params({100, 300, 50});
  const auto a = plan_buckets(params, 1 << 20);
  const auto b = plan_buckets(params, 1 << 20);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].size(), params.size());
}

// ---- fit_device_model degenerate inputs ------------------------------------

TEST(FitDeviceModel, EmptyInputReturnsDefaultModel) {
  const DeviceModel m = fit_device_model({});
  const DeviceModel def{};
  EXPECT_EQ(m.peak_samples_per_sec, def.peak_samples_per_sec);
  EXPECT_EQ(m.half_saturation_batch, def.half_saturation_batch);
}

TEST(FitDeviceModel, SingleSampleFallsBackToThroughput) {
  const DeviceModel m = fit_device_model({{32, 0.1}});
  EXPECT_NEAR(m.peak_samples_per_sec, 320.0, 1e-9);
  EXPECT_EQ(m.half_saturation_batch, 0.0);
  EXPECT_TRUE(std::isfinite(m.step_seconds(64.0)));
}

TEST(FitDeviceModel, AllEqualBatchSizesFallBackToMeanThroughput) {
  // Identical batch sizes leave the regression denominator at zero; the
  // fallback is the mean measured throughput with no saturation term.
  const DeviceModel m = fit_device_model({{64, 0.2}, {64, 0.25}, {64, 0.2}});
  const double expected = (64.0 / 0.2 + 64.0 / 0.25 + 64.0 / 0.2) / 3.0;
  EXPECT_NEAR(m.peak_samples_per_sec, expected, 1e-9);
  EXPECT_EQ(m.half_saturation_batch, 0.0);
}

TEST(FitDeviceModel, ZeroTimeSamplesDoNotDivideByZero) {
  const DeviceModel m = fit_device_model({{64, 0.0}});
  EXPECT_TRUE(std::isfinite(m.peak_samples_per_sec));
  EXPECT_GT(m.peak_samples_per_sec, 0.0);
}

// ---- fp16 round-trip edge cases --------------------------------------------

TEST(Fp16RoundTrip, EmptyTensor) {
  Tensor empty({0});
  std::vector<u16> wire;
  compress_fp16(empty, wire);
  EXPECT_TRUE(wire.empty());
  Tensor out({0});
  decompress_fp16(wire, out);
  EXPECT_EQ(out.numel(), 0);
}

TEST(Fp16RoundTrip, AllZeroTensorIsExact) {
  Tensor zeros = Tensor::zeros({17});
  std::vector<u16> wire;
  compress_fp16(zeros, wire);
  Tensor out = Tensor::zeros({17});
  decompress_fp16(wire, out);
  for (i64 i = 0; i < out.numel(); ++i) {
    EXPECT_EQ(out[i], 0.0f);
  }
}

// ---- overlap-aware cluster model -------------------------------------------

TEST(ClusterModel, OverlappedStepNeverSlowerThanSequential) {
  ClusterConfig cfg;
  cfg.device = {1000.0, 64.0};
  cfg.max_batch_per_worker = 256;
  for (i64 batch : {256, 512, 1024, 2048}) {
    const double seq = cluster_step_seconds(cfg, batch, CommMode::kSequential);
    const double ovl = cluster_step_seconds(cfg, batch, CommMode::kOverlapped);
    EXPECT_LE(ovl, seq) << "batch " << batch;
  }
  // With multiple workers paying a real comm term, overlap strictly wins.
  cfg.allreduce_latency_sec = 0.05;
  EXPECT_LT(cluster_step_seconds(cfg, 1024, CommMode::kOverlapped),
            cluster_step_seconds(cfg, 1024, CommMode::kSequential));
}

TEST(ClusterModel, ZeroOverlappableFractionEqualsSequential) {
  ClusterConfig cfg;
  cfg.device = {1000.0, 64.0};
  cfg.max_batch_per_worker = 128;
  cfg.overlappable_fraction = 0.0;
  EXPECT_DOUBLE_EQ(cluster_step_seconds(cfg, 1024, CommMode::kOverlapped),
                   cluster_step_seconds(cfg, 1024, CommMode::kSequential));
}

TEST(ClusterModel, EpochTimeDefaultsToSequentialMode) {
  ClusterConfig cfg;
  cfg.device = {1000.0, 64.0};
  cfg.max_batch_per_worker = 256;
  const auto def = cluster_epoch_time(cfg, 100000, 1024);
  const auto seq =
      cluster_epoch_time(cfg, 100000, 1024, CommMode::kSequential);
  EXPECT_DOUBLE_EQ(def.step_seconds, seq.step_seconds);
  const auto ovl =
      cluster_epoch_time(cfg, 100000, 1024, CommMode::kOverlapped);
  EXPECT_LE(ovl.epoch_seconds, seq.epoch_seconds);
}

}  // namespace
}  // namespace legw::dist
