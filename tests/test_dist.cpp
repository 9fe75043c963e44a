// Distributed simulation: tree all-reduce, data-parallel gradient
// equivalence through the replica engine, and the cluster performance model.
#include <gtest/gtest.h>

#include <cmath>

#include "ag/ops.hpp"
#include "dist/algorithms.hpp"
#include "dist/cluster_model.hpp"
#include "dist/overlap.hpp"
#include "nn/layers.hpp"
#include "obs/trace.hpp"

namespace legw::dist {
namespace {

using core::Rng;
using core::Tensor;

TEST(TreeAllreduce, MeanOfShards) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {3.0f, 4.0f});
  Tensor c({2}, {5.0f, 6.0f});
  std::vector<Tensor*> shards = {&a, &b, &c};
  tree_allreduce_mean(shards);
  for (Tensor* t : shards) {
    EXPECT_FLOAT_EQ((*t)[0], 3.0f);
    EXPECT_FLOAT_EQ((*t)[1], 4.0f);
  }
}

TEST(TreeAllreduce, SingleShardIsIdentity) {
  Tensor a({3}, {1.0f, 2.0f, 3.0f});
  std::vector<Tensor*> shards = {&a};
  tree_allreduce_mean(shards);
  EXPECT_FLOAT_EQ(a[1], 2.0f);
}

class AllreduceWorkerCountTest : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceWorkerCountTest, DeterministicAcrossRuns) {
  const int n = GetParam();
  auto make_shards = [n](std::vector<Tensor>& storage) {
    storage.clear();
    Rng rng(123);
    for (int i = 0; i < n; ++i) {
      storage.push_back(Tensor::randn({64}, rng));
    }
    std::vector<Tensor*> ptrs;
    for (auto& t : storage) ptrs.push_back(&t);
    return ptrs;
  };
  std::vector<Tensor> s1, s2;
  auto p1 = make_shards(s1);
  auto p2 = make_shards(s2);
  tree_allreduce_mean(p1);
  tree_allreduce_mean(p2);
  for (i64 i = 0; i < 64; ++i) {
    ASSERT_EQ(s1[0][i], s2[0][i]) << "non-deterministic reduction";
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, AllreduceWorkerCountTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(ReplicaBackward, MatchesFullBatchGradient) {
  // Data-parallel invariant: mean of per-shard mean-loss gradients over
  // equal shards == full-batch mean-loss gradient.
  Rng rng(5);
  nn::Linear layer(4, 3, rng);
  Tensor full_x = Tensor::randn({8, 4}, rng);
  Rng wrng(6);
  Tensor weights = Tensor::randn({8, 3}, wrng);

  // Full-batch gradient of mean over all rows.
  layer.zero_grad();
  ag::backward(ag::mean_all(
      ag::mul(layer.forward(ag::Variable::constant(full_x)),
              ag::Variable::constant(weights))));
  Tensor full_grad = layer.weight().grad();
  layer.zero_grad();

  // 4 replicas, 2 rows each. Each replica owns fresh leaves holding the
  // layer's weight *values*, so concurrent replica threads share nothing.
  constexpr int kReplicas = 4;
  std::vector<std::vector<ag::Variable>> replica_params;
  for (int r = 0; r < kReplicas; ++r) {
    replica_params.push_back(
        {ag::Variable::leaf(layer.weight().value(), true),
         ag::Variable::leaf(layer.bias().value(), true)});
  }
  const float mean_loss = replica_backward(replica_params, [&](int r) {
    Tensor shard_x({2, 4});
    Tensor shard_w({2, 3});
    for (i64 i = 0; i < 2; ++i) {
      for (i64 c = 0; c < 4; ++c) shard_x.at(i, c) = full_x.at(r * 2 + i, c);
      for (i64 c = 0; c < 3; ++c) shard_w.at(i, c) = weights.at(r * 2 + i, c);
    }
    const auto& p = replica_params[static_cast<std::size_t>(r)];
    ag::Variable y =
        ag::add_bias(ag::matmul(ag::Variable::constant(shard_x), p[0]), p[1]);
    return ag::mean_all(ag::mul(y, ag::Variable::constant(shard_w)));
  });
  EXPECT_TRUE(std::isfinite(mean_loss));
  for (int r = 0; r < kReplicas; ++r) {
    const Tensor& got = replica_params[static_cast<std::size_t>(r)][0].grad();
    for (i64 i = 0; i < full_grad.numel(); ++i) {
      EXPECT_NEAR(got[i], full_grad[i], 1e-5f)
          << "replica " << r << " elem " << i;
    }
  }
}

TEST(ReplicaBackward, CountsWireTrafficWithTracingDisabled) {
  // dist.* counters ride every telemetry record: an ordinary run (tracing
  // off) must still see the allreduce it performed.
  Rng rng(7);
  nn::Linear layer(4, 3, rng);
  constexpr int kReplicas = 2;
  std::vector<std::vector<ag::Variable>> replica_params;
  for (int r = 0; r < kReplicas; ++r) {
    replica_params.push_back(
        {ag::Variable::leaf(layer.weight().value(), true),
         ag::Variable::leaf(layer.bias().value(), true)});
  }
  Tensor x = Tensor::randn({2, 4}, rng);
  const bool was_tracing = obs::tracing_enabled();
  obs::set_tracing_enabled(false);
  obs::TraceRecorder::global().clear();
  const float mean_loss = replica_backward(replica_params, [&](int r) {
    const auto& p = replica_params[static_cast<std::size_t>(r)];
    return ag::mean_all(
        ag::add_bias(ag::matmul(ag::Variable::constant(x), p[0]), p[1]));
  });
  const auto counters = obs::TraceRecorder::global().counters();
  const bool spans_empty = obs::TraceRecorder::global().spans().empty();
  obs::TraceRecorder::global().clear();
  obs::set_tracing_enabled(was_tracing);

  EXPECT_TRUE(std::isfinite(mean_loss));
  ASSERT_NE(counters.find("dist.wire_bytes"), counters.end());
  EXPECT_GT(counters.at("dist.wire_bytes"), 0);
  ASSERT_NE(counters.find("bucket_reduce"), counters.end());
  EXPECT_GT(counters.at("bucket_reduce"), 0);
  EXPECT_TRUE(spans_empty);
}

TEST(DeviceModel, SaturationCurveShape) {
  DeviceModel m{1000.0, 64.0};
  EXPECT_NEAR(m.throughput(64.0), 500.0, 1e-9);     // half peak at b_half
  EXPECT_GT(m.throughput(1024.0), m.throughput(64.0));
  EXPECT_LT(m.throughput(1024.0), 1000.0);          // never exceeds peak
  // Bigger batch -> more samples/sec -> fewer seconds per epoch.
  EXPECT_LT(m.epoch_seconds(10000, 512), m.epoch_seconds(10000, 32));
}

TEST(DeviceModel, FitRecoversParameters) {
  DeviceModel truth{800.0, 48.0};
  std::vector<std::pair<i64, double>> samples;
  for (i64 b : {16, 32, 64, 128, 256, 512}) {
    samples.emplace_back(b, truth.step_seconds(static_cast<double>(b)));
  }
  DeviceModel fit = fit_device_model(samples);
  EXPECT_NEAR(fit.peak_samples_per_sec, 800.0, 1.0);
  EXPECT_NEAR(fit.half_saturation_batch, 48.0, 0.5);
}

TEST(ClusterModel, CommunicationCostGrowsWithWorkers) {
  ClusterConfig cfg;
  cfg.device = {1000.0, 64.0};
  cfg.max_batch_per_worker = 256;
  auto t1 = cluster_epoch_time(cfg, 100000, 256);   // 1 worker
  auto t4 = cluster_epoch_time(cfg, 100000, 1024);  // 4 workers
  EXPECT_EQ(t1.workers, 1);
  EXPECT_EQ(t4.workers, 4);
  // Same per-worker batch, but t4 pays all-reduce while t1 doesn't — and
  // still wins overall because it runs 4x fewer steps.
  EXPECT_LT(t4.epoch_seconds, t1.epoch_seconds);
}

}  // namespace
}  // namespace legw::dist
