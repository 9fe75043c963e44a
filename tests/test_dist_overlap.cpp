// The bucketed data-parallel engine: grad-ready hook semantics, bitwise
// equivalence with a serial oracle at 1/2/4/8 replicas, wire-model
// invariance, fault injection (stragglers, dead replicas, degrade and
// fail-fast policies) and observability.
#include <gtest/gtest.h>

#include <functional>
#include <unordered_map>
#include <vector>

#include "ag/ops.hpp"
#include "ag/variable.hpp"
#include "data/synthetic_mnist.hpp"
#include "dist/algorithms.hpp"
#include "dist/overlap.hpp"
#include "models/mnist_lstm.hpp"
#include "obs/trace.hpp"
#include "optim/optimizer.hpp"

namespace legw::dist {
namespace {

using core::Rng;
using core::Tensor;

// ---- BackwardHooks ----------------------------------------------------------

TEST(BackwardHooks, LeafFiresOnceWithFinalGradient) {
  // `a` feeds two ops at different graph depths; the hook must fire exactly
  // once, after the LAST consumer's closure ran, with the gradient already
  // at its final value.
  ag::Variable a = ag::Variable::leaf(Tensor({3}, {1.0f, 2.0f, 3.0f}), true);
  ag::Variable b = ag::Variable::leaf(Tensor({3}, {4.0f, 5.0f, 6.0f}), true);
  ag::Variable x = ag::mul(a, b);
  ag::Variable y = ag::add(x, a);
  ag::Variable loss = ag::sum_all(y);

  std::unordered_map<ag::Node*, int> fires;
  std::unordered_map<ag::Node*, Tensor> snapshot;
  ag::BackwardHooks hooks;
  hooks.on_leaf_grad_ready = [&](ag::Node& leaf) {
    ++fires[&leaf];
    snapshot[&leaf] = leaf.grad;  // copy at fire time
  };
  ag::backward(loss, nullptr, hooks);

  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[a.node().get()], 1);
  EXPECT_EQ(fires[b.node().get()], 1);
  for (const ag::Variable& leaf : {a, b}) {
    const Tensor& final_grad = leaf.grad();
    const Tensor& at_fire = snapshot[leaf.node().get()];
    ASSERT_EQ(at_fire.numel(), final_grad.numel());
    for (i64 i = 0; i < final_grad.numel(); ++i) {
      EXPECT_EQ(at_fire[i], final_grad[i]) << "hook fired before finality";
    }
  }
  // d loss / d a = b + 1 (mul path + add path), so finality is observable.
  EXPECT_FLOAT_EQ(a.grad()[0], 5.0f);
  EXPECT_FLOAT_EQ(b.grad()[0], 1.0f);
}

TEST(BackwardHooks, RootLeafFiresImmediately) {
  ag::Variable a = ag::Variable::leaf(Tensor({1}, {2.0f}), true);
  int fires = 0;
  ag::BackwardHooks hooks;
  hooks.on_leaf_grad_ready = [&](ag::Node& leaf) {
    ++fires;
    EXPECT_EQ(leaf.grad[0], 1.0f);  // just the seed
  };
  ag::backward(a, nullptr, hooks);
  EXPECT_EQ(fires, 1);
}

TEST(BackwardHooks, UnreachableLeafNeverFires) {
  ag::Variable a = ag::Variable::leaf(Tensor({2}, {1.0f, 2.0f}), true);
  ag::Variable unused = ag::Variable::leaf(Tensor({2}, {9.0f, 9.0f}), true);
  ag::Variable loss = ag::sum_all(a);
  std::vector<ag::Node*> fired;
  ag::BackwardHooks hooks;
  hooks.on_leaf_grad_ready = [&](ag::Node& leaf) { fired.push_back(&leaf); };
  ag::backward(loss, nullptr, hooks);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], a.node().get());
  EXPECT_NE(fired[0], unused.node().get());
}

// ---- equivalence with a serial oracle ----------------------------------------------

struct ReplicaSet {
  std::vector<std::unique_ptr<models::MnistLstm>> models;
  std::vector<std::vector<ag::Variable>> params;
};

ReplicaSet make_replicas(int n) {
  models::MnistLstmConfig cfg;
  cfg.transform_dim = 8;
  cfg.hidden_dim = 8;
  ReplicaSet set;
  for (int r = 0; r < n; ++r) {
    set.models.push_back(std::make_unique<models::MnistLstm>(cfg));
    set.params.push_back(set.models.back()->parameters());
  }
  return set;
}

// The data-parallel contract with no engine, no threads and no buckets:
// each replica's backward runs alone on this thread, then every parameter's
// gradients are tree-reduced across replicas in parameter-index order.
// Returns the mean shard loss, summed in replica-index order.
float serial_oracle_backward(
    const std::vector<std::vector<ag::Variable>>& params,
    const std::function<ag::Variable(int)>& loss_fn) {
  const int n = static_cast<int>(params.size());
  float loss_sum = 0.0f;
  for (int r = 0; r < n; ++r) {
    for (ag::Variable p : params[static_cast<std::size_t>(r)]) {
      p.mutable_grad().zero_();
    }
    ag::Variable loss = loss_fn(r);
    loss_sum += loss.value()[0];
    ag::backward(loss);
  }
  for (std::size_t p = 0; p < params[0].size(); ++p) {
    std::vector<Tensor*> shards;
    for (int r = 0; r < n; ++r) {
      ag::Variable handle = params[static_cast<std::size_t>(r)][p];
      shards.push_back(&handle.mutable_grad());
    }
    tree_allreduce_mean(shards);
  }
  return loss_sum / static_cast<float>(n);
}

// One identical momentum step on every replica.
void momentum_step(const std::vector<std::vector<ag::Variable>>& params) {
  for (const auto& replica : params) {
    auto opt = optim::make_optimizer("momentum", replica);
    opt->set_lr(0.05f);
    opt->step();
  }
}

class OverlapEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(OverlapEquivalenceTest, BitwiseMatchesSerialOracle) {
  const int n = GetParam();
  data::SyntheticMnist dataset(64, 16, 42);
  const i64 shard = 4;
  std::vector<i64> idx(static_cast<std::size_t>(n) * shard);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<i64>(i);

  auto loss_fn = [&](ReplicaSet& set) {
    return [&set, &dataset, &idx, shard](int r) {
      std::vector<i64> sh(idx.begin() + r * shard,
                          idx.begin() + (r + 1) * shard);
      return set.models[static_cast<std::size_t>(r)]->loss(
          dataset.gather_images(sh, true), dataset.gather_labels(sh, true));
    };
  };

  ReplicaSet oracle = make_replicas(n);
  const float oracle_loss =
      serial_oracle_backward(oracle.params, loss_fn(oracle));
  std::vector<std::vector<Tensor>> oracle_grads;
  for (const auto& replica : oracle.params) {
    oracle_grads.emplace_back();
    for (const ag::Variable& p : replica) oracle_grads.back().push_back(p.grad());
  }
  momentum_step(oracle.params);

  ReplicaSet set = make_replicas(n);
  OverlapConfig config;
  config.bucket_bytes = 1024;  // small target => several buckets
  const OverlapResult res =
      overlapped_backward(set.params, loss_fn(set), config);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.stats.n_buckets, 1);
  EXPECT_EQ(res.stats.buckets_reduced, res.stats.n_buckets);
  EXPECT_EQ(res.mean_loss, oracle_loss);

  // Averaged gradients bitwise identical on every replica.
  for (int r = 0; r < n; ++r) {
    const auto rs = static_cast<std::size_t>(r);
    for (std::size_t p = 0; p < oracle.params[0].size(); ++p) {
      const Tensor& want = oracle_grads[rs][p];
      const Tensor& got = set.params[rs][p].grad();
      ASSERT_EQ(want.numel(), got.numel());
      for (i64 i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "replica " << r << " param " << p << " elem " << i;
      }
    }
  }

  // Identical momentum steps must then produce bitwise-identical
  // parameters.
  momentum_step(set.params);
  for (int r = 0; r < n; ++r) {
    const auto rs = static_cast<std::size_t>(r);
    for (std::size_t p = 0; p < oracle.params[0].size(); ++p) {
      const Tensor& want = oracle.params[rs][p].value();
      const Tensor& got = set.params[rs][p].value();
      for (i64 i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "post-step replica " << r
                                   << " param " << p << " elem " << i;
      }
    }
  }
  EXPECT_EQ(first_divergent_param(set.params), -1);
}

INSTANTIATE_TEST_SUITE_P(ReplicaCounts, OverlapEquivalenceTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(OverlapEngine, WireCostChangesNoValue) {
  // A modelled wire cost delays each bucket's reduction, which reorders when
  // buckets complete but not what they hold, so a costed and a free wire
  // give bitwise-identical results (bench/dist_scaling's parity rests on
  // this).
  const int n = 4;
  data::SyntheticMnist dataset(64, 16, 42);
  ReplicaSet a_set = make_replicas(n);
  ReplicaSet b_set = make_replicas(n);
  std::vector<i64> idx = {0, 1, 2, 3, 4, 5, 6, 7};
  auto loss_fn = [&](ReplicaSet& set) {
    return [&set, &dataset, &idx](int r) {
      std::vector<i64> sh(idx.begin() + r * 2, idx.begin() + (r + 1) * 2);
      return set.models[static_cast<std::size_t>(r)]->loss(
          dataset.gather_images(sh, true), dataset.gather_labels(sh, true));
    };
  };
  OverlapConfig free_wire;
  free_wire.bucket_bytes = 1024;
  OverlapConfig costed = free_wire;
  costed.wire.latency_us = 1.0;
  const OverlapResult ra = overlapped_backward(a_set.params, loss_fn(a_set),
                                               costed);
  const OverlapResult rb = overlapped_backward(b_set.params, loss_fn(b_set),
                                               free_wire);
  ASSERT_TRUE(ra.ok) << ra.error;
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_EQ(ra.mean_loss, rb.mean_loss);
  for (std::size_t p = 0; p < a_set.params[0].size(); ++p) {
    const Tensor& want = a_set.params[0][p].grad();
    const Tensor& got = b_set.params[0][p].grad();
    for (i64 i = 0; i < want.numel(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "param " << p << " elem " << i;
    }
  }
}

TEST(OverlapEngine, AutoPolicyResolvesPerBucket) {
  // kAuto sees the bucket's payload, not each parameter's: three 24 KB
  // parameters (each under the 64 KB tree cutoff) share one 72 KB bucket,
  // which 4 replicas reduce with the ring.
  const int n = 4;
  const i64 numel = 6000;
  std::vector<std::vector<ag::Variable>> params;
  for (int r = 0; r < n; ++r) {
    Rng rng(70 + static_cast<u64>(r));
    params.push_back({ag::Variable::leaf(Tensor::randn({numel}, rng), true),
                      ag::Variable::leaf(Tensor::randn({numel}, rng), true),
                      ag::Variable::leaf(Tensor::randn({numel}, rng), true)});
  }
  OverlapConfig config;  // 256 KB buckets, kAuto
  ASSERT_EQ(config.algo, DistAlgo::kAuto);
  const OverlapResult res = overlapped_backward(
      params,
      [&](int r) {
        const auto& p = params[static_cast<std::size_t>(r)];
        return ag::add(ag::mean_all(ag::mul(p[0], p[0])),
                       ag::add(ag::mean_all(ag::mul(p[1], p[1])),
                               ag::mean_all(ag::mul(p[2], p[2]))));
      },
      config);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.stats.n_buckets, 1);
  EXPECT_EQ(res.stats.buckets_ring, 1);
  EXPECT_EQ(res.stats.buckets_tree, 0);
}

// ---- fault injection --------------------------------------------------------

// Simple per-replica graphs with replica-dependent gradients: w starts at
// (r+1, r+2, ...), loss = mean(w*w), so d loss / d w = w / 2 differs across
// replicas and survivor means are distinguishable from full means.
std::vector<std::vector<ag::Variable>> make_leaf_replicas(int n, i64 numel) {
  std::vector<std::vector<ag::Variable>> params;
  for (int r = 0; r < n; ++r) {
    Tensor w({numel});
    for (i64 i = 0; i < numel; ++i) {
      w[i] = static_cast<float>(r + 1) + 0.25f * static_cast<float>(i);
    }
    params.push_back({ag::Variable::leaf(w, true)});
  }
  return params;
}

ag::Variable leaf_loss(const std::vector<std::vector<ag::Variable>>& params,
                       int r) {
  const ag::Variable& w = params[static_cast<std::size_t>(r)][0];
  return ag::mean_all(ag::mul(w, w));
}

TEST(FaultInjection, SeededStragglersDoNotChangeResults) {
  const int n = 4;
  data::SyntheticMnist dataset(64, 16, 42);
  ReplicaSet clean_set = make_replicas(n);
  ReplicaSet slow_set = make_replicas(n);
  std::vector<i64> idx = {0, 1, 2, 3, 4, 5, 6, 7};
  auto loss_fn = [&](ReplicaSet& set) {
    return [&set, &dataset, &idx](int r) {
      std::vector<i64> sh(idx.begin() + r * 2, idx.begin() + (r + 1) * 2);
      return set.models[static_cast<std::size_t>(r)]->loss(
          dataset.gather_images(sh, true), dataset.gather_labels(sh, true));
    };
  };

  OverlapConfig config;
  config.bucket_bytes = 1024;
  const OverlapResult clean =
      overlapped_backward(clean_set.params, loss_fn(clean_set), config);

  const FaultPlan plan = FaultPlan::stragglers(/*seed=*/11, n, /*count=*/2,
                                               /*delay_ms=*/25.0);
  ASSERT_EQ(plan.faults.size(), 2u);
  OverlapConfig slow_config = config;
  slow_config.faults = &plan;
  const OverlapResult slow =
      overlapped_backward(slow_set.params, loss_fn(slow_set), slow_config);

  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_TRUE(slow.ok) << slow.error;
  EXPECT_TRUE(slow.stats.excluded_replicas.empty());
  EXPECT_EQ(slow.mean_loss, clean.mean_loss);
  for (std::size_t p = 0; p < clean_set.params[0].size(); ++p) {
    const Tensor& want = clean_set.params[0][p].grad();
    const Tensor& got = slow_set.params[0][p].grad();
    for (i64 i = 0; i < want.numel(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "slowness changed values: param " << p;
    }
  }
}

TEST(FaultInjection, SeededStragglersAreDeterministic) {
  const FaultPlan a = FaultPlan::stragglers(77, 8, 3, 10.0);
  const FaultPlan b = FaultPlan::stragglers(77, 8, 3, 10.0);
  ASSERT_EQ(a.faults.size(), 3u);
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].replica, b.faults[i].replica);
  }
}

TEST(FaultInjection, DeadReplicaDegradesToSurvivorMean) {
  const int n = 4;
  const i64 numel = 8;
  const bool was_tracing = obs::tracing_enabled();
  obs::set_tracing_enabled(true);
  obs::TraceRecorder::global().clear();

  auto params = make_leaf_replicas(n, numel);
  const FaultPlan plan = FaultPlan::dead_replica(2);
  OverlapConfig config;
  config.faults = &plan;
  config.bucket_timeout_ms = 250.0;
  config.timeout_policy = TimeoutPolicy::kDegradeToSurvivors;
  const OverlapResult res = overlapped_backward(
      params, [&](int r) { return leaf_loss(params, r); }, config);

  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.stats.dead_replicas.size(), 1u);
  EXPECT_EQ(res.stats.dead_replicas[0], 2);
  ASSERT_EQ(res.stats.excluded_replicas.size(), 1u);
  EXPECT_EQ(res.stats.excluded_replicas[0], 2);
  EXPECT_GE(res.stats.timeout_episodes, 1);

  // Expected survivor mean, built independently: per-replica gradients from
  // standalone backward passes, reduced with the same deterministic tree.
  std::vector<Tensor> expected_grads;
  for (int r : {0, 1, 3}) {
    auto solo = make_leaf_replicas(n, numel);
    ag::backward(leaf_loss(solo, r));
    expected_grads.push_back(solo[static_cast<std::size_t>(r)][0].grad());
  }
  std::vector<Tensor*> shards;
  for (auto& t : expected_grads) shards.push_back(&t);
  tree_allreduce_mean(shards);

  for (int r : {0, 1, 3}) {
    const Tensor& got = params[static_cast<std::size_t>(r)][0].grad();
    for (i64 i = 0; i < numel; ++i) {
      ASSERT_EQ(got[i], expected_grads[0][i])
          << "survivor " << r << " elem " << i;
    }
  }
  // The dead replica contributed nothing and received nothing.
  const Tensor& dead = params[2][0].grad();
  for (i64 i = 0; i < numel; ++i) EXPECT_EQ(dead[i], 0.0f);

  const auto counters = obs::TraceRecorder::global().counters();
  const auto it = counters.find("replica_timeout");
  ASSERT_NE(it, counters.end());
  EXPECT_EQ(it->second, 1);

  obs::TraceRecorder::global().clear();
  obs::set_tracing_enabled(was_tracing);
}

TEST(FaultInjection, FailFastReportsCleanErrorWithoutHanging) {
  const int n = 3;
  auto params = make_leaf_replicas(n, 4);
  const FaultPlan plan = FaultPlan::dead_replica(1);
  OverlapConfig config;
  config.faults = &plan;
  config.bucket_timeout_ms = 100.0;
  config.timeout_policy = TimeoutPolicy::kFailFast;
  const OverlapResult res = overlapped_backward(
      params, [&](int r) { return leaf_loss(params, r); }, config);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("timed out"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("[1]"), std::string::npos) << res.error;
  EXPECT_LT(res.stats.buckets_reduced, res.stats.n_buckets);
}

TEST(FaultInjection, DeadReplicaWithoutTimeoutIsRejected) {
  auto params = make_leaf_replicas(2, 4);
  const FaultPlan plan = FaultPlan::dead_replica(0);
  OverlapConfig config;
  config.faults = &plan;  // bucket_timeout_ms left at 0
  EXPECT_DEATH(overlapped_backward(
                   params, [&](int r) { return leaf_loss(params, r); },
                   config),
               "requires");
}

// ---- observability ----------------------------------------------------------

TEST(OverlapObservability, BucketReduceSpansAndCounters) {
  const bool was_tracing = obs::tracing_enabled();
  obs::set_tracing_enabled(true);
  obs::TraceRecorder::global().clear();

  const int n = 2;
  // Three 300-float parameters against a 1 KB target: three buckets.
  std::vector<std::vector<ag::Variable>> params;
  for (int r = 0; r < n; ++r) {
    Rng rng(50 + static_cast<u64>(r));
    params.push_back({ag::Variable::leaf(Tensor::randn({300}, rng), true),
                      ag::Variable::leaf(Tensor::randn({300}, rng), true),
                      ag::Variable::leaf(Tensor::randn({300}, rng), true)});
  }
  OverlapConfig config;
  config.bucket_bytes = 1024;
  const OverlapResult res = overlapped_backward(
      params,
      [&](int r) {
        const auto& p = params[static_cast<std::size_t>(r)];
        return ag::add(ag::mean_all(ag::mul(p[0], p[0])),
                       ag::add(ag::mean_all(ag::mul(p[1], p[1])),
                               ag::mean_all(ag::mul(p[2], p[2]))));
      },
      config);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.stats.n_buckets, 3);

  const auto spans = obs::TraceRecorder::global().span_counts();
  const auto counters = obs::TraceRecorder::global().counters();
  ASSERT_NE(spans.find("bucket_reduce"), spans.end());
  EXPECT_EQ(spans.at("bucket_reduce"), res.stats.buckets_reduced);
  EXPECT_EQ(spans.at("replica_backward"), n);
  ASSERT_NE(counters.find("bucket_reduce"), counters.end());
  EXPECT_EQ(counters.at("bucket_reduce"), res.stats.buckets_reduced);

  obs::TraceRecorder::global().clear();
  obs::set_tracing_enabled(was_tracing);
}

}  // namespace
}  // namespace legw::dist
