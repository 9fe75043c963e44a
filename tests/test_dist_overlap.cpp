// The bucketed data-parallel engine: grad-ready hook semantics, bitwise
// equivalence with a serial oracle at 1/2/4/8 replicas, wire-model
// invariance, independence from the order replicas finish in (including
// seeded stragglers the tests inject), the mean loss and observability.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
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

// ---- arrival order -----------------------------------------------------------

class ArrivalOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(ArrivalOrderTest, ReverseFinishOrderMatchesSerialOracle) {
  // Lower replica indices sleep longer before building their loss, so the
  // replicas deliver their gradients in reverse index order. Completion
  // order may only change when a bucket reduces, never what it holds: the
  // result stays bitwise that of the serial oracle, at one and at two
  // communication threads.
  const int n = 4;
  data::SyntheticMnist dataset(64, 16, 42);
  std::vector<i64> idx = {0, 1, 2, 3, 4, 5, 6, 7};
  auto loss_fn = [&](ReplicaSet& set, bool stagger) {
    return [&set, &dataset, &idx, stagger](int r) {
      if (stagger) {
        const int later = static_cast<int>(set.models.size()) - r;
        std::this_thread::sleep_for(std::chrono::milliseconds(15 * later));
      }
      std::vector<i64> sh(idx.begin() + r * 2, idx.begin() + (r + 1) * 2);
      return set.models[static_cast<std::size_t>(r)]->loss(
          dataset.gather_images(sh, true), dataset.gather_labels(sh, true));
    };
  };

  ReplicaSet oracle = make_replicas(n);
  const float oracle_loss =
      serial_oracle_backward(oracle.params, loss_fn(oracle, false));

  ReplicaSet set = make_replicas(n);
  OverlapConfig config;
  config.bucket_bytes = 1024;
  config.comm_threads = GetParam();
  const OverlapResult res =
      overlapped_backward(set.params, loss_fn(set, true), config);
  EXPECT_GT(res.stats.n_buckets, 1);
  EXPECT_EQ(res.stats.buckets_reduced, res.stats.n_buckets);
  EXPECT_EQ(res.mean_loss, oracle_loss);
  for (int r = 0; r < n; ++r) {
    const auto rs = static_cast<std::size_t>(r);
    for (std::size_t p = 0; p < oracle.params[0].size(); ++p) {
      const Tensor& want = oracle.params[rs][p].grad();
      const Tensor& got = set.params[rs][p].grad();
      ASSERT_EQ(want.numel(), got.numel());
      for (i64 i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "replica " << r << " param " << p << " elem " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CommThreads, ArrivalOrderTest,
                         ::testing::Values(1, 2, 4));

// ---- fault injection ----------------------------------------------------------

// Straggler delays drawn from a seed: `count` distinct replicas of `n` sleep
// `delay_ms` before building their loss, the rest not at all. The delay is
// injected by the test's own loss_fn; the engine has no fault hooks.
std::vector<int> seeded_straggler_delays(u64 seed, int n, int count,
                                         int delay_ms) {
  std::vector<int> delays(static_cast<std::size_t>(n), 0);
  Rng rng(seed);
  for (int picked = 0; picked < count;) {
    const auto r = static_cast<std::size_t>(rng.uniform_int(
        static_cast<u64>(n)));
    if (delays[r] != 0) continue;
    delays[r] = delay_ms;
    ++picked;
  }
  return delays;
}

std::function<ag::Variable(int)> straggled_mnist_loss(
    ReplicaSet& set, const data::SyntheticMnist& dataset,
    const std::vector<int>& delays_ms) {
  return [&set, &dataset, delays_ms](int r) {
    const auto rs = static_cast<std::size_t>(r);
    if (!delays_ms.empty() && delays_ms[rs] > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delays_ms[rs]));
    }
    std::vector<i64> sh = {2 * r, 2 * r + 1};
    return set.models[rs]->loss(dataset.gather_images(sh, true),
                                dataset.gather_labels(sh, true));
  };
}

void expect_same_grads(const ReplicaSet& want, const ReplicaSet& got,
                       const char* what) {
  ASSERT_EQ(want.params.size(), got.params.size());
  for (std::size_t r = 0; r < want.params.size(); ++r) {
    for (std::size_t p = 0; p < want.params[r].size(); ++p) {
      const Tensor& w = want.params[r][p].grad();
      const Tensor& g = got.params[r][p].grad();
      ASSERT_EQ(w.numel(), g.numel());
      for (i64 i = 0; i < w.numel(); ++i) {
        ASSERT_EQ(g[i], w[i]) << what << ": replica " << r << " param " << p
                              << " elem " << i;
      }
    }
  }
}

TEST(FaultInjection, SeededStragglersDoNotChangeResults) {
  const int n = 4;
  data::SyntheticMnist dataset(64, 16, 42);
  OverlapConfig config;
  config.bucket_bytes = 1024;

  ReplicaSet clean_set = make_replicas(n);
  const OverlapResult clean = overlapped_backward(
      clean_set.params, straggled_mnist_loss(clean_set, dataset, {}), config);

  const std::vector<int> delays =
      seeded_straggler_delays(/*seed=*/11, n, /*count=*/2, /*delay_ms=*/25);
  ASSERT_EQ(std::count(delays.begin(), delays.end(), 25), 2);
  ReplicaSet slow_set = make_replicas(n);
  const OverlapResult slow = overlapped_backward(
      slow_set.params, straggled_mnist_loss(slow_set, dataset, delays),
      config);

  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_TRUE(slow.ok) << slow.error;
  EXPECT_EQ(slow.stats.buckets_reduced, slow.stats.n_buckets);
  EXPECT_EQ(slow.mean_loss, clean.mean_loss);
  expect_same_grads(clean_set, slow_set, "slowness changed values");
}

TEST(FaultInjection, SeededStragglersAreDeterministic) {
  // The same seed slows the same replicas, and two runs under it with two
  // communication threads agree bit for bit: straggling changes when a
  // bucket reduces, never what it holds.
  const std::vector<int> a = seeded_straggler_delays(77, 8, 3, 10);
  const std::vector<int> b = seeded_straggler_delays(77, 8, 3, 10);
  ASSERT_EQ(std::count(a.begin(), a.end(), 10), 3);
  EXPECT_EQ(a, b);

  const int n = 4;
  data::SyntheticMnist dataset(64, 16, 42);
  const std::vector<int> delays = seeded_straggler_delays(77, n, 2, 20);
  OverlapConfig config;
  config.bucket_bytes = 1024;
  config.comm_threads = 2;
  ReplicaSet first = make_replicas(n);
  const OverlapResult one = overlapped_backward(
      first.params, straggled_mnist_loss(first, dataset, delays), config);
  ReplicaSet second = make_replicas(n);
  const OverlapResult two = overlapped_backward(
      second.params, straggled_mnist_loss(second, dataset, delays), config);
  EXPECT_GT(one.stats.n_buckets, 1);
  EXPECT_EQ(one.mean_loss, two.mean_loss);
  expect_same_grads(first, second, "straggled reruns differ");
}

// ---- result ---------------------------------------------------------------------

TEST(OverlapEngine, MeanLossSumsEveryReplicaInIndexOrder) {
  // Per-replica losses of very different magnitudes make float addition
  // order visible: mean_loss must be the index-order sum over all replicas
  // divided by their count, and the result reports no error.
  const int n = 4;
  const std::vector<float> scale = {1.0e8f, 1.0f, -1.0e8f, 3.0f};
  std::vector<std::vector<ag::Variable>> params;
  for (int r = 0; r < n; ++r) {
    params.push_back({ag::Variable::leaf(Tensor({2}, {1.0f, 2.0f}), true)});
  }
  auto loss_fn = [&](int r) {
    const auto rs = static_cast<std::size_t>(r);
    return ag::sum_all(ag::mul(
        params[rs][0],
        ag::Variable::leaf(Tensor({2}, {scale[rs], 0.0f}), false)));
  };
  const OverlapResult res = overlapped_backward(params, loss_fn);
  EXPECT_TRUE(res.ok);
  EXPECT_TRUE(res.error.empty()) << res.error;
  float sum = 0.0f;
  for (const float s : scale) sum += s;
  EXPECT_EQ(res.mean_loss, sum / static_cast<float>(n));
  // (1e8 + 1) rounds to 1e8 in float; the reverse order would give 0.
  EXPECT_EQ(res.mean_loss, 0.75f);
  for (int r = 1; r < n; ++r) {
    const Tensor& g = params[static_cast<std::size_t>(r)][0].grad();
    EXPECT_EQ(g[0], params[0][0].grad()[0]) << "replica " << r;
    EXPECT_EQ(g[1], 0.0f) << "replica " << r;
  }
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
