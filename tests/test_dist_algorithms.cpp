// Property suite for the scale-out all-reduce algorithms (dist/algorithms):
// every algorithm — tree, ring, hierarchical — must agree with a
// double-precision mean reference across replica counts 1..32 (including odd
// counts and counts that do not divide the payload, which exercises the
// ring's uneven chunking), leave every shard bitwise identical, and be
// bitwise deterministic run to run. Plus pins for the per-algorithm
// counters, the kAuto size policy, the hierarchical grouping, and the
// simulated wire-volume accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "dist/algorithms.hpp"
#include "obs/trace.hpp"

namespace legw::dist {
namespace {

using core::Rng;
using core::Tensor;

// n random shards of `numel` elements plus their double-precision mean.
struct Fixture {
  std::vector<Tensor> shards;
  std::vector<double> reference;

  Fixture(int n, i64 numel, u64 seed) {
    Rng rng(seed);
    reference.assign(static_cast<std::size_t>(numel), 0.0);
    for (int r = 0; r < n; ++r) {
      Tensor t({numel});
      for (i64 i = 0; i < numel; ++i) {
        t[i] = static_cast<float>(rng.uniform(-3.0, 3.0));
        reference[static_cast<std::size_t>(i)] += static_cast<double>(t[i]);
      }
      shards.push_back(std::move(t));
    }
    for (double& v : reference) v /= static_cast<double>(n);
  }

  std::vector<Tensor*> pointers() {
    std::vector<Tensor*> out;
    for (Tensor& t : shards) out.push_back(&t);
    return out;
  }
};

void run_algo(DistAlgo algo, std::vector<Tensor*>& shards) {
  switch (algo) {
    case DistAlgo::kTree: tree_allreduce_mean(shards); return;
    case DistAlgo::kRing: ring_allreduce_mean(shards); return;
    case DistAlgo::kHier: hier_allreduce_mean(shards); return;
    case DistAlgo::kAuto: allreduce_mean(shards, DistAlgo::kAuto); return;
  }
}

struct Case {
  DistAlgo algo;
  int n;
};

class AllreduceProperty : public ::testing::TestWithParam<Case> {};

TEST_P(AllreduceProperty, MatchesDoubleMeanOnAllShards) {
  const Case c = GetParam();
  // 67 elements: prime, not divisible by any replica count in the matrix,
  // and larger than 32 so every ring chunk is non-empty at n=32.
  const i64 numel = 67;
  Fixture fx(c.n, numel, 0xC0FFEEu + static_cast<u64>(c.n));
  auto ptrs = fx.pointers();
  run_algo(c.algo, ptrs);
  for (int r = 0; r < c.n; ++r) {
    for (i64 i = 0; i < numel; ++i) {
      const double want = fx.reference[static_cast<std::size_t>(i)];
      const double got =
          static_cast<double>(fx.shards[static_cast<std::size_t>(r)][i]);
      // Each element is a sum of n values in [-3,3] scaled by 1/n: float
      // summation order differs per algorithm, so compare against the
      // double reference with an n-scaled ulp budget.
      EXPECT_NEAR(got, want, 1e-5 * static_cast<double>(c.n))
          << "shard " << r << " elem " << i;
    }
  }
  // Every shard must hold the bitwise-identical result (broadcast, not
  // "close enough").
  for (int r = 1; r < c.n; ++r) {
    for (i64 i = 0; i < numel; ++i) {
      EXPECT_EQ(fx.shards[static_cast<std::size_t>(r)][i], fx.shards[0][i]);
    }
  }
}

TEST_P(AllreduceProperty, BitwiseDeterministicRunToRun) {
  const Case c = GetParam();
  Fixture a(c.n, 129, 0xABCDu);
  Fixture b(c.n, 129, 0xABCDu);
  auto pa = a.pointers();
  auto pb = b.pointers();
  run_algo(c.algo, pa);
  run_algo(c.algo, pb);
  for (i64 i = 0; i < 129; ++i) {
    ASSERT_EQ(a.shards[0][i], b.shards[0][i]) << "elem " << i;
  }
}

std::vector<Case> matrix() {
  std::vector<Case> cases;
  for (DistAlgo algo : {DistAlgo::kTree, DistAlgo::kRing, DistAlgo::kHier,
                        DistAlgo::kAuto}) {
    // Powers of two, odd counts, primes, and counts above the payload's
    // divisibility: 1..32.
    for (int n : {1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32}) {
      cases.push_back({algo, n});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, AllreduceProperty,
                         ::testing::ValuesIn(matrix()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(
                                      core::dist_algo_name(info.param.algo)) +
                                  "_n" + std::to_string(info.param.n);
                         });

// ---- degenerate payloads ----------------------------------------------------

TEST(AllreduceEdge, OneElementPayload) {
  // numel < n: most ring chunks are empty — the chunking must still cover
  // the single element exactly once.
  for (DistAlgo algo : {DistAlgo::kTree, DistAlgo::kRing, DistAlgo::kHier}) {
    Fixture fx(8, 1, 7u);
    auto ptrs = fx.pointers();
    run_algo(algo, ptrs);
    for (int r = 0; r < 8; ++r) {
      EXPECT_NEAR(static_cast<double>(fx.shards[static_cast<std::size_t>(r)][0]),
                  fx.reference[0], 1e-5)
          << core::dist_algo_name(algo);
    }
  }
}

TEST(AllreduceEdge, EmptyTensor) {
  for (DistAlgo algo : {DistAlgo::kTree, DistAlgo::kRing, DistAlgo::kHier}) {
    std::vector<Tensor> shards;
    for (int r = 0; r < 4; ++r) shards.emplace_back(Tensor({0}));
    std::vector<Tensor*> ptrs;
    for (Tensor& t : shards) ptrs.push_back(&t);
    run_algo(algo, ptrs);  // must not crash or touch memory
    for (const Tensor& t : shards) EXPECT_EQ(t.numel(), 0);
  }
}

TEST(AllreduceEdge, SingleShardIsIdentity) {
  for (DistAlgo algo : {DistAlgo::kTree, DistAlgo::kRing, DistAlgo::kHier}) {
    Fixture fx(1, 13, 3u);
    const Tensor before = fx.shards[0];
    auto ptrs = fx.pointers();
    run_algo(algo, ptrs);
    for (i64 i = 0; i < 13; ++i) {
      EXPECT_EQ(fx.shards[0][i], before[i]) << core::dist_algo_name(algo);
    }
  }
}

// ---- per-algorithm counters ------------------------------------------------

TEST(AlgoCounters, DirectCallCountsItsOwnAlgorithmOnce) {
  // The counter is bumped inside each algorithm, so a direct call (not just
  // one through the allreduce_mean dispatcher) is counted, exactly once,
  // under its own name.
  const bool was_tracing = obs::tracing_enabled();
  obs::set_tracing_enabled(true);
  for (DistAlgo algo : {DistAlgo::kTree, DistAlgo::kRing, DistAlgo::kHier}) {
    obs::TraceRecorder::global().clear();
    Fixture fx(4, 9, 5u);
    auto ptrs = fx.pointers();
    run_algo(algo, ptrs);
    const auto counters = obs::TraceRecorder::global().counters();
    for (DistAlgo other :
         {DistAlgo::kTree, DistAlgo::kRing, DistAlgo::kHier}) {
      const std::string name =
          std::string("dist.algo.") + core::dist_algo_name(other);
      const auto it = counters.find(name);
      const i64 got = it == counters.end() ? 0 : it->second;
      EXPECT_EQ(got, other == algo ? 1 : 0)
          << name << " after a direct " << core::dist_algo_name(algo)
          << " call";
    }
  }
  obs::TraceRecorder::global().clear();
  obs::set_tracing_enabled(was_tracing);
}

// ---- kAuto policy -----------------------------------------------------------

TEST(ChoosePolicy, ResolvesBySizeAndShardCount) {
  const i64 small = 16 * 1024;    // below the 64 KiB latency-bound cutoff
  const i64 large = 1024 * 1024;
  // <= 2 shards: always tree, payload regardless.
  EXPECT_EQ(choose_algorithm(DistAlgo::kAuto, large, 1), DistAlgo::kTree);
  EXPECT_EQ(choose_algorithm(DistAlgo::kAuto, large, 2), DistAlgo::kTree);
  // Small payloads stay latency-bound.
  EXPECT_EQ(choose_algorithm(DistAlgo::kAuto, small, 4), DistAlgo::kTree);
  EXPECT_EQ(choose_algorithm(DistAlgo::kAuto, small, 16), DistAlgo::kTree);
  // Large payload, mid shard count: bandwidth-optimal ring.
  EXPECT_EQ(choose_algorithm(DistAlgo::kAuto, large, 4), DistAlgo::kRing);
  // Large payload, many shards: hierarchical.
  EXPECT_EQ(choose_algorithm(DistAlgo::kAuto, large, 8), DistAlgo::kHier);
  EXPECT_EQ(choose_algorithm(DistAlgo::kAuto, large, 32), DistAlgo::kHier);
  // Explicit requests pass through untouched.
  for (DistAlgo a : {DistAlgo::kTree, DistAlgo::kRing, DistAlgo::kHier}) {
    EXPECT_EQ(choose_algorithm(a, small, 32), a);
    EXPECT_EQ(choose_algorithm(a, large, 2), a);
  }
}

TEST(ChoosePolicy, HierGroupSizeIsSqrtClamped) {
  EXPECT_EQ(hier_group_size(1), 1);
  EXPECT_EQ(hier_group_size(2), 2);
  EXPECT_EQ(hier_group_size(3), 3);
  EXPECT_EQ(hier_group_size(4), 2);
  EXPECT_EQ(hier_group_size(9), 3);
  EXPECT_EQ(hier_group_size(16), 4);
  EXPECT_EQ(hier_group_size(17), 5);
  EXPECT_EQ(hier_group_size(32), 6);
  for (int n = 4; n <= 32; ++n) {
    const int g = hier_group_size(n);
    EXPECT_GE(g, 2) << n;
    EXPECT_LE(g, n) << n;
  }
}

TEST(HierGrouping, EveryGroupSizeAgreesWithReference) {
  // The grouping is an implementation detail of the schedule, never of the
  // result: any group size must produce the same mean.
  const int n = 12;
  for (int g = 1; g <= n; ++g) {
    Fixture fx(n, 41, 0xFEEDu);
    auto ptrs = fx.pointers();
    hier_allreduce_mean(ptrs, g);
    for (i64 i = 0; i < 41; ++i) {
      EXPECT_NEAR(static_cast<double>(fx.shards[0][i]),
                  fx.reference[static_cast<std::size_t>(i)], 1e-5 * n)
          << "group size " << g;
    }
  }
}

// ---- wire-volume accounting -------------------------------------------------

TEST(WireBytes, FollowsElementWidthAndHopCount) {
  EXPECT_EQ(wire_elem_bytes(WireFormat::kFp32), 4);
  EXPECT_EQ(wire_elem_bytes(WireFormat::kFp16), 2);
  EXPECT_EQ(wire_elem_bytes(WireFormat::kInt8), 1);
  // One shard never touches the wire.
  EXPECT_EQ(allreduce_wire_bytes(1, 1000, WireFormat::kFp32), 0);
  // 2*(n-1) aggregate payload movements — the all-reduce volume lower bound.
  EXPECT_EQ(allreduce_wire_bytes(2, 100, WireFormat::kFp32), 2 * 100 * 4);
  EXPECT_EQ(allreduce_wire_bytes(5, 100, WireFormat::kFp32), 8 * 100 * 4);
  // fp16 halves the bandwidth term; int8 quarters it plus one scale word
  // per hop.
  EXPECT_EQ(allreduce_wire_bytes(5, 100, WireFormat::kFp16), 8 * 100 * 2);
  EXPECT_EQ(allreduce_wire_bytes(5, 100, WireFormat::kInt8),
            8 * (100 * 1 + 4));
}

}  // namespace
}  // namespace legw::dist
