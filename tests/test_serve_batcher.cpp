// Property tests for the dynamic-batching policy (serve/batcher.hpp). The
// Batcher is a pure state machine over an explicit millisecond clock, so a
// seeded arrival schedule can drive it through thousands of add/pop events
// and check the contract exhaustively:
//   * conservation — every accepted request leaves in exactly one batch,
//   * bucket padding — a request is only ever padded to bucket_for(length),
//   * capacity/deadline — batches never exceed batch_cap and pop_ready(now)
//     leaves nothing overdue behind,
//   * FIFO + determinism — composition is a pure function of the schedule.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/rng.hpp"
#include "serve/batcher.hpp"

namespace legw {
namespace {

using serve::BatchPlan;
using serve::Batcher;
using serve::BatchPolicy;
using serve::Pending;

BatchPolicy test_policy(i64 cap, i64 deadline_ms) {
  BatchPolicy p;
  p.batch_cap = cap;
  p.deadline_ms = deadline_ms;
  p.bucket_lens = {4, 8, 16};
  return p;
}

TEST(BucketFor, SmallestBucketAtLeastLength) {
  const BatchPolicy p = test_policy(8, 5);
  EXPECT_EQ(serve::bucket_for(p, 1), 4);
  EXPECT_EQ(serve::bucket_for(p, 4), 4);
  EXPECT_EQ(serve::bucket_for(p, 5), 8);
  EXPECT_EQ(serve::bucket_for(p, 16), 16);
  // Beyond the largest bucket: an exact-length bucket of its own.
  EXPECT_EQ(serve::bucket_for(p, 17), 17);
  EXPECT_EQ(serve::bucket_for(p, 400), 400);
}

TEST(Batcher, CapacityPopsAFullBucketImmediately) {
  Batcher b(test_policy(3, 1000));
  for (u64 t = 1; t <= 3; ++t) {
    b.add(Pending{t, 2, /*enqueue_ms=*/0});
  }
  const auto plans = b.pop_ready(/*now_ms=*/0);  // nothing is overdue yet
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].reason, BatchPlan::Reason::kCapacity);
  EXPECT_EQ(plans[0].bucket_len, 4);
  EXPECT_EQ(plans[0].rows.size(), 3u);
  EXPECT_TRUE(b.empty());
}

TEST(Batcher, DeadlineFlushesAPartialBucket) {
  Batcher b(test_policy(8, 5));
  b.add(Pending{1, 2, /*enqueue_ms=*/10});
  EXPECT_TRUE(b.pop_ready(/*now_ms=*/14).empty());  // not yet due
  EXPECT_EQ(b.next_deadline_ms(), 15);
  const auto plans = b.pop_ready(/*now_ms=*/15);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].reason, BatchPlan::Reason::kDeadline);
  ASSERT_EQ(plans[0].rows.size(), 1u);
  EXPECT_EQ(plans[0].rows[0].ticket, 1u);
}

TEST(Batcher, DrainEmitsEverythingInCapSizedFifoBatches) {
  Batcher b(test_policy(2, 1000));
  for (u64 t = 1; t <= 5; ++t) b.add(Pending{t, 3, 0});
  const auto plans = b.drain();
  ASSERT_EQ(plans.size(), 3u);
  u64 expect = 1;
  for (const auto& plan : plans) {
    EXPECT_EQ(plan.reason, BatchPlan::Reason::kDrain);
    EXPECT_LE(plan.rows.size(), 2u);
    for (const auto& row : plan.rows) EXPECT_EQ(row.ticket, expect++);
  }
  EXPECT_EQ(expect, 6u);
  EXPECT_TRUE(b.empty());
}

// One seeded run of a random schedule: interleaved adds and pops on an
// advancing clock, final drain. Returns every emitted plan in order.
std::vector<BatchPlan> run_schedule(u64 seed, const BatchPolicy& policy,
                                    int events, std::set<u64>* accepted) {
  core::Rng rng(seed);
  Batcher b(policy);
  std::vector<BatchPlan> plans;
  i64 now = 0;
  u64 ticket = 1;
  for (int e = 0; e < events; ++e) {
    now += static_cast<i64>(rng.uniform(0.0, 4.0));
    if (rng.uniform(0.0, 1.0) < 0.7) {
      const i64 len = 1 + static_cast<i64>(rng.uniform(0.0, 20.0));
      b.add(Pending{ticket, len, now});
      if (accepted != nullptr) accepted->insert(ticket);
      ++ticket;
    } else {
      for (auto& plan : b.pop_ready(now)) plans.push_back(std::move(plan));
    }
  }
  for (auto& plan : b.drain()) plans.push_back(std::move(plan));
  return plans;
}

TEST(BatcherProperty, EveryAcceptedRequestInExactlyOneBatch) {
  for (u64 seed : {1u, 7u, 23u, 99u}) {
    std::set<u64> accepted;
    const auto plans = run_schedule(seed, test_policy(4, 6), 400, &accepted);
    std::map<u64, int> seen;
    for (const auto& plan : plans) {
      for (const auto& row : plan.rows) seen[row.ticket]++;
    }
    ASSERT_EQ(seen.size(), accepted.size()) << "seed " << seed;
    for (u64 t : accepted) {
      EXPECT_EQ(seen[t], 1) << "seed " << seed << " ticket " << t;
    }
  }
}

TEST(BatcherProperty, BucketPaddingAndCapInvariants) {
  const BatchPolicy policy = test_policy(4, 6);
  for (u64 seed : {3u, 11u, 42u}) {
    const auto plans = run_schedule(seed, policy, 400, nullptr);
    ASSERT_FALSE(plans.empty());
    for (const auto& plan : plans) {
      EXPECT_FALSE(plan.rows.empty());
      EXPECT_LE(static_cast<i64>(plan.rows.size()), policy.batch_cap);
      for (const auto& row : plan.rows) {
        // Rows are padded to exactly their own bucket — never a longer one,
        // never one too short to hold them.
        EXPECT_GE(plan.bucket_len, row.length);
        EXPECT_EQ(plan.bucket_len, serve::bucket_for(policy, row.length));
      }
    }
  }
}

TEST(BatcherProperty, PopLeavesNothingOverdue) {
  const BatchPolicy policy = test_policy(4, 6);
  core::Rng rng(17);
  Batcher b(policy);
  i64 now = 0;
  u64 ticket = 1;
  for (int e = 0; e < 500; ++e) {
    now += static_cast<i64>(rng.uniform(0.0, 3.0));
    if (rng.uniform(0.0, 1.0) < 0.6) {
      b.add(Pending{ticket++, 1 + static_cast<i64>(rng.uniform(0.0, 20.0)),
                    now});
    } else {
      b.pop_ready(now);
      // Deadline monotonicity: whatever is still queued is not yet due, so
      // an immediate re-pop yields nothing and the next horizon is ahead of
      // the clock.
      EXPECT_TRUE(b.pop_ready(now).empty()) << "event " << e;
      const i64 next = b.next_deadline_ms();
      if (next >= 0) {
        EXPECT_GT(next, now) << "event " << e;
      }
    }
  }
}

TEST(BatcherProperty, FifoWithinBucket) {
  for (u64 seed : {5u, 31u}) {
    const auto plans = run_schedule(seed, test_policy(4, 6), 400, nullptr);
    std::map<i64, u64> last_ticket;  // bucket -> last emitted ticket
    for (const auto& plan : plans) {
      for (const auto& row : plan.rows) {
        auto it = last_ticket.find(plan.bucket_len);
        if (it != last_ticket.end()) {
          EXPECT_GT(row.ticket, it->second)
              << "seed " << seed << " bucket " << plan.bucket_len;
        }
        last_ticket[plan.bucket_len] = row.ticket;
      }
    }
  }
}

TEST(BatcherProperty, DeterministicCompositionUnderSeededSchedule) {
  for (u64 seed : {2u, 13u, 77u}) {
    const auto a = run_schedule(seed, test_policy(4, 6), 400, nullptr);
    const auto b = run_schedule(seed, test_policy(4, 6), 400, nullptr);
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].bucket_len, b[i].bucket_len);
      EXPECT_EQ(a[i].reason, b[i].reason);
      ASSERT_EQ(a[i].rows.size(), b[i].rows.size());
      for (std::size_t r = 0; r < a[i].rows.size(); ++r) {
        EXPECT_EQ(a[i].rows[r].ticket, b[i].rows[r].ticket);
      }
    }
  }
}

}  // namespace
}  // namespace legw
