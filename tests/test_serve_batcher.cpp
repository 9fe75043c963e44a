// Property tests for the dynamic-batching policy (serve/batcher.hpp). The
// Batcher is a pure state machine with no clock, so a seeded add/pop
// schedule can drive it through thousands of events and check the contract
// exhaustively:
//   * conservation — every accepted request leaves in exactly one batch,
//   * bucket padding — a request is only ever padded to bucket_for(length),
//   * cap — batches never exceed batch_cap,
//   * work conservation — pop_next() is non-empty whenever anything is
//     pending,
//   * order — a full bucket goes before any partial one, else the oldest
//     ticket; FIFO within a bucket,
//   * determinism — composition is a pure function of the schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "serve/batcher.hpp"

namespace legw {
namespace {

using serve::BatchPlan;
using serve::Batcher;
using serve::BatchPolicy;
using serve::Pending;

BatchPolicy test_policy(i64 cap) {
  BatchPolicy p;
  p.batch_cap = cap;
  p.bucket_lens = {4, 8, 16};
  return p;
}

TEST(BucketFor, SmallestBucketAtLeastLength) {
  const BatchPolicy p = test_policy(8);
  EXPECT_EQ(serve::bucket_for(p, 1), 4);
  EXPECT_EQ(serve::bucket_for(p, 4), 4);
  EXPECT_EQ(serve::bucket_for(p, 5), 8);
  EXPECT_EQ(serve::bucket_for(p, 16), 16);
  // Beyond the largest bucket: an exact-length bucket of its own.
  EXPECT_EQ(serve::bucket_for(p, 17), 17);
  EXPECT_EQ(serve::bucket_for(p, 400), 400);
}

TEST(Batcher, PopNextOnEmptyYieldsNoRows) {
  Batcher b(test_policy(4));
  const BatchPlan plan = b.pop_next();
  EXPECT_TRUE(plan.rows.empty());
  EXPECT_TRUE(b.empty());
}

TEST(Batcher, LoneRequestLeavesAtOnce) {
  // No deadline to wait out: a single queued request is the next batch.
  Batcher b(test_policy(8));
  b.add(Pending{1, 2});
  const BatchPlan plan = b.pop_next();
  EXPECT_EQ(plan.bucket_len, 4);
  ASSERT_EQ(plan.rows.size(), 1u);
  EXPECT_EQ(plan.rows[0].ticket, 1u);
  EXPECT_TRUE(b.empty());
}

TEST(Batcher, CapacityPopsAFullBucketImmediately) {
  Batcher b(test_policy(3));
  for (u64 t = 1; t <= 3; ++t) b.add(Pending{t, 2});
  const BatchPlan plan = b.pop_next();
  EXPECT_EQ(plan.bucket_len, 4);
  EXPECT_EQ(plan.rows.size(), 3u);
  EXPECT_TRUE(b.empty());
}

TEST(Batcher, FullBucketGoesBeforeAnOlderPartialOne) {
  Batcher b(test_policy(3));
  b.add(Pending{1, 10});  // bucket 16, partial
  for (u64 t = 2; t <= 4; ++t) b.add(Pending{t, 2});  // bucket 4, full
  BatchPlan plan = b.pop_next();
  EXPECT_EQ(plan.bucket_len, 4);
  ASSERT_EQ(plan.rows.size(), 3u);
  EXPECT_EQ(plan.rows[0].ticket, 2u);
  plan = b.pop_next();
  EXPECT_EQ(plan.bucket_len, 16);
  ASSERT_EQ(plan.rows.size(), 1u);
  EXPECT_EQ(plan.rows[0].ticket, 1u);
  EXPECT_TRUE(b.empty());
}

TEST(Batcher, EmptiesInCapSizedFifoBatches) {
  Batcher b(test_policy(2));
  for (u64 t = 1; t <= 5; ++t) b.add(Pending{t, 3});
  u64 expect = 1;
  int batches = 0;
  while (!b.empty()) {
    const BatchPlan plan = b.pop_next();
    ++batches;
    ASSERT_FALSE(plan.rows.empty()) << "nothing popped, yet requests wait";
    EXPECT_LE(plan.rows.size(), 2u);
    for (const auto& row : plan.rows) EXPECT_EQ(row.ticket, expect++);
  }
  EXPECT_EQ(batches, 3);
  EXPECT_EQ(expect, 6u);
}

// Checks one pop against the queue it came from: `queued` mirrors the
// batcher (bucket_len -> tickets in arrival order). A partial bucket is
// never taken while a full one waits; among the candidates the taken bucket
// holds the oldest front; its oldest rows leave first, up to batch_cap.
void expect_policy_pick(const std::map<i64, std::vector<u64>>& queued,
                        const BatchPolicy& policy, const BatchPlan& plan,
                        int event) {
  const auto is_full = [&](const std::vector<u64>& tickets) {
    return static_cast<i64>(tickets.size()) >= policy.batch_cap;
  };
  const auto taken = queued.find(plan.bucket_len);
  ASSERT_TRUE(taken != queued.end() && !taken->second.empty())
      << "event " << event;
  const std::vector<u64>& picked = taken->second;
  for (const auto& [bucket, tickets] : queued) {
    if (bucket == plan.bucket_len || tickets.empty()) continue;
    if (is_full(tickets)) {
      EXPECT_TRUE(is_full(picked))
          << "event " << event << ": partial bucket " << plan.bucket_len
          << " taken while bucket " << bucket << " is full";
    }
    if (is_full(tickets) == is_full(picked)) {
      EXPECT_LT(picked.front(), tickets.front())
          << "event " << event << ": bucket " << bucket
          << " holds an older ticket";
    }
  }
  const std::size_t want_rows = std::min<std::size_t>(
      static_cast<std::size_t>(policy.batch_cap), picked.size());
  ASSERT_EQ(plan.rows.size(), want_rows) << "event " << event;
  for (std::size_t r = 0; r < want_rows; ++r) {
    EXPECT_EQ(plan.rows[r].ticket, picked[r]) << "event " << event;
  }
}

// One seeded run of a random schedule: interleaved adds and pops, then pops
// until empty. Returns every emitted plan in order. With `check` set, every
// pop is checked for work conservation and the order rule.
std::vector<BatchPlan> run_schedule(u64 seed, const BatchPolicy& policy,
                                    int events, std::set<u64>* accepted,
                                    bool check = false) {
  core::Rng rng(seed);
  Batcher b(policy);
  std::map<i64, std::vector<u64>> queued;
  std::vector<BatchPlan> plans;
  u64 ticket = 1;
  // Returns whether the pop emitted a batch.
  const auto pop = [&](int event) {
    const i64 before = b.pending();
    BatchPlan plan = b.pop_next();
    if (check) {
      // Work conservation: a free worker never comes away empty-handed
      // while anything is queued.
      EXPECT_EQ(plan.rows.empty(), before == 0) << "event " << event;
      EXPECT_EQ(b.pending(), before - static_cast<i64>(plan.rows.size()));
      if (before > 0) expect_policy_pick(queued, policy, plan, event);
    }
    if (plan.rows.empty()) return false;
    auto& tickets = queued[plan.bucket_len];
    tickets.erase(tickets.begin(),
                  tickets.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(plan.rows.size(),
                                                 tickets.size())));
    plans.push_back(std::move(plan));
    return true;
  };
  int e = 0;
  for (; e < events; ++e) {
    if (rng.uniform(0.0, 1.0) < 0.7) {
      const i64 len = 1 + static_cast<i64>(rng.uniform(0.0, 20.0));
      b.add(Pending{ticket, len});
      queued[serve::bucket_for(policy, len)].push_back(ticket);
      if (accepted != nullptr) accepted->insert(ticket);
      ++ticket;
    } else {
      pop(e);
    }
  }
  while (!b.empty()) {
    if (!pop(e++)) {
      ADD_FAILURE() << "seed " << seed << ": pop_next emitted nothing with "
                    << b.pending() << " requests pending";
      break;
    }
  }
  return plans;
}

TEST(BatcherProperty, EveryAcceptedRequestInExactlyOneBatch) {
  for (u64 seed : {1u, 7u, 23u, 99u}) {
    std::set<u64> accepted;
    const auto plans = run_schedule(seed, test_policy(4), 400, &accepted);
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
  const BatchPolicy policy = test_policy(4);
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

TEST(BatcherProperty, WorkConservingAndOldestFirst) {
  // Caps 1 and 3 make full buckets common; cap 8 makes them rare, so both
  // arms of the order rule are exercised.
  for (i64 cap : {1, 3, 8}) {
    for (u64 seed : {17u, 29u, 61u}) {
      SCOPED_TRACE("cap " + std::to_string(cap) + " seed " +
                   std::to_string(seed));
      run_schedule(seed, test_policy(cap), 500, nullptr, /*check=*/true);
    }
  }
}

TEST(BatcherProperty, FifoWithinBucket) {
  for (u64 seed : {5u, 31u}) {
    const auto plans = run_schedule(seed, test_policy(4), 400, nullptr);
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
    const auto a = run_schedule(seed, test_policy(4), 400, nullptr);
    const auto b = run_schedule(seed, test_policy(4), 400, nullptr);
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].bucket_len, b[i].bucket_len);
      ASSERT_EQ(a[i].rows.size(), b[i].rows.size());
      for (std::size_t r = 0; r < a[i].rows.size(); ++r) {
        EXPECT_EQ(a[i].rows[r].ticket, b[i].rows[r].ticket);
      }
    }
  }
}

}  // namespace
}  // namespace legw
