#include "serve/batcher.hpp"

#include <algorithm>

namespace legw::serve {

i64 bucket_for(const BatchPolicy& policy, i64 len) {
  LEGW_CHECK(len > 0, "bucket_for: non-positive request length");
  for (i64 b : policy.bucket_lens) {
    if (b >= len) return b;
  }
  return len;  // beyond the largest bucket: exact-length, unshared
}

Batcher::Batcher(BatchPolicy policy) : policy_(std::move(policy)) {
  LEGW_CHECK(policy_.batch_cap > 0, "Batcher: batch_cap must be positive");
  LEGW_CHECK(policy_.deadline_ms >= 0, "Batcher: negative deadline");
  LEGW_CHECK(std::is_sorted(policy_.bucket_lens.begin(),
                            policy_.bucket_lens.end()),
             "Batcher: bucket_lens must be ascending");
}

void Batcher::add(const Pending& p) {
  queues_[bucket_for(policy_, p.length)].push_back(p);
}

i64 Batcher::pending() const {
  i64 n = 0;
  for (const auto& [bucket, q] : queues_) n += static_cast<i64>(q.size());
  return n;
}

i64 Batcher::next_deadline_ms() const {
  i64 earliest = -1;
  for (const auto& [bucket, q] : queues_) {
    if (q.empty()) continue;
    // FIFO queues: the front is the oldest, so it owns the bucket deadline.
    const i64 due = q.front().enqueue_ms + policy_.deadline_ms;
    if (earliest < 0 || due < earliest) earliest = due;
  }
  return earliest;
}

std::vector<BatchPlan> Batcher::pop_ready(i64 now_ms) {
  std::vector<BatchPlan> out;
  for (auto it = queues_.begin(); it != queues_.end();) {
    auto& q = it->second;
    while (!q.empty()) {
      const bool full = static_cast<i64>(q.size()) >= policy_.batch_cap;
      const bool due = q.front().enqueue_ms + policy_.deadline_ms <= now_ms;
      if (!full && !due) break;
      BatchPlan plan;
      plan.bucket_len = it->first;
      plan.reason =
          full ? BatchPlan::Reason::kCapacity : BatchPlan::Reason::kDeadline;
      const i64 take =
          std::min<i64>(policy_.batch_cap, static_cast<i64>(q.size()));
      plan.rows.assign(q.begin(), q.begin() + take);
      q.erase(q.begin(), q.begin() + take);
      out.push_back(std::move(plan));
    }
    it = q.empty() ? queues_.erase(it) : std::next(it);
  }
  return out;
}

std::vector<BatchPlan> Batcher::drain() {
  std::vector<BatchPlan> out;
  for (auto& [bucket, q] : queues_) {
    while (!q.empty()) {
      BatchPlan plan;
      plan.bucket_len = bucket;
      plan.reason = BatchPlan::Reason::kDrain;
      const i64 take =
          std::min<i64>(policy_.batch_cap, static_cast<i64>(q.size()));
      plan.rows.assign(q.begin(), q.begin() + take);
      q.erase(q.begin(), q.begin() + take);
      out.push_back(std::move(plan));
    }
  }
  queues_.clear();
  return out;
}

}  // namespace legw::serve
