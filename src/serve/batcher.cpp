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

BatchPlan Batcher::pop_next() {
  // Empty queues are erased below, so every queue here has a front, and the
  // front is its bucket's oldest ticket.
  auto pick = queues_.end();
  bool pick_full = false;
  for (auto it = queues_.begin(); it != queues_.end(); ++it) {
    const bool full = static_cast<i64>(it->second.size()) >= policy_.batch_cap;
    if (pick == queues_.end() || (full && !pick_full) ||
        (full == pick_full &&
         it->second.front().ticket < pick->second.front().ticket)) {
      pick = it;
      pick_full = full;
    }
  }
  BatchPlan plan;
  if (pick == queues_.end()) return plan;
  auto& q = pick->second;
  plan.bucket_len = pick->first;
  const i64 take = std::min<i64>(policy_.batch_cap, static_cast<i64>(q.size()));
  plan.rows.assign(q.begin(), q.begin() + take);
  q.erase(q.begin(), q.begin() + take);
  if (q.empty()) queues_.erase(pick);
  return plan;
}

}  // namespace legw::serve
