// Work-conserving padded-bucket dynamic batching policy.
//
// The broker's worker threads coalesce concurrent requests into batches the
// same way large-batch training amortises step cost over rows: throughput
// comes from batching, provided per-request results stay exactly what a
// batch-of-one would produce (the gemm determinism contract makes every row
// of a batch independent of its neighbours, so padding and coalescing are
// bitwise-invisible — tests/test_serve_session.cpp holds that line).
//
// There is no batching deadline: a free worker takes the next batch at
// once, so requests queue only while every worker is busy, and a batch
// grows with the backlog instead of with a timer. The policy is a pure,
// single-threaded state machine with no clock — tickets are issued in
// arrival order, so ticket order is age order — and its invariants are
// property-testable under a seeded add/pop schedule:
//   * every accepted request appears in exactly one emitted batch,
//   * a request is padded to the smallest bucket >= its length,
//   * batches within a bucket are FIFO and never exceed batch_cap,
//   * pop_next() is non-empty whenever anything is pending,
//   * a full bucket goes before any partial one, else the oldest ticket.
// The broker (serve/broker.hpp) drives it under a mutex.
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "core/common.hpp"

namespace legw::serve {

struct BatchPolicy {
  i64 batch_cap = 16;  // max rows per batch
  // Padded sequence-length buckets, ascending. A request of length L lands
  // in the smallest bucket >= L; lengths beyond the largest bucket get an
  // exact-length bucket of their own (correct, just unshared).
  std::vector<i64> bucket_lens = {16, 32, 64, 128};
};

// The padded length a request of length `len` is batched under.
i64 bucket_for(const BatchPolicy& policy, i64 len);

// One queued request, identified by the broker's internal ticket. Tickets
// must be added in increasing order: the batcher reads them as arrival order.
struct Pending {
  u64 ticket = 0;
  i64 length = 0;  // sequence length (1 for fixed-shape models)
};

struct BatchPlan {
  i64 bucket_len = 0;         // pad every row's sequence to this length
  std::vector<Pending> rows;  // FIFO within the bucket, <= batch_cap
};

class Batcher {
 public:
  explicit Batcher(BatchPolicy policy);

  const BatchPolicy& policy() const { return policy_; }

  // Queues a request under bucket_for(policy, p.length).
  void add(const Pending& p);

  i64 pending() const;
  bool empty() const { return pending() == 0; }

  // The next batch: up to batch_cap FIFO rows of one bucket — the full
  // bucket whose oldest ticket is smallest if any bucket is full, else the
  // bucket holding the oldest ticket. Empty rows only when nothing is
  // pending. The composition is a deterministic function of the add/pop
  // event sequence.
  BatchPlan pop_next();

 private:
  BatchPolicy policy_;
  std::map<i64, std::deque<Pending>> queues_;  // bucket_len -> FIFO
};

}  // namespace legw::serve
