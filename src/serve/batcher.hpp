// Deadline-aware padded-bucket dynamic batching policy.
//
// The broker's worker threads coalesce concurrent requests into batches the
// same way large-batch training amortises step cost over rows: throughput
// comes from batching, provided per-request results stay exactly what a
// batch-of-one would produce (the gemm determinism contract makes every row
// of a batch independent of its neighbours, so padding and coalescing are
// bitwise-invisible — tests/test_serve_session.cpp holds that line).
//
// The policy itself is a pure, single-threaded state machine over an
// explicit millisecond clock — no threads, no wall time — so its invariants
// are property-testable under a seeded arrival schedule:
//   * every accepted request appears in exactly one emitted batch,
//   * a request is padded to the smallest bucket >= its length,
//   * batches within a bucket are FIFO and never exceed batch_cap,
//   * after pop_ready(now), no pending request is past its deadline.
// The broker (serve/broker.hpp) drives it under a mutex with a steady clock.
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "core/common.hpp"

namespace legw::serve {

struct BatchPolicy {
  i64 batch_cap = 16;    // max rows per batch
  i64 deadline_ms = 5;   // max queue wait; 0 = flush on every worker wake
  // Padded sequence-length buckets, ascending. A request of length L lands
  // in the smallest bucket >= L; lengths beyond the largest bucket get an
  // exact-length bucket of their own (correct, just unshared).
  std::vector<i64> bucket_lens = {16, 32, 64, 128};
};

// The padded length a request of length `len` is batched under.
i64 bucket_for(const BatchPolicy& policy, i64 len);

// One queued request, identified by the broker's internal ticket.
struct Pending {
  u64 ticket = 0;
  i64 length = 0;      // sequence length (1 for fixed-shape models)
  i64 enqueue_ms = 0;  // on the caller's clock
};

struct BatchPlan {
  enum class Reason {
    kCapacity,  // a bucket reached batch_cap
    kDeadline,  // the bucket's oldest request aged past deadline_ms
    kDrain,     // shutdown flush
  };
  i64 bucket_len = 0;  // pad every row's sequence to this length
  Reason reason = Reason::kCapacity;
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

  // Earliest enqueue_ms + deadline_ms over all pending requests, or -1 when
  // none are queued — the broker's cv wait_until horizon.
  i64 next_deadline_ms() const;

  // Every batch due at `now_ms`: full buckets first (kCapacity), then any
  // bucket whose oldest request has waited >= deadline_ms (kDeadline, up to
  // batch_cap rows). Buckets are visited in ascending bucket_len and rows
  // leave FIFO, so the composition is a deterministic function of the
  // add/pop event sequence.
  std::vector<BatchPlan> pop_ready(i64 now_ms);

  // Everything still queued, as <= batch_cap FIFO batches (kDrain).
  std::vector<BatchPlan> drain();

 private:
  BatchPolicy policy_;
  std::map<i64, std::deque<Pending>> queues_;  // bucket_len -> FIFO
};

}  // namespace legw::serve
