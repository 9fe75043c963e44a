// RequestBroker: multi-threaded front door of the serving runtime.
//
// submit() validates a request, stamps it into the Batcher, and returns a
// future; worker threads wake on capacity or deadline (Batcher::pop_ready
// under the broker mutex), claim the batch's requests, and execute them
// OUTSIDE the lock via ServeSession::run_batch, so inference never blocks
// enqueue. Shutdown drains: every request accepted before shutdown() gets
// exactly one response (kDrain batches), and submits after it resolve
// immediately with Status::kUnavailable.
//
// Batches are padded to stable shapes (rows up to batch_cap, sequences to
// the bucket length), so each bucket runs one fixed set of GEMM shapes.
// Padding is bitwise-invisible to real rows (see serve/session.hpp).
//
// Observability: spans serve.enqueue / serve.batch / serve.infer, and
// process-global serve.* counters registered with the obs recorder via
// obs::register_counter_source — they ride along in every counters()
// snapshot and telemetry JSONL line, tracing enabled or not.
#pragma once

#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "core/mutex.hpp"
#include "serve/batcher.hpp"
#include "serve/session.hpp"

namespace legw::serve {

struct BrokerConfig {
  BatchPolicy policy = BatchPolicy::from_env();
  int workers = 2;
  // Pad every batch with zero rows up to policy.batch_cap. Costs flops on
  // partial batches but gives each bucket a single step shape.
  bool pad_rows_to_cap = true;
};

// Snapshot of the process-global serve counters (all brokers, all time).
struct BrokerCounters {
  i64 requests = 0;           // accepted submits
  i64 rejected = 0;           // invalid or post-shutdown submits
  i64 responses = 0;          // futures resolved with a computed result
  i64 batches = 0;            // executed batches
  i64 batch_rows = 0;         // real request rows across executed batches
  i64 pad_rows = 0;           // zero rows added by pad_rows_to_cap
  i64 capacity_batches = 0;   // popped because a bucket hit batch_cap
  i64 deadline_batches = 0;   // popped because the oldest row aged out
  i64 drain_batches = 0;      // flushed by shutdown
};

class RequestBroker {
 public:
  // `session` must outlive the broker and is shared read-only by all
  // workers. Registers the serve.* counter source on first construction.
  explicit RequestBroker(const ServeSession& session, BrokerConfig config = {});
  ~RequestBroker();  // shutdown()
  RequestBroker(const RequestBroker&) = delete;
  RequestBroker& operator=(const RequestBroker&) = delete;

  // Never blocks on inference. Invalid requests and submits after shutdown
  // resolve immediately (kInvalidRequest / kUnavailable); accepted requests
  // resolve when their batch executes. Response.enqueue_ns/done_ns are
  // steady-clock stamps for latency accounting.
  std::future<Response> submit(Request req) LEGW_EXCLUDES(mu_);

  // Drains every accepted request, joins the workers. Idempotent; called by
  // the destructor. After it returns all futures are resolved.
  void shutdown() LEGW_EXCLUDES(mu_);

  const BrokerConfig& config() const { return config_; }

  static BrokerCounters counters();

 private:
  struct Waiting {
    Request req;
    std::promise<Response> promise;
    i64 enqueue_ns = 0;
  };
  struct Claimed {
    BatchPlan plan;
    std::vector<Request> reqs;
    std::vector<std::promise<Response>> promises;
    std::vector<i64> enqueue_ns;
  };

  void worker_loop() LEGW_EXCLUDES(mu_);
  void execute(Claimed batch);
  i64 now_ms() const;

  const ServeSession& session_;
  const BrokerConfig config_;
  const std::chrono::steady_clock::time_point epoch_;

  core::Mutex mu_;
  core::CondVar cv_;  // wakes workers on new requests, deadlines, shutdown
  Batcher batcher_ LEGW_GUARDED_BY(mu_);
  std::map<u64, Waiting> waiting_ LEGW_GUARDED_BY(mu_);  // ticket -> promise
  u64 next_ticket_ LEGW_GUARDED_BY(mu_) = 1;
  bool stop_ LEGW_GUARDED_BY(mu_) = false;
  bool joined_ LEGW_GUARDED_BY(mu_) = false;

  // lint-allow: raw-thread — workers block on a condition variable, which
  // the ThreadPool's task model cannot express; shutdown() joins them all.
  std::vector<std::thread> workers_;
};

}  // namespace legw::serve
