// RequestBroker: multi-threaded front door of the serving runtime.
//
// submit() validates a request, queues it in the Batcher, wakes one worker,
// and returns a future. The broker is work-conserving: a worker waits only
// while nothing is queued, and a free worker claims one batch
// (Batcher::pop_next under the broker mutex) at once, so requests queue
// only while every worker is busy and batches grow with the backlog. The
// batch runs OUTSIDE the lock via ServeSession::run_batch, so inference
// never blocks enqueue. Shutdown drains: workers keep popping until the
// batcher is empty, so every request accepted before shutdown() gets
// exactly one response, and submits after it resolve immediately with
// Status::kUnavailable.
//
// Sequences are padded to the bucket length; rows are never padded, so a
// partial batch costs only its real rows. Padding is bitwise-invisible to
// real rows (see serve/session.hpp).
//
// Observability: spans serve.enqueue / serve.batch / serve.infer, and
// process-global serve.* counters in the core counter registry
// (core/counters.hpp) — they ride along in every TraceRecorder::counters()
// snapshot and telemetry JSONL line, tracing enabled or not, and are zeroed
// by TraceRecorder::clear() like every other counter.
#pragma once

#include <future>
#include <map>
#include <thread>
#include <vector>

#include "core/mutex.hpp"
#include "serve/batcher.hpp"
#include "serve/session.hpp"

namespace legw::serve {

struct BrokerConfig {
  BatchPolicy policy;
  int workers = 2;
};

// Snapshot of the process-global serve counters: all brokers, since the
// last TraceRecorder::clear() (or process start).
struct BrokerCounters {
  i64 requests = 0;           // accepted submits
  i64 rejected = 0;           // invalid or post-shutdown submits
  i64 responses = 0;          // futures resolved with a computed result
  i64 batches = 0;            // executed batches
  i64 batch_rows = 0;         // real request rows across executed batches
  i64 pad_rows = 0;           // always 0: the broker never pads rows (kept
                              // for perfbench's serve.pad_frac)
  i64 deadline_batches = 0;   // always 0: there is no batching deadline
                              // (kept for perfbench's
                              // serve.deadline_batch_frac)
};

class RequestBroker {
 public:
  // `session` must outlive the broker and is shared read-only by all
  // workers.
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

  const ServeSession& session_;
  const BrokerConfig config_;

  core::Mutex mu_;
  core::CondVar cv_;  // wakes workers on new requests and shutdown
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
