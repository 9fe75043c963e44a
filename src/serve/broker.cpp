#include "serve/broker.hpp"

#include <atomic>
#include <utility>

#include "obs/trace.hpp"

namespace legw::serve {

namespace {

// Process-global serve.* counters: relaxed atomics bumped on the hot path,
// snapshotted by the obs counter source. Global (not per-broker) so the
// telemetry stream has one namespace regardless of broker lifetimes.
struct AtomicCounters {
  std::atomic<i64> requests{0};
  std::atomic<i64> rejected{0};
  std::atomic<i64> responses{0};
  std::atomic<i64> batches{0};
  std::atomic<i64> batch_rows{0};
  std::atomic<i64> pad_rows{0};
  std::atomic<i64> capacity_batches{0};
  std::atomic<i64> deadline_batches{0};
  std::atomic<i64> drain_batches{0};
};

AtomicCounters& counts() {
  static AtomicCounters c;
  return c;
}

void serve_counter_source(std::map<std::string, i64>& out) {
  const AtomicCounters& c = counts();
  out["serve.requests"] = c.requests.load(std::memory_order_relaxed);
  out["serve.rejected"] = c.rejected.load(std::memory_order_relaxed);
  out["serve.responses"] = c.responses.load(std::memory_order_relaxed);
  out["serve.batches"] = c.batches.load(std::memory_order_relaxed);
  out["serve.batch_rows"] = c.batch_rows.load(std::memory_order_relaxed);
  out["serve.pad_rows"] = c.pad_rows.load(std::memory_order_relaxed);
  out["serve.capacity_batches"] =
      c.capacity_batches.load(std::memory_order_relaxed);
  out["serve.deadline_batches"] =
      c.deadline_batches.load(std::memory_order_relaxed);
  out["serve.drain_batches"] =
      c.drain_batches.load(std::memory_order_relaxed);
}

void bump(std::atomic<i64>& c, i64 by = 1) {
  c.fetch_add(by, std::memory_order_relaxed);
}

i64 steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Response immediate_failure(u64 id, Status status, std::string message) {
  Response r;
  r.id = id;
  r.status = status;
  r.message = std::move(message);
  const i64 now = steady_ns();
  r.enqueue_ns = now;
  r.done_ns = now;
  return r;
}

}  // namespace

RequestBroker::RequestBroker(const ServeSession& session, BrokerConfig config)
    : session_(session),
      config_(std::move(config)),
      epoch_(std::chrono::steady_clock::now()),
      batcher_(config_.policy) {
  LEGW_CHECK(config_.workers > 0, "RequestBroker: needs at least one worker");
  // Magic-static init is the C++11 call_once: the first broker registers the
  // counter source, later ones skip (registration is idempotent anyway).
  [[maybe_unused]] static const bool kSourceRegistered = [] {
    obs::register_counter_source(&serve_counter_source);
    return true;
  }();
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    // lint-allow: raw-thread — dedicated long-lived workers, joined by
    // shutdown(); the core pool is for data-parallel kernels, not services.
    workers_.emplace_back([this] { worker_loop(); });
  }
}

RequestBroker::~RequestBroker() { shutdown(); }

i64 RequestBroker::now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::future<Response> RequestBroker::submit(Request req) {
  obs::Span span("serve.enqueue");
  const i64 enqueue_ns = steady_ns();
  Result valid = session_.validate(req);
  if (!valid.ok()) {
    bump(counts().rejected);
    std::promise<Response> p;
    p.set_value(
        immediate_failure(req.id, valid.status, std::move(valid.message)));
    return p.get_future();
  }
  std::future<Response> fut;
  {
    core::MutexLock lk(mu_);
    if (stop_) {
      bump(counts().rejected);
      std::promise<Response> p;
      p.set_value(immediate_failure(req.id, Status::kUnavailable,
                                    "broker is shut down"));
      return p.get_future();
    }
    const u64 ticket = next_ticket_++;
    Waiting& w = waiting_[ticket];
    w.enqueue_ns = enqueue_ns;
    fut = w.promise.get_future();
    const i64 length = session_.request_length(req);
    w.req = std::move(req);
    batcher_.add(Pending{ticket, length, now_ms()});
    bump(counts().requests);
  }
  cv_.notify_all();
  return fut;
}

void RequestBroker::worker_loop() {
  for (;;) {
    std::vector<BatchPlan> plans;
    bool draining = false;
    {
      core::MutexLock lk(mu_);
      for (;;) {
        if (stop_) {
          plans = batcher_.drain();
          draining = true;
          break;
        }
        plans = batcher_.pop_ready(now_ms());
        if (!plans.empty()) break;
        const i64 due = batcher_.next_deadline_ms();
        if (due < 0) {
          cv_.wait(mu_);
        } else {
          cv_.wait_until(mu_, epoch_ + std::chrono::milliseconds(due));
        }
      }
      if (draining && plans.empty()) return;
      // Claim the plans' requests while still holding the lock, so no two
      // workers ever own the same ticket.
      std::vector<Claimed> claimed;
      claimed.reserve(plans.size());
      for (BatchPlan& plan : plans) {
        Claimed c;
        c.reqs.reserve(plan.rows.size());
        c.promises.reserve(plan.rows.size());
        c.enqueue_ns.reserve(plan.rows.size());
        for (const Pending& row : plan.rows) {
          auto it = waiting_.find(row.ticket);
          LEGW_CHECK(it != waiting_.end(),
                     "broker: batched ticket has no waiting entry");
          c.reqs.push_back(std::move(it->second.req));
          c.promises.push_back(std::move(it->second.promise));
          c.enqueue_ns.push_back(it->second.enqueue_ns);
          waiting_.erase(it);
        }
        c.plan = std::move(plan);
        claimed.push_back(std::move(c));
      }
      lk.unlock();
      for (Claimed& c : claimed) execute(std::move(c));
    }
    // Drain batches were executed above; the next iteration observes stop_
    // with an empty batcher and returns.
  }
}

void RequestBroker::execute(Claimed batch) {
  obs::Span span("serve.batch");
  const i64 rows = static_cast<i64>(batch.reqs.size());
  const i64 pad_rows_to =
      config_.pad_rows_to_cap ? config_.policy.batch_cap : 0;

  std::vector<Response> responses;
  Result res = session_.run_batch(batch.reqs, batch.plan.bucket_len,
                                  pad_rows_to, &responses);
  const i64 done = steady_ns();
  if (!res.ok()) {
    for (std::size_t i = 0; i < batch.promises.size(); ++i) {
      batch.promises[i].set_value(immediate_failure(
          batch.reqs[i].id, res.status, res.message));
    }
    return;
  }

  bump(counts().batches);
  bump(counts().batch_rows, rows);
  if (pad_rows_to > rows) bump(counts().pad_rows, pad_rows_to - rows);
  switch (batch.plan.reason) {
    case BatchPlan::Reason::kCapacity: bump(counts().capacity_batches); break;
    case BatchPlan::Reason::kDeadline: bump(counts().deadline_batches); break;
    case BatchPlan::Reason::kDrain: bump(counts().drain_batches); break;
  }
  bump(counts().responses, rows);

  for (std::size_t i = 0; i < batch.promises.size(); ++i) {
    responses[i].enqueue_ns = batch.enqueue_ns[i];
    responses[i].done_ns = done;
    batch.promises[i].set_value(std::move(responses[i]));
  }
}

void RequestBroker::shutdown() {
  {
    core::MutexLock lk(mu_);
    if (joined_) return;
    stop_ = true;
  }
  cv_.notify_all();
  // lint-allow: raw-thread — joining the broker's own workers (see ctor)
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  {
    core::MutexLock lk(mu_);
    joined_ = true;
    LEGW_CHECK(waiting_.empty(), "broker: shutdown left unresolved requests");
  }
}

BrokerCounters RequestBroker::counters() {
  const AtomicCounters& c = counts();
  BrokerCounters out;
  out.requests = c.requests.load(std::memory_order_relaxed);
  out.rejected = c.rejected.load(std::memory_order_relaxed);
  out.responses = c.responses.load(std::memory_order_relaxed);
  out.batches = c.batches.load(std::memory_order_relaxed);
  out.batch_rows = c.batch_rows.load(std::memory_order_relaxed);
  out.pad_rows = c.pad_rows.load(std::memory_order_relaxed);
  out.capacity_batches = c.capacity_batches.load(std::memory_order_relaxed);
  out.deadline_batches = c.deadline_batches.load(std::memory_order_relaxed);
  out.drain_batches = c.drain_batches.load(std::memory_order_relaxed);
  return out;
}

}  // namespace legw::serve
