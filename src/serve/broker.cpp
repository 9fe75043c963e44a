#include "serve/broker.hpp"

#include <chrono>
#include <utility>

#include "core/counters.hpp"
#include "obs/trace.hpp"

namespace legw::serve {

namespace {

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
      batcher_(config_.policy) {
  LEGW_CHECK(config_.workers > 0, "RequestBroker: needs at least one worker");
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    // lint-allow: raw-thread — dedicated long-lived workers, joined by
    // shutdown(); the core pool is for data-parallel kernels, not services.
    workers_.emplace_back([this] { worker_loop(); });
  }
}

RequestBroker::~RequestBroker() { shutdown(); }

std::future<Response> RequestBroker::submit(Request req) {
  obs::Span span("serve.enqueue");
  const i64 enqueue_ns = steady_ns();
  Result valid = session_.validate(req);
  if (!valid.ok()) {
    core::count("serve.rejected", 1);
    std::promise<Response> p;
    p.set_value(
        immediate_failure(req.id, valid.status, std::move(valid.message)));
    return p.get_future();
  }
  std::future<Response> fut;
  {
    core::MutexLock lk(mu_);
    if (stop_) {
      core::count("serve.rejected", 1);
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
    batcher_.add(Pending{ticket, length});
    core::count("serve.requests", 1);
  }
  cv_.notify_one();
  return fut;
}

void RequestBroker::worker_loop() {
  for (;;) {
    Claimed batch;
    bool more = false;
    {
      core::MutexLock lk(mu_);
      while (batcher_.empty() && !stop_) cv_.wait(mu_);
      // After stop_, keep popping until the batcher is empty: that is the
      // shutdown drain.
      if (batcher_.empty()) return;
      batch.plan = batcher_.pop_next();
      // Claim the rows while still holding the lock, so no two workers ever
      // own the same ticket.
      const std::size_t n = batch.plan.rows.size();
      batch.reqs.reserve(n);
      batch.promises.reserve(n);
      batch.enqueue_ns.reserve(n);
      for (const Pending& row : batch.plan.rows) {
        auto it = waiting_.find(row.ticket);
        LEGW_CHECK(it != waiting_.end(),
                   "broker: batched ticket has no waiting entry");
        batch.reqs.push_back(std::move(it->second.req));
        batch.promises.push_back(std::move(it->second.promise));
        batch.enqueue_ns.push_back(it->second.enqueue_ns);
        waiting_.erase(it);
      }
      more = !batcher_.empty();
    }
    // One batch per claim: hand what is left to an idle worker rather than
    // holding the backlog on this one.
    if (more) cv_.notify_one();
    execute(std::move(batch));
  }
}

void RequestBroker::execute(Claimed batch) {
  obs::Span span("serve.batch");
  const i64 rows = static_cast<i64>(batch.reqs.size());

  std::vector<Response> responses;
  Result res = session_.run_batch(batch.reqs, batch.plan.bucket_len,
                                  /*pad_rows_to=*/0, &responses);
  const i64 done = steady_ns();
  if (!res.ok()) {
    for (std::size_t i = 0; i < batch.promises.size(); ++i) {
      batch.promises[i].set_value(immediate_failure(
          batch.reqs[i].id, res.status, res.message));
    }
    return;
  }

  core::count("serve.batches", 1);
  core::count("serve.batch_rows", rows);
  core::count("serve.responses", rows);

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
  const auto read = [](std::string_view name) {
    return core::counter(name).load(std::memory_order_relaxed);
  };
  BrokerCounters out;
  out.requests = read("serve.requests");
  out.rejected = read("serve.rejected");
  out.responses = read("serve.responses");
  out.batches = read("serve.batches");
  out.batch_rows = read("serve.batch_rows");
  return out;
}

}  // namespace legw::serve
