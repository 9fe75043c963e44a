// RequestBroker concurrency battery. Runs in the tier1-serve suite AND in
// legw_concurrency_tests under the tsan preset: N producer threads hammer a
// broker with M workers and every future must resolve exactly once with the
// bitwise-correct result; shutdown with requests still in flight drains them
// (zero dropped, zero duplicated); a lone request on an idle broker leaves at
// once as a one-row batch; submits after shutdown are refused with a
// structured status.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/rng.hpp"
#include "mem/alloc.hpp"
#include "models/mnist_lstm.hpp"
#include "obs/trace.hpp"
#include "obs/telemetry.hpp"
#include "serve/broker.hpp"

namespace legw {
namespace {

using core::Rng;
using core::Tensor;

models::MnistLstmConfig small_config() {
  models::MnistLstmConfig c;
  c.transform_dim = 12;
  c.hidden_dim = 12;
  c.seed = 9;
  return c;
}

std::unique_ptr<serve::ServeSession> make_session() {
  models::MnistLstm model(small_config());
  ckpt::TrainState state;
  state.models.push_back(&model);
  state.step = 1;
  serve::SessionConfig sc;
  sc.kind = serve::ModelKind::kMnistLstm;
  sc.mnist.transform_dim = 12;
  sc.mnist.hidden_dim = 12;
  std::unique_ptr<serve::ServeSession> session;
  const auto res =
      serve::ServeSession::load_bytes(sc, ckpt::encode(state), &session);
  EXPECT_TRUE(res.ok()) << res.message;
  return session;
}

serve::Request random_request(u64 id, Rng& rng) {
  serve::Request req;
  req.id = id;
  req.features.resize(28 * 28);
  for (float& v : req.features) {
    v = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return req;
}

serve::BrokerConfig broker_config(int workers, i64 cap) {
  serve::BrokerConfig cfg;
  cfg.workers = workers;
  cfg.policy.batch_cap = cap;
  return cfg;
}

TEST(RequestBroker, ProducersTimesWorkersBitwiseCorrect) {
  auto session = make_session();
  ASSERT_NE(session, nullptr);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 12;
  // Requests plus their synchronous batch-of-one reference results, prepared
  // before the broker exists so nothing races the comparison data.
  std::vector<std::vector<serve::Request>> reqs(kProducers);
  std::vector<std::vector<Tensor>> want(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    Rng rng(static_cast<u64>(100 + p));
    for (int i = 0; i < kPerProducer; ++i) {
      const u64 id = static_cast<u64>(p * kPerProducer + i);
      reqs[p].push_back(random_request(id, rng));
      const serve::Response ref = session->run(reqs[p].back());
      EXPECT_EQ(ref.status, serve::Status::kOk);
      want[p].push_back(ref.logits);
    }
  }

  serve::RequestBroker broker(*session, broker_config(3, 4));
  std::vector<std::vector<std::future<serve::Response>>> futures(kProducers);
  {
    // lint-allow: raw-thread — the test IS the threading scenario
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      // lint-allow: raw-thread — the test IS the threading scenario
      producers.emplace_back([&, p] {
        for (const serve::Request& req : reqs[p]) {
          futures[p].push_back(broker.submit(req));
        }
      });
    }
    for (auto& t : producers) t.join();
  }

  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      serve::Response r = futures[p][static_cast<std::size_t>(i)].get();
      ASSERT_EQ(r.status, serve::Status::kOk) << r.message;
      EXPECT_EQ(r.id, static_cast<u64>(p * kPerProducer + i));
      ASSERT_EQ(r.logits.shape(), want[p][i].shape());
      for (i64 k = 0; k < r.logits.numel(); ++k) {
        ASSERT_EQ(r.logits[k], want[p][i][k])
            << "producer " << p << " request " << i << " flat " << k;
      }
      EXPECT_GE(r.done_ns, r.enqueue_ns);
    }
  }
}

TEST(RequestBroker, ShutdownDrainsInflightWithoutDropsOrDuplicates) {
  auto session = make_session();
  ASSERT_NE(session, nullptr);

  // One worker and a small cap: the requests queue behind the worker's
  // batches, so shutdown() lands with most of them still in the batcher and
  // the drain is what resolves them.
  serve::RequestBroker broker(*session, broker_config(1, 4));
  Rng rng(3);
  std::vector<serve::Request> reqs;
  for (u64 i = 0; i < 40; ++i) reqs.push_back(random_request(i, rng));
  std::vector<std::future<serve::Response>> futures;
  for (serve::Request& req : reqs) {
    futures.push_back(broker.submit(std::move(req)));
  }
  broker.shutdown();
  std::atomic<int> resolved{0};
  for (std::size_t i = 0; i < futures.size(); ++i) {
    serve::Response r = futures[i].get();  // .get() faults on a dropped or
    ASSERT_EQ(r.status, serve::Status::kOk) << r.message;  // doubled promise
    EXPECT_EQ(r.id, static_cast<u64>(i));
    ++resolved;
  }
  EXPECT_EQ(resolved.load(), 40);

  // Idempotent, and the door is closed afterwards.
  broker.shutdown();
  serve::Response late = broker.submit(random_request(99, rng)).get();
  EXPECT_EQ(late.status, serve::Status::kUnavailable);
}

TEST(RequestBroker, InvalidRequestsAreRefusedAtSubmit) {
  auto session = make_session();
  serve::RequestBroker broker(*session, broker_config(2, 4));
  serve::Request bad;
  bad.id = 7;
  bad.features.resize(3);  // needs 784
  serve::Response r = broker.submit(bad).get();
  EXPECT_EQ(r.status, serve::Status::kInvalidRequest);
  EXPECT_EQ(r.id, 7u);
}

// Tensor-heap peak of `fn`, above the live bytes when it starts.
template <typename Fn>
i64 heap_peak_delta(Fn&& fn) {
  mem::reset_mem_peaks();
  const i64 live = mem::mem_stats().heap_live_bytes;
  fn();
  return mem::mem_stats().heap_peak_bytes - live;
}

TEST(RequestBroker, PartialBatchRunsOnlyItsRealRows) {
  // Fewer requests than batch_cap, all in one bucket: every batch is
  // partial, and the broker runs exactly its rows, never zero padding.
  // Padding leaves every real row's logits alone, so it shows only in the
  // shape the batch runs at: its heap peak.
  auto session = make_session();
  ASSERT_NE(session, nullptr);
  constexpr int kRequests = 5;
  constexpr i64 kCap = 16;
  Rng rng(21);
  std::vector<serve::Request> reqs;
  std::vector<Tensor> want;
  for (int i = 0; i < kRequests; ++i) {
    reqs.push_back(random_request(static_cast<u64>(i), rng));
    const serve::Response ref = session->run(reqs.back());
    ASSERT_EQ(ref.status, serve::Status::kOk);
    want.push_back(ref.logits);
  }
  const auto direct_peak = [&](i64 pad_rows_to) {
    return heap_peak_delta([&] {
      std::vector<serve::Response> out;
      ASSERT_TRUE(session->run_batch(reqs, 0, pad_rows_to, &out).ok());
    });
  };
  const i64 padded_peak = direct_peak(kCap);
  ASSERT_GT(padded_peak, direct_peak(0));

  const serve::BrokerCounters before = serve::RequestBroker::counters();
  const i64 broker_peak = heap_peak_delta([&] {
    serve::RequestBroker broker(*session, broker_config(1, kCap));
    std::vector<std::future<serve::Response>> futures;
    for (const serve::Request& req : reqs) {
      futures.push_back(broker.submit(req));
    }
    for (int i = 0; i < kRequests; ++i) {
      serve::Response r = futures[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(r.status, serve::Status::kOk) << r.message;
      ASSERT_EQ(r.logits.shape(), want[i].shape());
      for (i64 k = 0; k < r.logits.numel(); ++k) {
        ASSERT_EQ(r.logits[k], want[i][k]) << "request " << i << " flat " << k;
      }
    }
  });
  const serve::BrokerCounters after = serve::RequestBroker::counters();
  EXPECT_GE(after.batches - before.batches, 1);
  EXPECT_EQ(after.batch_rows - before.batch_rows, kRequests);
  EXPECT_EQ(after.pad_rows - before.pad_rows, 0);
  EXPECT_LT(broker_peak, padded_peak);
}

TEST(RequestBroker, LoneRequestOnIdleBrokerIsAOneRowBatch) {
  // No batching deadline: an idle worker takes the request at once instead
  // of holding it back for company.
  auto session = make_session();
  ASSERT_NE(session, nullptr);
  Rng rng(8);
  const serve::Request req = random_request(42, rng);
  const serve::Response want = session->run(req);
  ASSERT_EQ(want.status, serve::Status::kOk);

  const serve::BrokerCounters before = serve::RequestBroker::counters();
  serve::RequestBroker broker(*session, broker_config(2, 16));
  serve::Response r = broker.submit(req).get();
  const serve::BrokerCounters after = serve::RequestBroker::counters();
  ASSERT_EQ(r.status, serve::Status::kOk) << r.message;
  EXPECT_EQ(r.id, 42u);
  ASSERT_EQ(r.logits.shape(), want.logits.shape());
  for (i64 k = 0; k < r.logits.numel(); ++k) {
    ASSERT_EQ(r.logits[k], want.logits[k]) << "flat " << k;
  }
  EXPECT_EQ(after.batches - before.batches, 1);
  EXPECT_EQ(after.batch_rows - before.batch_rows, 1);
  EXPECT_EQ(after.deadline_batches, 0);
}

TEST(RequestBroker, CountersReachTelemetryWithTracingDisabled) {
  obs::set_tracing_enabled(false);
  const serve::BrokerCounters before = serve::RequestBroker::counters();
  auto session = make_session();
  {
    serve::RequestBroker broker(*session, broker_config(2, 4));
    Rng rng(5);
    std::vector<std::future<serve::Response>> futures;
    for (u64 i = 0; i < 10; ++i) {
      futures.push_back(broker.submit(random_request(i, rng)));
    }
    for (auto& f : futures) EXPECT_EQ(f.get().status, serve::Status::kOk);
  }
  const serve::BrokerCounters after = serve::RequestBroker::counters();
  EXPECT_EQ(after.requests - before.requests, 10);
  EXPECT_EQ(after.responses - before.responses, 10);
  EXPECT_GE(after.batches - before.batches, 1);
  EXPECT_GE(after.batch_rows - before.batch_rows, 10);

  // serve.* live in the core counter registry, so every recorder snapshot
  // — and therefore the telemetry JSONL — carries them even with tracing
  // disabled (the counters are always-on atomics, not spans).
  const auto counters = obs::TraceRecorder::global().counters();
  ASSERT_EQ(counters.count("serve.requests"), 1u);
  EXPECT_GE(counters.at("serve.requests"), 10);
  ASSERT_EQ(counters.count("serve.batches"), 1u);

  obs::RunRecord record;
  record.run = "serve.telemetry.test";
  const std::string line =
      obs::render_run_telemetry(record, obs::TraceRecorder::global());
  EXPECT_NE(line.find("\"serve.requests\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"serve.batch_rows\""), std::string::npos) << line;
}

TEST(RequestBroker, RecorderClearZeroesServeCounters) {
  // serve.* reset with every other counter, so a telemetry record written
  // after clear() carries no serve counts from before it.
  obs::set_tracing_enabled(false);
  auto session = make_session();
  {
    serve::RequestBroker broker(*session, broker_config(1, 4));
    Rng rng(6);
    std::vector<std::future<serve::Response>> futures;
    for (u64 i = 0; i < 6; ++i) {
      futures.push_back(broker.submit(random_request(i, rng)));
    }
    for (auto& f : futures) EXPECT_EQ(f.get().status, serve::Status::kOk);
  }
  ASSERT_GE(serve::RequestBroker::counters().requests, 6);
  obs::TraceRecorder::global().clear();

  const serve::BrokerCounters after = serve::RequestBroker::counters();
  EXPECT_EQ(after.requests, 0);
  EXPECT_EQ(after.responses, 0);
  EXPECT_EQ(after.batches, 0);
  EXPECT_EQ(after.batch_rows, 0);
  for (const auto& [name, value] : obs::TraceRecorder::global().counters()) {
    EXPECT_NE(name.rfind("serve.", 0), 0u)
        << name << " = " << value << " survived clear()";
  }
}

}  // namespace
}  // namespace legw
