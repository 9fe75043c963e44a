// Closed-loop serving load generator (docs/SERVING.md).
//
// Saves the canonical mnist-lstm bench model as a checkpoint, loads it into
// a ServeSession, then sweeps the RequestBroker's batch_cap under N
// closed-loop clients: each client submits one request, waits for its
// future, and immediately submits the next. Per-request latency is the
// broker's own enqueue->done span; throughput is resolved requests over the
// sweep's wall time. Emits BENCH_serve.json, one row per cap, with
// p50/p95/p99 latency, throughput, and batch-formation stats from the
// serve.* counters.
//
// Usage: serve_load [--out BENCH_serve.json] [--clients 8] [--workers 2]
//                   [--requests 200] [--trace t.json]
// --clients, --workers and --requests (per client) must each be >= 1.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/flags.hpp"
#include "core/io.hpp"
#include "core/rng.hpp"
#include "serve/broker.hpp"

namespace {

using legw::i64;
using legw::u64;
namespace bench = legw::bench;
namespace serve = legw::serve;

struct Row {
  i64 batch_cap = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double throughput_rps = 0.0;
  i64 requests = 0;
  i64 batches = 0;
  double avg_batch_rows = 0.0;
};

double percentile(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(p / 100.0 *
                                            static_cast<double>(sorted_ms.size()));
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

serve::Request make_request(u64 id, legw::core::Rng& rng) {
  serve::Request req;
  req.id = id;
  req.features.resize(28 * 28);
  for (float& v : req.features) {
    v = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return req;
}

Row run_setting(const serve::ServeSession& session, i64 batch_cap,
                int clients, int workers, int requests_per_client) {
  serve::BrokerConfig cfg;
  cfg.workers = workers;
  cfg.policy.batch_cap = batch_cap;

  const serve::BrokerCounters before = serve::RequestBroker::counters();
  serve::RequestBroker broker(session, cfg);

  std::vector<std::vector<double>> latencies_ms(
      static_cast<std::size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  {
    // lint-allow: raw-thread — the closed-loop clients ARE the workload
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        legw::core::Rng rng(static_cast<u64>(1000 + c));
        auto& lat = latencies_ms[static_cast<std::size_t>(c)];
        lat.reserve(static_cast<std::size_t>(requests_per_client));
        for (int i = 0; i < requests_per_client; ++i) {
          const u64 id = static_cast<u64>(c * requests_per_client + i);
          serve::Response r = broker.submit(make_request(id, rng)).get();
          LEGW_CHECK(r.status == serve::Status::kOk,
                     "serve_load: request failed: " + r.message);
          lat.push_back(static_cast<double>(r.done_ns - r.enqueue_ns) / 1e6);
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  broker.shutdown();
  const serve::BrokerCounters after = serve::RequestBroker::counters();

  std::vector<double> all;
  for (const auto& lat : latencies_ms) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());

  Row row;
  row.batch_cap = batch_cap;
  row.requests = static_cast<i64>(all.size());
  row.p50_ms = percentile(all, 50.0);
  row.p95_ms = percentile(all, 95.0);
  row.p99_ms = percentile(all, 99.0);
  row.throughput_rps = static_cast<double>(all.size()) / wall_s;
  row.batches = after.batches - before.batches;
  row.avg_batch_rows =
      row.batches > 0 ? static_cast<double>(after.batch_rows -
                                            before.batch_rows) /
                            static_cast<double>(row.batches)
                      : 0.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ScopedTrace scoped_trace(argc, argv);
  legw::core::Flags flags(argc, argv);
  const std::string out_path = flags.get_string("out", "BENCH_serve.json");
  // A count below 1 would reach vector::reserve as a huge size_t.
  const auto count_flag = [&](const std::string& name, i64 def) {
    const i64 v = flags.get_int(name, def);
    LEGW_CHECK(v >= 1 && v <= std::numeric_limits<int>::max(),
               "serve_load: --" + name + " must be >= 1, got " +
                   std::to_string(v));
    return static_cast<int>(v);
  };
  const int clients = count_flag("clients", 8);
  const int workers = count_flag("workers", 2);
  const int requests_per_client = count_flag("requests", 200);

  // The canonical bench model, published through the real checkpoint path so
  // the bench covers save -> serve load end to end.
  bench::MnistWorkload w;
  legw::models::MnistLstm model(w.model);
  legw::ckpt::TrainState state;
  state.models.push_back(&model);
  state.step = 1;
  const std::string dir = "bench_serve_tmp";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string ckpt_path = dir + "/model.legw";
  const auto saved = legw::ckpt::save(state, ckpt_path);
  LEGW_CHECK(saved.ok(), "serve_load: save failed: " + saved.message);

  serve::SessionConfig sc;
  sc.kind = serve::ModelKind::kMnistLstm;
  sc.mnist.transform_dim = w.model.transform_dim;
  sc.mnist.hidden_dim = w.model.hidden_dim;
  std::unique_ptr<serve::ServeSession> session;
  const auto loaded = serve::ServeSession::load(sc, ckpt_path, &session);
  LEGW_CHECK(loaded.ok(), "serve_load: load failed: " + loaded.message);

  // cap=1 is the no-batching baseline; larger caps let a batch grow with
  // the backlog that builds while both workers are busy.
  const std::vector<i64> grid = {1, 8, 32};

  std::printf("serve_load: %d clients x %d requests, %d workers\n", clients,
              requests_per_client, workers);
  std::printf("%6s %9s %9s %9s %11s %8s %9s\n", "cap", "p50_ms", "p95_ms",
              "p99_ms", "rps", "batches", "rows/bat");

  std::string body = "[\n";
  char buf[512];
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Row row =
        run_setting(*session, grid[i], clients, workers, requests_per_client);
    std::printf("%6lld %9.3f %9.3f %9.3f %11.1f %8lld %9.2f\n",
                static_cast<long long>(row.batch_cap), row.p50_ms,
                row.p95_ms, row.p99_ms, row.throughput_rps,
                static_cast<long long>(row.batches), row.avg_batch_rows);
    std::snprintf(buf, sizeof buf,
                  "  {\"batch_cap\": %lld, \"clients\": %d, \"workers\": %d, "
                  "\"requests\": %lld, "
                  "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, "
                  "\"throughput_rps\": %.2f, \"batches\": %lld, "
                  "\"avg_batch_rows\": %.3f}%s\n",
                  static_cast<long long>(row.batch_cap), clients, workers,
                  static_cast<long long>(row.requests), row.p50_ms, row.p95_ms,
                  row.p99_ms, row.throughput_rps,
                  static_cast<long long>(row.batches), row.avg_batch_rows,
                  i + 1 < grid.size() ? "," : "");
    body += buf;
  }
  body += "]\n";

  const legw::core::Status st = legw::core::atomic_write_file(out_path, body);
  LEGW_CHECK(st.ok(), "serve_load: " + st.message());
  std::printf("wrote %s\n", out_path.c_str());

  std::filesystem::remove_all(dir);
  return 0;
}
