// serve-ptb-open: the bench PTB language model served through
// serve::RequestBroker under open-loop load.
//
// One generator thread sends seeded Poisson arrivals on a fixed schedule,
// whether or not earlier requests have finished; one collector thread
// gathers the replies. Latency runs from each request's *scheduled* send
// time, so a stall also charges the requests queued behind it, and the
// generator's own lateness is reported. Request lengths are skewed: mostly
// short, with a tail into the 64- and 128-token buckets.
//
// The served model is trained first (one epoch of the ptb-b8-t1 recipe), so
// the served loss sits clearly below a uniform guess, and sampled served
// logits are checked bitwise against the training graph's own forward.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/counters.hpp"
#include "core/rng.hpp"
#include "mem/alloc.hpp"
#include "serve/broker.hpp"
#include "train/runners.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace bench = legw::bench;
namespace core = legw::core;
namespace models = legw::models;
namespace serve = legw::serve;
using legw::i32;

// Fixed load points, constants of the benchmark, never derived from a
// measurement. The nominal rate sits well below saturation. The overload
// rate is above the ladder's top rung and about twice the serving capacity
// on the reference host, so requests queue up through every burst. The
// ladder brackets the sustainable rate.
constexpr double kNominalRps = 1000.0;
constexpr double kOverloadRps = 24000.0;
constexpr i64 kBurstRequests = 12000;  // half a second of sending
constexpr double kLadderRps[] = {1000,  2000,  4000,  6000,  8000,  9000,
                                 9500,  10000, 10500, 11000, 11500, 12000,
                                 12500, 13000, 13500, 14000, 15000, 16000};
// The p99 limit of a sustainable rate. On this tree p99 is set by the 5 ms
// batching deadline plus queued 128-token batches: 17-28 ms up to about
// 6000 rps, a 35-55 ms plateau up to about 11000 rps, then a cliff to over
// 90 ms as the workers saturate. A limit on either plateau would pick a rung
// by noise; 75 ms sits on the cliff.
constexpr double kP99LimitMs = 75.0;
constexpr i64 kMinSamples = 1000;  // per load point: p99 has 10 beyond it
constexpr int kLogitChecks = 32;   // served-vs-reference samples per phase

struct Served {
  std::unique_ptr<bench::PtbWorkload> w;
  std::unique_ptr<models::PtbModel> model;  // the training-side reference
  std::unique_ptr<serve::ServeSession> session;
  double save_ms = 0.0;
  double load_ms = 0.0;
  double ckpt_bytes = 0.0;
};

serve::SessionConfig session_config(const models::PtbConfig& mc) {
  serve::SessionConfig sc;
  sc.kind = serve::ModelKind::kPtbLm;
  sc.ptb.vocab = mc.vocab;
  sc.ptb.embed_dim = mc.embed_dim;
  sc.ptb.hidden_dim = mc.hidden_dim;
  sc.ptb.num_layers = mc.num_layers;
  sc.ptb.tie_embeddings = mc.tie_embeddings;
  return sc;
}

// The served weights: one epoch of the ptb-b8-t1 recipe from a fixed
// training seed, so every run serves the same model and the workload seed
// varies only the traffic. Runs once, before the timed set-up.
bool train_served_model(const Args& args, std::vector<core::Tensor>* params,
                        Result& out) {
  const bench::PtbWorkload w = make_ptb_workload(args);
  const std::unique_ptr<legw::sched::LrSchedule> schedule = ptb_schedule(w);
  legw::train::RunConfig run;
  run.batch_size = w.base_batch;
  run.epochs = 1;
  run.optimizer = "momentum";
  run.seed = 1;
  run.final_eval_only = true;
  run.capture_final_params = true;
  run.schedule = schedule.get();
  const legw::train::RunResult res =
      legw::train::train_ptb(w.corpus, w.model, run);
  ++out.attempted;
  if (res.diverged || legw::train::loss_diverged(res.final_train_loss)) {
    out.fail("training the served model diverged");
    return false;
  }
  std::fprintf(stderr, "perfbench: served model trained, %lld steps, final "
               "train loss %.4f\n", static_cast<long long>(res.steps),
               res.final_train_loss);
  *params = res.final_params;
  return true;
}

// Corpus, model with the trained weights, checkpoint write, session load
// and a broker start: the serve set-up. Returns false (with the failure
// recorded) when the checkpoint round trip fails.
bool set_up(const Args& args, const std::vector<core::Tensor>& trained,
            const std::string& dir, Served& s, Result& out) {
  s.w = std::make_unique<bench::PtbWorkload>(make_ptb_workload(args));
  models::PtbConfig mc = s.w->model;
  mc.vocab = s.w->corpus.vocab();
  s.model = std::make_unique<models::PtbModel>(mc);
  std::vector<legw::ag::Variable> params = s.model->parameters();
  if (params.size() != trained.size()) {
    out.fail("trained model has " + std::to_string(trained.size()) +
             " parameters, the served model " + std::to_string(params.size()));
    return false;
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    core::Tensor& dst = params[i].mutable_value();
    if (!dst.same_shape(trained[i])) {
      out.fail("trained parameter " + std::to_string(i) + " has another shape");
      return false;
    }
    std::copy(trained[i].data(), trained[i].data() + trained[i].numel(),
              dst.data());
  }
  legw::ckpt::TrainState state;
  state.models.push_back(s.model.get());
  state.step = 1;
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/model.legw";
  i64 t0 = steady_ns();
  const legw::ckpt::Result saved = legw::ckpt::save(state, path);
  s.save_ms = static_cast<double>(steady_ns() - t0) / 1e6;
  if (!saved.ok()) {
    out.fail("checkpoint save: " + saved.message);
    return false;
  }
  s.ckpt_bytes = static_cast<double>(std::filesystem::file_size(path));
  t0 = steady_ns();
  const serve::Result loaded =
      serve::ServeSession::load(session_config(mc), path, &s.session);
  s.load_ms = static_cast<double>(steady_ns() - t0) / 1e6;
  if (!loaded.ok()) {
    out.fail("session load: " + loaded.message);
    return false;
  }
  serve::RequestBroker broker(*s.session);  // start + drain of an idle broker
  return true;
}

// One load point's inputs, all drawn from the seed before it starts.
struct Load {
  std::vector<serve::Request> requests;
  std::vector<i64> offset_ns;  // scheduled send time from the phase start
  std::vector<std::size_t> checked;  // indices whose logits are re-run
};

// Mostly short, with a tail into the 64- and 128-token buckets. The weights
// are arbitrary, not taken from a measured distribution; README.md gives how
// much the serve metrics move with the tail weight.
i64 draw_length(core::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.75) return 2 + static_cast<i64>(rng.uniform_int(15));    // 2..16
  if (u < 0.90) return 17 + static_cast<i64>(rng.uniform_int(16));   // ..32
  if (u < 0.97) return 33 + static_cast<i64>(rng.uniform_int(32));   // ..64
  return 65 + static_cast<i64>(rng.uniform_int(64));                 // ..128
}

serve::Request make_request(const std::vector<i32>& corpus, i64 len,
                            core::Rng& rng, u64 id) {
  serve::Request req;
  req.id = id;
  const u64 start =
      rng.uniform_int(static_cast<u64>(corpus.size()) - static_cast<u64>(len));
  req.tokens.assign(corpus.begin() + static_cast<std::ptrdiff_t>(start),
                    corpus.begin() + static_cast<std::ptrdiff_t>(start) + len);
  return req;
}

Load make_load(const std::vector<i32>& corpus, u64 seed, double rps, i64 n) {
  core::Rng rng(seed);
  Load load;
  double t_s = 0.0;
  for (i64 i = 0; i < n; ++i) {
    t_s += -std::log(1.0 - rng.uniform()) / rps;
    load.offset_ns.push_back(static_cast<i64>(t_s * 1e9));
    load.requests.push_back(
        make_request(corpus, draw_length(rng), rng, static_cast<u64>(i)));
  }
  for (int k = 0; k < kLogitChecks && n > 0; ++k) {
    load.checked.push_back(
        static_cast<std::size_t>(rng.uniform_int(static_cast<u64>(n))));
  }
  std::sort(load.checked.begin(), load.checked.end());
  load.checked.erase(std::unique(load.checked.begin(), load.checked.end()),
                     load.checked.end());
  return load;
}

struct PhaseStats {
  i64 sent = 0;
  i64 failed = 0;  // non-kOk replies, refusals, drops, logit mismatches
  std::vector<double> latency_ms;  // from scheduled send to reply
  std::vector<i64> done_ns;        // reply time from the phase start
  std::vector<double> lag_ms;      // generator lateness
  std::vector<double> submit_us;   // submit() call time
  double achieved_rps = 0.0;
  bool backlog_grows = false;
  double nll = 0.0;  // mean next-token cross-entropy of the served logits
  serve::BrokerCounters counters;  // delta over the phase
  i64 gemm_calls = 0;
  i64 lstm_calls = 0;
};

double next_token_nll(const std::vector<i32>& tokens,
                      const core::Tensor& logits, i64* positions) {
  const i64 len = static_cast<i64>(tokens.size());
  const i64 vocab = logits.size(1);
  const float* row = logits.data();
  double sum = 0.0;
  for (i64 i = 0; i + 1 < len; ++i, row += vocab) {
    const float mx = *std::max_element(row, row + vocab);
    double z = 0.0;
    for (i64 v = 0; v < vocab; ++v) {
      z += std::exp(static_cast<double>(row[v] - mx));
    }
    sum += std::log(z) + mx - row[tokens[static_cast<std::size_t>(i) + 1]];
  }
  *positions += len - 1;
  return sum;
}

bool bitwise_equal(const core::Tensor& a, const core::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

struct PhaseOptions {
  bool time_submit = false;  // time every submit() call (traced runs)
  bool score = false;        // next-token cross-entropy of every reply
};

// Runs one open-loop load point against a fresh broker and checks every
// reply. Scoring is left to the nominal phase so the collector takes no CPU
// from the workers while the ladder loads them.
PhaseStats run_phase(const Served& served, Load load, PhaseOptions opts) {
  const serve::ServeSession& session = *served.session;
  PhaseStats st;
  const std::size_t n = load.requests.size();
  st.sent = static_cast<i64>(n);
  std::vector<serve::Request> check_reqs;
  for (std::size_t i : load.checked) check_reqs.push_back(load.requests[i]);
  std::vector<std::vector<i32>> tokens;  // requests are moved into submit()
  for (const serve::Request& r : load.requests) tokens.push_back(r.tokens);
  std::vector<core::Tensor> check_logits(load.checked.size());

  std::vector<std::future<serve::Response>> replies(n);
  std::vector<i64> backlog(n, 0);
  st.latency_ms.assign(n, 0.0);
  st.done_ns.assign(n, 0);
  st.lag_ms.assign(n, 0.0);
  if (opts.time_submit) st.submit_us.assign(n, 0.0);
  std::atomic<std::size_t> published{0};
  std::atomic<i64> failed{0};
  double nll_sum = 0.0;
  i64 nll_positions = 0;
  i64 last_done_ns = 0;

  const serve::BrokerCounters before = serve::RequestBroker::counters();
  const i64 gemm0 =
      core::dispatch_count(core::DispatchCounter::kGemmRef) +
      core::dispatch_count(core::DispatchCounter::kGemmBlocked);
  const i64 lstm0 =
      core::dispatch_count(core::DispatchCounter::kLstmCellForward) +
      core::dispatch_count(core::DispatchCounter::kLstmCellBackward);
  serve::RequestBroker broker(session);
  const i64 start_ns = steady_ns() + 2'000'000;  // let both threads start
  {
    // lint-allow: raw-thread — the open-loop generator and collector ARE
    // the workload; both are joined before the broker shuts down.
    std::thread generator([&] {
      for (std::size_t i = 0; i < n; ++i) {
        const i64 due = start_ns + load.offset_ns[i];
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
        const i64 sent = steady_ns();
        st.lag_ms[i] = static_cast<double>(sent - due) / 1e6;
        replies[i] = broker.submit(std::move(load.requests[i]));
        if (opts.time_submit) {
          st.submit_us[i] = static_cast<double>(steady_ns() - sent) / 1e3;
        }
        const serve::BrokerCounters c = serve::RequestBroker::counters();
        backlog[i] = c.requests - c.responses;
        published.store(i + 1, std::memory_order_release);
        published.notify_one();
      }
    });
    std::thread collector([&] {
      std::size_t next_check = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t avail = published.load(std::memory_order_acquire);
        while (avail <= i) {
          published.wait(avail, std::memory_order_acquire);
          avail = published.load(std::memory_order_acquire);
        }
        serve::Response r = replies[i].get();
        if (r.status != serve::Status::kOk) {
          std::fprintf(stderr, "perfbench: request %zu: %s\n", i,
                       r.message.c_str());
          failed.fetch_add(1);
          continue;
        }
        st.latency_ms[i] =
            static_cast<double>(r.done_ns - start_ns - load.offset_ns[i]) /
            1e6;
        st.done_ns[i] = r.done_ns - start_ns;
        last_done_ns = std::max(last_done_ns, r.done_ns);
        if (opts.score) {
          nll_sum += next_token_nll(tokens[i], r.logits, &nll_positions);
        }
        if (next_check < load.checked.size() && load.checked[next_check] == i) {
          check_logits[next_check++] = std::move(r.logits);
        }
      }
    });
    generator.join();
    collector.join();
  }
  broker.shutdown();
  const serve::BrokerCounters after = serve::RequestBroker::counters();
  st.counters.requests = after.requests - before.requests;
  st.counters.rejected = after.rejected - before.rejected;
  st.counters.responses = after.responses - before.responses;
  st.counters.batches = after.batches - before.batches;
  st.counters.batch_rows = after.batch_rows - before.batch_rows;
  st.counters.pad_rows = after.pad_rows - before.pad_rows;
  st.counters.deadline_batches =
      after.deadline_batches - before.deadline_batches;
  st.gemm_calls = core::dispatch_count(core::DispatchCounter::kGemmRef) +
                  core::dispatch_count(core::DispatchCounter::kGemmBlocked) -
                  gemm0;
  st.lstm_calls =
      core::dispatch_count(core::DispatchCounter::kLstmCellForward) +
      core::dispatch_count(core::DispatchCounter::kLstmCellBackward) - lstm0;

  st.failed = failed.load();
  // Shutdown drained everything: each request accepted and answered once.
  if (st.counters.requests != static_cast<i64>(n) ||
      st.counters.responses != static_cast<i64>(n)) {
    std::fprintf(stderr, "perfbench: broker accepted %lld, answered %lld, "
                 "rejected %lld of %zu\n",
                 static_cast<long long>(st.counters.requests),
                 static_cast<long long>(st.counters.responses),
                 static_cast<long long>(st.counters.rejected), n);
    ++st.failed;
  }
  // Batch invariance: a served row equals the request run on its own, and
  // both equal the training graph's forward of the same tokens.
  for (std::size_t k = 0; k < check_reqs.size(); ++k) {
    const serve::Response solo = session.run(check_reqs[k]);
    if (solo.status != serve::Status::kOk ||
        !bitwise_equal(solo.logits, check_logits[k])) {
      std::fprintf(stderr, "perfbench: served logits of request %zu differ "
                   "from ServeSession::run\n", load.checked[k]);
      ++st.failed;
    }
    if (!bitwise_equal(served.model->sequence_logits(check_reqs[k].tokens),
                       check_logits[k])) {
      std::fprintf(stderr, "perfbench: served logits of request %zu differ "
                   "from PtbModel::sequence_logits\n", load.checked[k]);
      ++st.failed;
    }
  }
  st.nll = nll_positions > 0 ? nll_sum / static_cast<double>(nll_positions)
                             : 0.0;
  const double span_s =
      static_cast<double>(last_done_ns - start_ns) / 1e9;
  st.achieved_rps = span_s > 0.0 ? static_cast<double>(n) / span_s : 0.0;
  // The backlog grows when the late third of the run queues clearly more
  // than the early third.
  const std::size_t third = n / 3;
  if (third > 0) {
    double early = 0.0;
    double late = 0.0;
    for (std::size_t i = 0; i < third; ++i) {
      early += static_cast<double>(backlog[i]);
      late += static_cast<double>(backlog[n - 1 - i]);
    }
    early /= static_cast<double>(third);
    late /= static_cast<double>(third);
    const auto cap = static_cast<double>(broker.config().policy.batch_cap);
    st.backlog_grows = late > 2.0 * early + cap;
  }
  return st;
}

i64 requests_for(double rps, double seconds) {
  return std::max<i64>(kMinSamples, static_cast<i64>(rps * seconds));
}

bool passes(const PhaseStats& st) {
  return st.failed == 0 && !st.backlog_grows &&
         percentile(st.latency_ms, 99.0) <= kP99LimitMs;
}

void account(const PhaseStats& st, Result& out) {
  out.attempted += st.sent;
  out.failed += st.failed;
  if (st.failed > 0) out.correct = false;
}

// Bisects the fixed ladder for the highest rate that meets the p99 limit
// with no failure and no growing backlog (pass/fail is taken as monotonic in
// rate), and returns the completed requests per second at that rate. Outside
// load can only slow a probe, so a failing rung is probed once more before
// it counts as failed.
double ladder_max_rps(const Args& args, const Served& s,
                      const std::vector<i32>& corpus, u64 seed, Result& out) {
  const double probe_s = args.smoke ? 0.05 : 0.05 * args.seconds;
  const int rungs = static_cast<int>(std::size(kLadderRps));
  int lo = -1;     // highest rung known to pass
  int hi = rungs;  // lowest rung known to fail
  double best_rps = 0.0;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const double rps = kLadderRps[mid];
    const i64 n = args.smoke ? static_cast<i64>(rps * probe_s) + 1
                             : requests_for(rps, probe_s);
    bool pass = false;
    for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
      const PhaseStats st = run_phase(
          s,
          make_load(corpus, seed + static_cast<u64>(2 * mid + attempt) + 1,
                    rps, n),
          {});
      // Overload only fails the rung; refused or wrong replies are errors.
      account(st, out);
      pass = passes(st);
      std::fprintf(stderr,
                   "perfbench: ladder %.0f rps: p99 %.2f ms, backlog %s, "
                   "achieved %.0f rps -> %s\n",
                   rps, percentile(st.latency_ms, 99.0),
                   st.backlog_grows ? "grows" : "steady", st.achieved_rps,
                   pass ? "pass" : "fail");
      if (pass) best_rps = st.achieved_rps;
    }
    (pass ? lo : hi) = mid;
  }
  if (lo < 0) out.fail("no ladder rate meets the p99 limit");
  return best_rps;
}

// Direct run_batch of batch_cap requests padded to one bucket length.
double run_batch_ms(const serve::ServeSession& session,
                    const std::vector<i32>& corpus, i64 len, u64 seed,
                    Result& out) {
  const serve::BatchPolicy policy;
  core::Rng rng(seed);
  std::vector<serve::Request> reqs;
  for (i64 r = 0; r < policy.batch_cap; ++r) {
    reqs.push_back(make_request(corpus, len, rng, static_cast<u64>(r)));
  }
  std::vector<double> ms;
  for (int rep = 0; rep < 15; ++rep) {
    std::vector<serve::Response> resp;
    const i64 t0 = steady_ns();
    const serve::Result res =
        session.run_batch(reqs, len, policy.batch_cap, &resp);
    ms.push_back(static_cast<double>(steady_ns() - t0) / 1e6);
    if (!res.ok()) {
      out.fail("run_batch: " + res.message);
      break;
    }
  }
  return median(ms);
}

}  // namespace

void run_serve(const Args& args, Result& out) {
  std::vector<core::Tensor> trained;
  if (!train_served_model(args, &trained, out)) return;
  const std::string dir = work_dir("serve");
  Served s;
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  bool set_up_ok = true;
  const std::vector<double> setup_s = repeat_setup(args, [&] {
    if (!set_up_ok) return;
    set_up_ok = set_up(args, trained, dir, s, out);
    save_ms.push_back(s.save_ms);
    load_ms.push_back(s.load_ms);
  });
  std::filesystem::remove_all(dir);
  if (!set_up_ok) return;
  const std::vector<i32>& corpus = s.w->corpus.valid_tokens();
  const u64 seed = args.seed * 0x9e3779b97f4a7c15ull + 1;

  if (args.trace) {
    const i64 n = args.smoke ? 300
                             : std::max<i64>(kMinSamples, static_cast<i64>(
                                   kNominalRps * 0.4 * args.seconds));
    legw::mem::reset_mem_peaks();
    const PhaseStats plain =
        run_phase(s, make_load(corpus, seed, kNominalRps, n), {});
    const PhaseStats st = run_phase(
        s, make_load(corpus, seed, kNominalRps, n), {.time_submit = true});
    account(plain, out);
    account(st, out);
    const auto batches =
        static_cast<double>(std::max<i64>(st.counters.batches, 1));
    const auto rows = static_cast<double>(st.counters.batch_rows);
    out.add("core.gemm_calls_per_step",
            static_cast<double>(st.gemm_calls) / batches, "count");
    out.add("core.lstm_cell_calls_per_step",
            static_cast<double>(st.lstm_calls) / batches, "count");
    out.add("mem.heap_peak_mb",
            static_cast<double>(legw::mem::mem_stats().heap_peak_bytes) / 1e6,
            "MB");
    out.add("ckpt.save_ms", median(save_ms), "ms");
    out.add("ckpt.bytes", s.ckpt_bytes, "bytes");
    out.add("ckpt.load_ms", median(load_ms), "ms");
    out.add("serve.deadline_batch_frac",
            static_cast<double>(st.counters.deadline_batches) / batches,
            "frac");
    out.add("serve.avg_batch_rows", rows / batches, "count");
    out.add("serve.pad_frac",
            static_cast<double>(st.counters.pad_rows) /
                std::max(rows + static_cast<double>(st.counters.pad_rows), 1.0),
            "frac");
    for (const i64 len : serve::BatchPolicy().bucket_lens) {
      out.add("serve.run_batch_ms.len" + std::to_string(len),
              run_batch_ms(*s.session, corpus, len,
                           seed + static_cast<u64>(len), out),
              "ms");
    }
    out.add("serve.submit_us_p99", percentile(st.submit_us, 99.0), "us");
    out.add("serve.ladder_max_rps", ladder_max_rps(args, s, corpus, seed, out),
            "1/s");
    out.add("loadgen.lag_ms_p99", percentile(st.lag_ms, 99.0), "ms");
    const double p50_plain = percentile(plain.latency_ms, 50.0);
    out.add("obs.trace_overhead_frac",
            p50_plain > 0.0 ? percentile(st.latency_ms, 50.0) / p50_plain - 1.0
                            : 0.0,
            "frac");
    return;
  }

  // Nominal rate: the latency distribution and the quality of what is
  // served. Percentiles are medians over consecutive blocks of requests, so
  // a burst of outside load moves one block rather than the result.
  const i64 block = args.smoke ? 100 : kMinSamples;
  const i64 blocks = std::max<i64>(
      3, static_cast<i64>(kNominalRps * 0.4 * args.seconds) / block);
  const PhaseStats nominal =
      run_phase(s, make_load(corpus, seed, kNominalRps, blocks * block),
                {.score = true});
  account(nominal, out);
  std::vector<double> block_p50;
  std::vector<double> block_tail;
  for (i64 b = 0; b < blocks; ++b) {
    const auto first = nominal.latency_ms.begin() + b * block;
    const std::vector<double> part(first, first + block);
    block_p50.push_back(percentile(part, 50.0));
    block_tail.push_back(percentile(part, 99.0));
  }
  // A trained model predicts the corpus better than a uniform guess; a
  // serve path returning constant or wrong logits does not.
  const double uniform_nll = std::log(static_cast<double>(s.w->corpus.vocab()));
  if (!(nominal.nll < uniform_nll)) {
    out.fail("served next-token loss " + std::to_string(nominal.nll) +
             " is not below ln(vocab) = " + std::to_string(uniform_nll));
  }
  // Peak memory at the operating point, before the overload bursts.
  out.add("peak_rss_mb", peak_rss_mb(), "MB");

  // Capacity: bursts at the fixed overload rate until the budget is spent.
  // A burst's capacity is the rate replies complete while requests are still
  // arriving, after the first tenth of the sending: the backlog then keeps
  // every worker busy. The replies to the backlog left when sending stops
  // are checked but not counted, because one worker may hold all of it.
  // Replies are weighted by their bucket length, which a batch's run time
  // is proportional to, and the rate is given in requests of the burst's
  // mean weight: a worker runs its claimed batches bucket by bucket, so
  // whether a run of 128-token batches ends inside the window or just after
  // it would otherwise swing a plain count by a fifth.
  const std::vector<i64> buckets = serve::BatchPolicy().bucket_lens;
  const auto bucket_of = [&](std::size_t len) {
    const auto it = std::lower_bound(buckets.begin(), buckets.end(),
                                     static_cast<i64>(len));
    return static_cast<double>(it == buckets.end() ? buckets.back() : *it);
  };
  std::vector<double> capacity_rps;
  const auto capacity_start = Clock::now();
  for (u64 burst = 0;
       capacity_rps.size() < 3 ||
       seconds_between(capacity_start, Clock::now()) < 0.4 * args.seconds;
       ++burst) {
    const i64 n = args.smoke ? 500 : kBurstRequests;
    Load load = make_load(corpus, seed + 1000 + burst, kOverloadRps, n);
    const i64 send_end = load.offset_ns.back();
    const i64 window_start = send_end / 10;
    std::vector<double> weight;
    double mean_weight = 0.0;
    for (const serve::Request& r : load.requests) {
      weight.push_back(bucket_of(r.tokens.size()));
      mean_weight += weight.back() / static_cast<double>(n);
    }
    const PhaseStats st = run_phase(s, std::move(load), {});
    account(st, out);
    double done = 0.0;  // requests of mean weight replied in the window
    for (std::size_t i = 0; i < st.done_ns.size(); ++i) {
      if (st.done_ns[i] > window_start && st.done_ns[i] <= send_end) {
        done += weight[i] / mean_weight;
      }
    }
    capacity_rps.push_back(done * 1e9 /
                           static_cast<double>(send_end - window_start));
    std::fprintf(stderr, "perfbench: overload burst %llu: %.0f requests/s "
                 "while sending, %.0f requests/s to the last reply\n",
                 static_cast<unsigned long long>(burst), capacity_rps.back(),
                 st.achieved_rps);
  }

  std::fprintf(stderr,
               "perfbench: nominal %.0f rps, %lld blocks of %lld requests; "
               "%zu overload bursts of %lld requests at %.0f rps\n",
               kNominalRps, static_cast<long long>(blocks),
               static_cast<long long>(block), capacity_rps.size(),
               static_cast<long long>(args.smoke ? 500 : kBurstRequests),
               kOverloadRps);
  out.add("samples_per_s", median(capacity_rps), "1/s");
  out.add("loss", nominal.nll, "nats");
  out.add("p50_ms", median(block_p50), "ms");
  out.add("tail_ms", median(block_tail), "ms");
  out.add("setup_s", median(setup_s), "s");
}

}  // namespace perfbench
