// Distributed-engine scaling bench: times one data-parallel gradient step
// per all-reduce algorithm (tree / ring / hier / the auto policy) across
// replica counts up to 32 over a simulated wire (latency + bandwidth sleeps,
// with a faster intra-group link for the hierarchical schedule); buckets
// reduce concurrently with the backward tail. Each row alternates the
// wire-modelled step with a free-wire step on the same replicas: that step
// is the compute-only floor, and its gradients must be bitwise identical to
// the wire-modelled ones ("parity" in the output, LEGW_CHECKed). Each row
// also reports the modelled wire time per step, from which it estimates a
// join-then-reduce step; the gap to the measured step is the wire time
// overlap hid. A second section re-runs the 8-replica auto row under the
// fp16 and int8 wire formats to show the compression effect on the
// simulated wire volume. Emits BENCH_dist.json.
//
// The workload is a deep Linear+ReLU stack rather than the LSTM models: BPTT
// accumulates every cell weight's gradient across all timesteps, so an
// LSTM's buckets all finalise at the very end of backward and there is
// nothing left to overlap — whereas a layer stack finalises layer k's
// gradients the moment backward passes layer k, exactly the stagger the
// overlapped schedule exploits (and what deep stacked-LSTM models get
// per-layer).
//
// Usage: dist_scaling [--out BENCH_dist.json] [--reps N] [--smoke]
//                     [--lat-us US] [--gbps GB] [--only N]
//   --reps N: timed steps per config (default 30); rows report the fastest.
//   --smoke: tiny shapes, 2/4/8 replicas, one rep — the ctest smoke target.
//   --lat-us/--gbps: fabric wire-model overrides (intra-group link derives
//   from them); --only N (1..32) restricts the sweep to one replica count.
//   Every count flag must be >= 1.
// See docs/DIST.md for how to read the output.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ag/ops.hpp"
#include "bench_common.hpp"
#include "core/flags.hpp"
#include "core/io.hpp"
#include "nn/layers.hpp"
#include "obs/trace.hpp"
#include "dist/algorithms.hpp"
#include "dist/overlap.hpp"

namespace {

using namespace legw;
using core::Rng;
using core::Tensor;

struct Shape {
  i64 layers = 16;  // deep: bucket completions spread across the backward
  i64 dim = 256;    // 256x256 weights: one ~256 KB bucket per layer
  i64 batch = 16;   // per replica
};

struct Replica {
  std::vector<std::unique_ptr<nn::Linear>> layers;
  std::vector<ag::Variable> params;
};

struct ReplicaSet {
  std::vector<Replica> replicas;
  std::vector<std::vector<ag::Variable>> params;
};

ReplicaSet make_replicas(int n, const Shape& shape) {
  ReplicaSet set;
  for (int r = 0; r < n; ++r) {
    Replica rep;
    Rng rng(42);  // identical initialisation on every replica
    for (i64 l = 0; l < shape.layers; ++l) {
      rep.layers.push_back(
          std::make_unique<nn::Linear>(shape.dim, shape.dim, rng));
      for (const ag::Variable& p : rep.layers.back()->parameters()) {
        rep.params.push_back(p);
      }
    }
    set.replicas.push_back(std::move(rep));
    set.params.push_back(set.replicas.back().params);
  }
  return set;
}

// Wire sized so the comm term is a large fraction of — but not larger
// than — the backward compute: a bigger bill cannot be hidden no matter
// how good the schedule is, and a much smaller one is invisible. The
// intra-group link is the faster "within one node" path the hierarchical
// schedule exploits. Overridable from the command line for tuning against a
// particular host.
struct WireParams {
  double latency_us = 100.0;
  double gbytes_per_sec = 1.0;
};

dist::OverlapConfig bench_config(core::DistAlgo algo,
                                 core::WireFormat wire_format,
                                 const WireParams& wp) {
  dist::OverlapConfig config;
  config.algo = algo;
  config.wire_format = wire_format;
  config.bucket_bytes = 8 * 1024;  // roughly one bucket per layer
  config.comm_threads = 2;         // exercise the multi-reducer path
  config.wire.latency_us = wp.latency_us;
  config.wire.gbytes_per_sec = wp.gbytes_per_sec;
  config.wire.intra_latency_us = wp.latency_us / 5.0;
  config.wire.intra_gbytes_per_sec = wp.gbytes_per_sec * 4.0;
  return config;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ModeResult {
  double step_ms = 0.0;  // fastest of the reps
  i64 buckets = 0;
  i64 wire_bytes = 0;
  double wire_ms = 0.0;  // modelled wire time the reducers slept per step
  dist::OverlapStats stats;
  std::vector<Tensor> grads;  // replica 0, for the parity check
};

// Times one step per config on the same replicas, the configs alternating
// within each rep so host drift hits every config alike. Nothing updates
// the weights, so every step recomputes the same gradients.
std::vector<ModeResult> run_modes(
    int n_replicas, const Shape& shape,
    const std::vector<dist::OverlapConfig>& configs, int reps) {
  ReplicaSet set = make_replicas(n_replicas, shape);
  // Per-replica input/target shards, distinct across replicas.
  std::vector<Tensor> inputs, targets;
  Rng data_rng(7);
  for (int r = 0; r < n_replicas; ++r) {
    inputs.push_back(Tensor::randn({shape.batch, shape.dim}, data_rng));
    targets.push_back(Tensor::randn({shape.batch, shape.dim}, data_rng));
  }
  auto loss_fn = [&](int r) {
    const Replica& rep = set.replicas[static_cast<std::size_t>(r)];
    ag::Variable h =
        ag::Variable::constant(inputs[static_cast<std::size_t>(r)]);
    for (i64 l = 0; l < shape.layers; ++l) {
      h = rep.layers[static_cast<std::size_t>(l)]->forward(h);
      if (l + 1 < shape.layers) h = ag::relu(h);
    }
    return ag::mean_all(ag::mul(
        h, ag::Variable::constant(targets[static_cast<std::size_t>(r)])));
  };
  const auto step = [&](const dist::OverlapConfig& config) {
    dist::OverlapResult res =
        dist::overlapped_backward(set.params, loss_fn, config);
    LEGW_CHECK(res.ok, "dist_scaling: " + res.error);
    return res.stats;
  };
  std::vector<ModeResult> results(configs.size());
  std::vector<std::vector<double>> times(configs.size());
  for (const dist::OverlapConfig& config : configs) (void)step(config);
  for (int i = 0; i < reps; ++i) {
    // Odd reps run the configs in reverse, so neither always goes first.
    for (std::size_t j = 0; j < configs.size(); ++j) {
      const std::size_t k = i % 2 == 0 ? j : configs.size() - 1 - j;
      const double t0 = now_seconds();
      results[k].stats = step(configs[k]);
      times[k].push_back((now_seconds() - t0) * 1e3);
      if (i + 1 == reps) {
        for (const ag::Variable& p : set.params[0]) {
          results[k].grads.push_back(p.grad());
        }
      }
    }
  }
  for (std::size_t k = 0; k < configs.size(); ++k) {
    ModeResult& res = results[k];
    // Host noise only ever adds time, so the fastest step is the cleanest
    // estimate of what the schedule itself costs.
    res.step_ms = *std::min_element(times[k].begin(), times[k].end());
    res.buckets = res.stats.n_buckets;
    res.wire_bytes = res.stats.wire_bytes;
    res.wire_ms = res.stats.wire_us / 1e3;
  }
  return results;
}

bool bitwise_equal(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    if (a[p].numel() != b[p].numel()) return false;
    for (i64 i = 0; i < a[p].numel(); ++i) {
      if (a[p][i] != b[p][i]) return false;
    }
  }
  return true;
}

// The algorithm most buckets resolved to — for auto rows this names the
// policy's pick at that scale.
const char* resolved_name(const dist::OverlapStats& stats) {
  if (stats.buckets_ring >= stats.buckets_tree &&
      stats.buckets_ring >= stats.buckets_hier) {
    if (stats.buckets_ring > 0) return "ring";
  }
  if (stats.buckets_hier >= stats.buckets_tree && stats.buckets_hier > 0) {
    return "hier";
  }
  return "tree";
}

}  // namespace

int main(int argc, char** argv) {
  bench::ScopedTrace scoped_trace(argc, argv);
  core::Flags flags(argc, argv);
  const std::string out_path = flags.get_string("out", "BENCH_dist.json");
  const bool smoke = flags.get_bool("smoke", false);
  const int reps = bench::count_flag(flags, "reps", smoke ? 1 : 30);
  WireParams wp;
  wp.latency_us = flags.get_double("lat-us", wp.latency_us);
  wp.gbytes_per_sec = flags.get_double("gbps", wp.gbytes_per_sec);

  Shape shape;
  std::vector<int> replica_counts = {1, 2, 4, 8, 16, 32};
  if (smoke) {
    shape.layers = 4;
    shape.dim = 64;
    shape.batch = 8;
    replica_counts = {2, 4, 8};
  }
  // Each replica is a thread: --only is capped at the sweep's largest count.
  if (flags.has("only")) {
    replica_counts = {bench::count_flag(flags, "only", 1, 32)};
  }
  shape.layers = bench::count_flag(flags, "layers", shape.layers);
  shape.dim = bench::count_flag(flags, "dim", shape.dim);
  shape.batch = bench::count_flag(flags, "batch", shape.batch);
  const std::vector<core::DistAlgo> algos = {
      core::DistAlgo::kAuto, core::DistAlgo::kTree, core::DistAlgo::kRing,
      core::DistAlgo::kHier};

  core::AtomicFile out(out_path);
  LEGW_CHECK(out.ok(), "dist_scaling: cannot open " + out_path);
  std::FILE* f = out.stream();
  std::fprintf(f, "{\n  \"layers\": %lld,\n  \"dim\": %lld,\n",
               static_cast<long long>(shape.layers),
               static_cast<long long>(shape.dim));
  std::fprintf(f, "  \"batch_per_replica\": %lld,\n",
               static_cast<long long>(shape.batch));
  const dist::OverlapConfig ref =
      bench_config(core::DistAlgo::kAuto, core::WireFormat::kFp32, wp);
  std::fprintf(f, "  \"bucket_bytes\": %lld,\n  \"comm_threads\": %d,\n",
               static_cast<long long>(ref.bucket_bytes), ref.comm_threads);
  std::fprintf(f,
               "  \"wire_latency_us\": %.1f,\n  \"wire_gbytes_per_sec\": "
               "%.3f,\n",
               wp.latency_us, wp.gbytes_per_sec);
  std::fprintf(f, "  \"smoke\": %s,\n  \"reps\": %d,\n",
               smoke ? "true" : "false", reps);
  std::fprintf(f, "  \"rows\": [\n");

  bool first_row = true;
  for (const int n : replica_counts) {
    for (const core::DistAlgo algo : algos) {
      const dist::OverlapConfig wired =
          bench_config(algo, core::WireFormat::kFp32, wp);
      dist::OverlapConfig free_wire = wired;
      free_wire.wire = dist::WireModel{};
      const std::vector<ModeResult> runs =
          run_modes(n, shape, {wired, free_wire}, reps);
      const ModeResult& wired_run = runs[0];
      const ModeResult& free_run = runs[1];
      const bool parity = bitwise_equal(free_run.grads, wired_run.grads);
      // Reducing only after a barrier would add the whole wire bill to the
      // free-wire step, split at best evenly over the comm threads.
      const double barrier_est_ms =
          free_run.step_ms + wired_run.wire_ms / wired.comm_threads;
      std::printf("replicas %2d  algo %-4s  step %8.2f ms  free-wire %8.2f ms  "
                  "wire %8.2f ms  barrier-est %8.2f ms  buckets %lld (%s)  "
                  "wire %lld B  parity %s\n",
                  n, core::dist_algo_name(algo), wired_run.step_ms,
                  free_run.step_ms, wired_run.wire_ms, barrier_est_ms,
                  static_cast<long long>(wired_run.buckets),
                  resolved_name(wired_run.stats),
                  static_cast<long long>(wired_run.wire_bytes),
                  parity ? "yes" : "NO");
      LEGW_CHECK(parity, "dist_scaling: wire-modelled gradients differ from "
                         "the free-wire run");
      std::fprintf(f,
                   "%s    {\"replicas\": %d, \"algo\": \"%s\", "
                   "\"resolved\": \"%s\", \"step_ms\": %.3f, "
                   "\"free_wire_step_ms\": %.3f, \"wire_ms\": %.3f, "
                   "\"barrier_est_ms\": %.3f, "
                   "\"buckets\": %lld, \"wire_bytes\": %lld, \"parity\": %s}",
                   first_row ? "" : ",\n", n, core::dist_algo_name(algo),
                   resolved_name(wired_run.stats), wired_run.step_ms,
                   free_run.step_ms, wired_run.wire_ms, barrier_est_ms,
                   static_cast<long long>(wired_run.buckets),
                   static_cast<long long>(wired_run.wire_bytes),
                   parity ? "true" : "false");
      first_row = false;
    }
  }
  std::fprintf(f, "\n  ],\n");

  // Wire-format section: the 8-replica auto row under each wire format. The
  // interesting number is the simulated wire volume — fp16 halves it, int8
  // quarters it (plus one scale word per hop) — while parity degrades from
  // bitwise to approximate by design (error feedback recovers the loss in
  // training; see tests/test_dist_wire.cpp).
  const int wire_n = smoke ? 4 : 8;
  std::fprintf(f, "  \"wire_formats\": [\n");
  const std::vector<core::WireFormat> formats = {
      core::WireFormat::kFp32, core::WireFormat::kFp16,
      core::WireFormat::kInt8};
  for (std::size_t i = 0; i < formats.size(); ++i) {
    const ModeResult r =
        run_modes(wire_n, shape,
                  {bench_config(core::DistAlgo::kAuto, formats[i], wp)},
                  reps)[0];
    std::printf("wire %-4s  replicas %d  step %8.2f ms  wire %lld B\n",
                core::wire_format_name(formats[i]), wire_n, r.step_ms,
                static_cast<long long>(r.wire_bytes));
    std::fprintf(f,
                 "    {\"format\": \"%s\", \"replicas\": %d, "
                 "\"step_ms\": %.3f, \"wire_bytes\": %lld}%s\n",
                 core::wire_format_name(formats[i]), wire_n, r.step_ms,
                 static_cast<long long>(r.wire_bytes),
                 i + 1 < formats.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  // Traced pass: one overlapped step under tracing so the JSON carries the
  // per-bucket spans (bucket_reduce and its per-algorithm children,
  // overlap_idle, replica_backward) and engine counters.
  const bool was_enabled = obs::tracing_enabled();
  auto& rec = obs::TraceRecorder::global();
  obs::set_tracing_enabled(true);
  rec.clear();
  (void)run_modes(smoke ? 4 : 8, shape, {ref}, 1);
  obs::set_tracing_enabled(was_enabled);

  const auto phases = rec.phase_summary();
  std::fprintf(f, "  \"phases\": {\n");
  std::size_t pi = 0;
  for (const auto& [name, st] : phases) {
    std::fprintf(f,
                 "    \"%s\": {\"count\": %lld, \"total_ms\": %.4f, "
                 "\"mean_ms\": %.5f, \"p50_ms\": %.5f, \"p95_ms\": %.5f}%s\n",
                 name.c_str(), static_cast<long long>(st.count), st.total_ms,
                 st.mean_ms, st.p50_ms, st.p95_ms,
                 ++pi < phases.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  const auto ctrs = rec.counters();
  std::fprintf(f, "  \"counters\": {\n");
  std::size_t ci = 0;
  for (const auto& [name, v] : ctrs) {
    std::fprintf(f, "    \"%s\": %lld%s\n", name.c_str(),
                 static_cast<long long>(v), ++ci < ctrs.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  const legw::core::Status publish = out.commit();
  LEGW_CHECK(publish.ok(), "dist_scaling: " + publish.message());
  if (!was_enabled) rec.clear();
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
