// Kernel performance baseline: times gemm_ref vs gemm_blocked over the GEMM
// shapes the real models hit (square sweeps, LSTM gate matmuls, GNMT
// attention, ResNet im2col) plus the fused LSTM cell, the LSTM layer node
// over a window and the conv2d op at the ResNet stage shapes, and emits
// BENCH_kernels.json so future PRs can track per-shape regressions.
// The output names the micro-kernel compiled into gemm_blocked ("avx512" or
// "scalar"), since the GFLOP/s mean little without it.
//
// Usage: perf_baseline [--out BENCH_kernels.json] [--reps N] [--min-ms M]
// See docs/KERNELS.md for how to read the output.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "ag/ops.hpp"
#include "bench_common.hpp"
#include "core/flags.hpp"
#include "core/io.hpp"
#include "core/tensor.hpp"
#include "core/thread_pool.hpp"
#include "nn/lstm.hpp"
#include "obs/trace.hpp"

namespace {

using namespace legw;
using core::Rng;
using core::Tensor;

struct GemmShape {
  const char* name;
  i64 m, n, k;
  bool trans_a, trans_b;
};

// Shapes mirror the models' hot GEMMs:
//  - lstm_gates_*: [B, I+H] x [I+H, 4H] gate matmul (mnist/PTB/GNMT cells)
//  - lstm_dw_*:    trans_a weight-gradient GEMM of the same cell
//  - attn_*:       GNMT Bahdanau attention score/context matmuls
//  - im2col_*:     ResNet 3x3 conv lowered to [Cout, C*9] x [C*9, OH*OW]
const GemmShape kShapes[] = {
    {"square_64", 64, 64, 64, false, false},
    {"square_128", 128, 128, 128, false, false},
    {"square_256", 256, 256, 256, false, false},
    {"square_512", 512, 512, 512, false, false},
    {"lstm_gates_b32_h128", 32, 512, 256, false, false},
    {"lstm_gates_b128_h256", 128, 1024, 512, false, false},
    {"lstm_gates_b512_h512", 512, 2048, 1024, false, false},
    {"lstm_dw_b128_h256", 512, 1024, 128, true, false},
    {"attn_scores_b64_t32_h256", 64, 32, 256, false, true},
    {"attn_context_b64_t32_h256", 64, 256, 32, false, false},
    {"im2col_c64_hw32", 64, 1024, 576, false, false},
    {"im2col_c128_hw16", 128, 256, 1152, false, false},
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs fn repeatedly until both `reps` iterations and `min_ms` of wall time
// have elapsed; returns mean seconds per iteration.
template <typename Fn>
double time_loop(Fn&& fn, int reps, double min_ms) {
  fn();  // warm-up (first call pays allocator/pool setup)
  int done = 0;
  const double t0 = now_seconds();
  double elapsed = 0.0;
  do {
    fn();
    ++done;
    elapsed = now_seconds() - t0;
  } while (done < reps || elapsed * 1e3 < min_ms);
  return elapsed / done;
}

double gemm_gflops(const GemmShape& s, core::GemmKernel kernel, int reps,
                   double min_ms) {
  Rng rng(42);
  const i64 a_rows = s.trans_a ? s.k : s.m;
  const i64 a_cols = s.trans_a ? s.m : s.k;
  const i64 b_rows = s.trans_b ? s.n : s.k;
  const i64 b_cols = s.trans_b ? s.k : s.n;
  Tensor a = Tensor::randn({a_rows, a_cols}, rng);
  Tensor b = Tensor::randn({b_rows, b_cols}, rng);
  Tensor c = Tensor::zeros({s.m, s.n});
  auto run = [&] {
    if (kernel == core::GemmKernel::kRef) {
      core::gemm_ref(s.trans_a, s.trans_b, s.m, s.n, s.k, 1.0f, a.data(),
                     a_cols, b.data(), b_cols, 0.0f, c.data(), s.n);
    } else {
      core::gemm_blocked(s.trans_a, s.trans_b, s.m, s.n, s.k, 1.0f, a.data(),
                         a_cols, b.data(), b_cols, 0.0f, c.data(), s.n);
    }
  };
  const double sec = time_loop(run, reps, min_ms);
  return 2.0 * s.m * s.n * s.k / sec / 1e9;
}

struct LstmResult {
  i64 batch, hidden;
  double fused_steps_per_s = 0.0;
  double composed_steps_per_s = 0.0;
};

LstmResult lstm_cell_rate(i64 batch, i64 hidden, int reps, double min_ms) {
  LstmResult res{batch, hidden, 0.0, 0.0};
  for (bool fused : {true, false}) {
    Rng rng(7);
    nn::LstmCellLayer layer(hidden, hidden, rng, 1.0f, fused);
    ag::Variable x =
        ag::Variable::constant(Tensor::randn({batch, hidden}, rng));
    auto run = [&] {
      layer.zero_grad();
      nn::LstmState s = layer.step(x, layer.zero_state(batch));
      ag::backward(ag::sum_all(s.h));
    };
    const double sec = time_loop(run, reps, min_ms);
    (fused ? res.fused_steps_per_s : res.composed_steps_per_s) = 1.0 / sec;
  }
  return res;
}

// One LSTM layer over a window of `steps` steps: milliseconds per window for
// the forward and for the backward of one T-step ag::lstm_layer node, and of
// the chain of T one-step nodes it replaced (the same bits; only W and W^T
// are packed once per window instead of once per step).
struct LayerResult {
  i64 batch, hidden, steps;
  double layer_fwd_ms = 0.0, layer_bwd_ms = 0.0;
  double chain_fwd_ms = 0.0, chain_bwd_ms = 0.0;
};

LayerResult lstm_layer_rate(i64 batch, i64 hidden, i64 steps, int reps,
                            double min_ms) {
  LayerResult res{batch, hidden, steps};
  Rng rng(7);
  nn::LstmCellLayer layer(hidden, hidden, rng);
  std::vector<ag::Variable> xs;
  for (i64 t = 0; t < steps; ++t)
    xs.push_back(ag::Variable::constant(Tensor::randn({batch, hidden}, rng)));
  const ag::Variable x = ag::concat_rows(xs);
  for (const bool chain : {false, true}) {
    const auto forward = [&] {
      const nn::LstmState s0 = layer.zero_state(batch);
      if (!chain) {
        return ag::sum_all(ag::slice_cols(
            ag::lstm_layer(x, s0.h, s0.c, layer.weight(), layer.bias()), 0,
            hidden));
      }
      nn::LstmState s = s0;
      std::vector<ag::Variable> hs;
      for (const ag::Variable& x_t : xs) {
        s = layer.step(x_t, s);
        hs.push_back(s.h);
      }
      return ag::sum_all(ag::concat_rows(hs));
    };
    double fwd = 0.0, bwd = 0.0;
    int done = -1;  // the first window warms up and is not counted
    while (done < std::max(reps, 1) || (fwd + bwd) * 1e3 < min_ms) {
      if (done == 0) fwd = bwd = 0.0;
      layer.zero_grad();
      const double t0 = now_seconds();
      const ag::Variable loss = forward();
      const double t1 = now_seconds();
      ag::backward(loss);
      fwd += t1 - t0;
      bwd += now_seconds() - t1;
      ++done;
    }
    (chain ? res.chain_fwd_ms : res.layer_fwd_ms) = fwd / done * 1e3;
    (chain ? res.chain_bwd_ms : res.layer_bwd_ms) = bwd / done * 1e3;
  }
  return res;
}

// One 3x3, stride 1, pad 1 conv2d (C in and out channels, H x W images) at
// batch B: milliseconds per batch for the op's forward and for its backward
// (dX, dW and the bias gradient). The input is a fresh leaf each batch, as
// an activation is in a training step, so the backward pays for x.grad.
struct ConvResult {
  i64 batch, channels, hw;
  double fwd_ms = 0.0, bwd_ms = 0.0;
};

ConvResult conv2d_rate(i64 batch, i64 channels, i64 hw, int reps,
                       double min_ms) {
  ConvResult res{batch, channels, hw};
  Rng rng(11);
  const Tensor x0 = Tensor::randn({batch, channels, hw, hw}, rng);
  const Tensor g = Tensor::randn({batch, channels, hw, hw}, rng);
  const ag::Variable w = ag::Variable::leaf(
      Tensor::randn({channels, channels, 3, 3}, rng, 0.1f), true);
  const ag::Variable b = ag::Variable::leaf(Tensor::zeros({channels}), true);
  double fwd = 0.0, bwd = 0.0;
  int done = -1;  // the first batch warms up and is not counted
  while (done < std::max(reps, 1) || (fwd + bwd) * 1e3 < min_ms) {
    if (done == 0) fwd = bwd = 0.0;
    const ag::Variable x = ag::Variable::leaf(x0, true);
    const double t0 = now_seconds();
    const ag::Variable y = ag::conv2d(x, w, b, 1, 1);
    const double t1 = now_seconds();
    ag::backward(y, &g);
    fwd += t1 - t0;
    bwd += now_seconds() - t1;
    ++done;
  }
  res.fwd_ms = fwd / done * 1e3;
  res.bwd_ms = bwd / done * 1e3;
  return res;
}

// Re-runs every shape a few times under tracing so the phase summary in the
// output JSON has per-kernel rows. Kept separate from the timed loops above:
// those run with tracing in its default (disabled) state so the reported
// GFLOP/s stay comparable against older baselines.
void traced_characterisation_pass(int reps) {
  for (const GemmShape& s : kShapes) {
    Rng rng(42);
    const i64 a_rows = s.trans_a ? s.k : s.m;
    const i64 a_cols = s.trans_a ? s.m : s.k;
    const i64 b_rows = s.trans_b ? s.n : s.k;
    const i64 b_cols = s.trans_b ? s.k : s.n;
    Tensor a = Tensor::randn({a_rows, a_cols}, rng);
    Tensor b = Tensor::randn({b_rows, b_cols}, rng);
    Tensor c = Tensor::zeros({s.m, s.n});
    for (int r = 0; r < reps; ++r) {
      {
        obs::Span span("gemm.ref");
        core::gemm_ref(s.trans_a, s.trans_b, s.m, s.n, s.k, 1.0f, a.data(),
                       a_cols, b.data(), b_cols, 0.0f, c.data(), s.n);
      }
      obs::Span span("gemm.blocked");
      core::gemm_blocked(s.trans_a, s.trans_b, s.m, s.n, s.k, 1.0f, a.data(),
                         a_cols, b.data(), b_cols, 0.0f, c.data(), s.n);
    }
  }
  for (const auto& [batch, hidden] :
       std::vector<std::pair<i64, i64>>{{32, 128}, {128, 128}, {128, 512}}) {
    for (bool fused : {true, false}) {
      Rng rng(7);
      nn::LstmCellLayer layer(hidden, hidden, rng, 1.0f, fused);
      ag::Variable x =
          ag::Variable::constant(Tensor::randn({batch, hidden}, rng));
      for (int r = 0; r < reps; ++r) {
        obs::Span span(fused ? "lstm_cell.fused" : "lstm_cell.composed");
        layer.zero_grad();
        nn::LstmState s = layer.step(x, layer.zero_state(batch));
        ag::backward(ag::sum_all(s.h));
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::ScopedTrace scoped_trace(argc, argv);
  core::Flags flags(argc, argv);
  const std::string out_path =
      flags.get_string("out", "BENCH_kernels.json");
  const int reps = static_cast<int>(flags.get_int("reps", 5));
  const double min_ms = flags.get_double("min-ms", 50.0);

  core::AtomicFile out(out_path);
  LEGW_CHECK(out.ok(), "perf_baseline: cannot open " + out_path);
  std::FILE* f = out.stream();

  const char* micro_kernel = core::gemm_micro_kernel();
  std::printf("micro_kernel %s\n", micro_kernel);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"micro_kernel\": \"%s\",\n", micro_kernel);
  std::fprintf(f, "  \"threads\": %d,\n", core::ThreadPool::global().size());
  std::fprintf(f, "  \"gemm\": [\n");
  const std::size_t n_shapes = sizeof(kShapes) / sizeof(kShapes[0]);
  for (std::size_t i = 0; i < n_shapes; ++i) {
    const GemmShape& s = kShapes[i];
    const double ref =
        gemm_gflops(s, core::GemmKernel::kRef, reps, min_ms);
    const double blocked =
        gemm_gflops(s, core::GemmKernel::kBlocked, reps, min_ms);
    std::printf("gemm %-28s m=%-4lld n=%-4lld k=%-4lld %sx%s  "
                "ref %7.2f GF/s  blocked %7.2f GF/s  speedup %.2fx\n",
                s.name, static_cast<long long>(s.m),
                static_cast<long long>(s.n), static_cast<long long>(s.k),
                s.trans_a ? "T" : "N", s.trans_b ? "T" : "N", ref, blocked,
                blocked / ref);
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"m\": %lld, \"n\": %lld, \"k\": %lld, "
        "\"trans_a\": %s, \"trans_b\": %s, \"ref_gflops\": %.3f, "
        "\"blocked_gflops\": %.3f, \"speedup\": %.3f}%s\n",
        s.name, static_cast<long long>(s.m), static_cast<long long>(s.n),
        static_cast<long long>(s.k), s.trans_a ? "true" : "false",
        s.trans_b ? "true" : "false", ref, blocked, blocked / ref,
        i + 1 < n_shapes ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  std::fprintf(f, "  \"lstm_cell\": [\n");
  const std::vector<std::pair<i64, i64>> lstm_shapes = {
      {32, 128}, {128, 128}, {128, 512}};
  for (std::size_t i = 0; i < lstm_shapes.size(); ++i) {
    const LstmResult r =
        lstm_cell_rate(lstm_shapes[i].first, lstm_shapes[i].second, reps,
                       min_ms);
    std::printf("lstm_cell b=%-4lld h=%-4lld  fused %9.1f step/s  "
                "composed %9.1f step/s  speedup %.2fx\n",
                static_cast<long long>(r.batch),
                static_cast<long long>(r.hidden), r.fused_steps_per_s,
                r.composed_steps_per_s,
                r.fused_steps_per_s / r.composed_steps_per_s);
    std::fprintf(f,
                 "    {\"batch\": %lld, \"hidden\": %lld, "
                 "\"fused_steps_per_s\": %.2f, \"composed_steps_per_s\": "
                 "%.2f, \"speedup\": %.3f}%s\n",
                 static_cast<long long>(r.batch),
                 static_cast<long long>(r.hidden), r.fused_steps_per_s,
                 r.composed_steps_per_s,
                 r.fused_steps_per_s / r.composed_steps_per_s,
                 i + 1 < lstm_shapes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  // LSTM layer windows at the PTB shape (ptb-b8-t1) and the mnist shape.
  std::fprintf(f, "  \"lstm_layer\": [\n");
  const std::vector<std::array<i64, 3>> layer_shapes = {{8, 48, 10},
                                                        {128, 32, 28}};
  for (std::size_t i = 0; i < layer_shapes.size(); ++i) {
    const auto [batch, hidden, steps] = layer_shapes[i];
    const LayerResult r = lstm_layer_rate(batch, hidden, steps, reps, min_ms);
    std::printf("lstm_layer b=%-4lld h=%-4lld t=%-3lld  layer fwd %.3f bwd "
                "%.3f ms  chain fwd %.3f bwd %.3f ms  speedup fwd %.2fx bwd "
                "%.2fx\n",
                static_cast<long long>(batch), static_cast<long long>(hidden),
                static_cast<long long>(steps), r.layer_fwd_ms, r.layer_bwd_ms,
                r.chain_fwd_ms, r.chain_bwd_ms, r.chain_fwd_ms / r.layer_fwd_ms,
                r.chain_bwd_ms / r.layer_bwd_ms);
    std::fprintf(f,
                 "    {\"batch\": %lld, \"hidden\": %lld, \"steps\": %lld, "
                 "\"layer_fwd_ms\": %.4f, \"layer_bwd_ms\": %.4f, "
                 "\"chain_fwd_ms\": %.4f, \"chain_bwd_ms\": %.4f, "
                 "\"fwd_speedup\": %.3f, \"bwd_speedup\": %.3f}%s\n",
                 static_cast<long long>(batch), static_cast<long long>(hidden),
                 static_cast<long long>(steps), r.layer_fwd_ms, r.layer_bwd_ms,
                 r.chain_fwd_ms, r.chain_bwd_ms,
                 r.chain_fwd_ms / r.layer_fwd_ms,
                 r.chain_bwd_ms / r.layer_bwd_ms,
                 i + 1 < layer_shapes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  // conv2d at the three stage shapes of resnet-b256-t4 (B=256, width 8,
  // 16x16 images): 8 channels at 16x16, 16 at 8x8, 32 at 4x4.
  std::fprintf(f, "  \"conv2d\": [\n");
  const std::vector<std::array<i64, 3>> conv_shapes = {
      {256, 8, 16}, {256, 16, 8}, {256, 32, 4}};
  for (std::size_t i = 0; i < conv_shapes.size(); ++i) {
    const auto [batch, channels, hw] = conv_shapes[i];
    const ConvResult r = conv2d_rate(batch, channels, hw, reps, min_ms);
    std::printf("conv2d b=%-4lld c=%-3lld hw=%-3lld k=3  fwd %.3f ms  bwd "
                "%.3f ms\n",
                static_cast<long long>(batch),
                static_cast<long long>(channels), static_cast<long long>(hw),
                r.fwd_ms, r.bwd_ms);
    std::fprintf(f,
                 "    {\"batch\": %lld, \"channels\": %lld, \"hw\": %lld, "
                 "\"kernel\": 3, \"fwd_ms\": %.4f, \"bwd_ms\": %.4f}%s\n",
                 static_cast<long long>(batch),
                 static_cast<long long>(channels), static_cast<long long>(hw),
                 r.fwd_ms, r.bwd_ms, i + 1 < conv_shapes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  // Phase summary: short traced re-run of every shape (see the helper's doc
  // comment — the timed numbers above are collected with tracing disabled).
  const bool was_enabled = obs::tracing_enabled();
  auto& rec = obs::TraceRecorder::global();
  obs::set_tracing_enabled(true);
  rec.clear();
  traced_characterisation_pass(3);
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
  LEGW_CHECK(publish.ok(), "perf_baseline: " + publish.message());
  if (!was_enabled) rec.clear();
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
