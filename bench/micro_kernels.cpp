// Substrate micro-benchmarks (google-benchmark): GEMM, fused vs composed
// LSTM cell (the DESIGN.md ablation), conv2d, all-reduce, and the
// end-to-end per-step cost of each model.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hpp"

#include "ag/ops.hpp"
#include "core/flags.hpp"
#include "data/translation.hpp"
#include "dist/algorithms.hpp"
#include "models/gnmt.hpp"
#include "models/mnist_lstm.hpp"
#include "nn/lstm.hpp"

namespace {

using namespace legw;
using core::Rng;
using core::Tensor;

void BM_Gemm(benchmark::State& state) {
  // Production dispatch path (honours LEGW_KERNEL; default blocked).
  const i64 n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = core::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Pinned-kernel square GEMM: the ref/blocked A/B that BENCH_kernels.json
// tracks, runnable standalone from the google-benchmark harness.
void BM_GemmKernel(benchmark::State& state, core::GemmKernel kernel) {
  const i64 n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c = Tensor::zeros({n, n});
  for (auto _ : state) {
    if (kernel == core::GemmKernel::kRef) {
      core::gemm_ref(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                     0.0f, c.data(), n);
    } else {
      core::gemm_blocked(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                         0.0f, c.data(), n);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
void BM_GemmRef(benchmark::State& state) {
  BM_GemmKernel(state, core::GemmKernel::kRef);
}
void BM_GemmBlocked(benchmark::State& state) {
  BM_GemmKernel(state, core::GemmKernel::kBlocked);
}
BENCHMARK(BM_GemmRef)->Arg(256)->Arg(512);
BENCHMARK(BM_GemmBlocked)->Arg(256)->Arg(512);

// Model-shaped GEMM sweeps: {m, n, k} via the dispatch path.
//  - LSTM gate matmul [B, I+H] x [I+H, 4H]
//  - GNMT attention scores [B, H] x [H, T] (B rows against T keys)
//  - ResNet im2col [Cout, C*9] x [C*9, OH*OW]
void BM_GemmShape(benchmark::State& state) {
  const i64 m = state.range(0), n = state.range(1), k = state.range(2);
  Rng rng(1);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  for (auto _ : state) {
    Tensor c = core::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_GemmShape)
    ->Args({32, 512, 256})     // lstm gates, B=32 H=128
    ->Args({128, 1024, 512})   // lstm gates, B=128 H=256
    ->Args({512, 2048, 1024})  // lstm gates, B=512 H=512
    ->Args({64, 32, 256})      // gnmt attention scores, T=32
    ->Args({64, 1024, 576})    // resnet im2col, C=64 32x32
    ->Args({128, 256, 1152});  // resnet im2col, C=128 16x16

void BM_LstmCellFused(benchmark::State& state) {
  const i64 batch = state.range(0), hidden = 128;
  Rng rng(2);
  ag::Variable x = ag::Variable::constant(Tensor::randn({batch, hidden}, rng));
  ag::Variable h = ag::Variable::constant(Tensor::randn({batch, hidden}, rng));
  ag::Variable c = ag::Variable::constant(Tensor::randn({batch, hidden}, rng));
  ag::Variable w =
      ag::Variable::leaf(Tensor::randn({2 * hidden, 4 * hidden}, rng, 0.1f), true);
  ag::Variable b = ag::Variable::leaf(Tensor::zeros({4 * hidden}), true);
  for (auto _ : state) {
    w.zero_grad();
    b.zero_grad();
    ag::Variable out = ag::lstm_layer(x, h, c, w, b);
    // Loss over h only, mirroring the composed benchmark below.
    ag::backward(ag::sum_all(ag::slice_cols(out, 0, hidden)));
    benchmark::DoNotOptimize(w.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmCellFused)->Arg(32)->Arg(128);

void BM_LstmCellComposed(benchmark::State& state) {
  // The op-by-op reference path: quantifies what fusing the cell buys.
  const i64 batch = state.range(0), hidden = 128;
  Rng rng_f(3);
  nn::LstmCellLayer layer(hidden, hidden, rng_f, 1.0f, /*use_fused=*/false);
  ag::Variable x = ag::Variable::constant(Tensor::randn({batch, hidden}, rng_f));
  for (auto _ : state) {
    layer.zero_grad();
    nn::LstmState s = layer.step(x, layer.zero_state(batch));
    ag::backward(ag::sum_all(s.h));
    benchmark::DoNotOptimize(layer.weight().grad().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmCellComposed)->Arg(32)->Arg(128);

void BM_Conv2d(benchmark::State& state) {
  const i64 batch = state.range(0);
  Rng rng(4);
  ag::Variable x =
      ag::Variable::constant(Tensor::randn({batch, 16, 16, 16}, rng));
  ag::Variable w = ag::Variable::leaf(Tensor::randn({16, 16, 3, 3}, rng, 0.1f),
                                      true);
  for (auto _ : state) {
    w.zero_grad();
    ag::Variable y = ag::conv2d(x, w, ag::Variable(), 1, 1);
    ag::backward(ag::sum_all(y));
    benchmark::DoNotOptimize(w.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Conv2d)->Arg(8)->Arg(32);

void BM_TreeAllreduce(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<Tensor> storage;
  for (int i = 0; i < workers; ++i) {
    storage.push_back(Tensor::randn({1 << 16}, rng));
  }
  for (auto _ : state) {
    std::vector<Tensor*> shards;
    for (auto& t : storage) shards.push_back(&t);
    dist::tree_allreduce_mean(shards);
    benchmark::DoNotOptimize(storage[0].data());
  }
  state.SetBytesProcessed(state.iterations() * workers * (1 << 16) *
                          static_cast<i64>(sizeof(float)));
}
BENCHMARK(BM_TreeAllreduce)->Arg(2)->Arg(8)->Arg(16);

void BM_MnistLstmStep(benchmark::State& state) {
  const i64 batch = state.range(0);
  models::MnistLstmConfig cfg;
  cfg.transform_dim = 64;
  cfg.hidden_dim = 64;
  models::MnistLstm model(cfg);
  Rng rng(6);
  Tensor images = Tensor::rand_uniform({batch, 784}, rng);
  std::vector<i32> labels(static_cast<std::size_t>(batch));
  for (i64 i = 0; i < batch; ++i)
    labels[static_cast<std::size_t>(i)] = static_cast<i32>(i % 10);
  for (auto _ : state) {
    model.zero_grad();
    ag::Variable loss = model.loss(images, labels);
    ag::backward(loss);
    benchmark::DoNotOptimize(loss.value()[0]);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MnistLstmStep)->Arg(32)->Arg(256);

void BM_GnmtStep(benchmark::State& state) {
  const i64 batch = state.range(0);
  data::TranslationConfig tcfg;
  tcfg.n_train = 512;
  tcfg.src_vocab = 60;
  tcfg.tgt_vocab = 60;
  data::SyntheticTranslation dataset(tcfg);
  models::GnmtConfig cfg;
  cfg.src_vocab = 60;
  cfg.tgt_vocab = 60;
  cfg.embed_dim = 16;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  models::Gnmt model(cfg);
  std::vector<i64> idx;
  for (i64 i = 0; i < batch; ++i) idx.push_back(i);
  auto b = data::make_translation_batch(dataset.train(), idx);
  Rng drng(7);
  for (auto _ : state) {
    model.zero_grad();
    ag::Variable loss = model.loss(b, drng);
    ag::backward(loss);
    benchmark::DoNotOptimize(loss.value()[0]);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_GnmtStep)->Arg(16)->Arg(64);

void BM_GnmtBeamDecode(benchmark::State& state) {
  const i64 beam = state.range(0);
  data::TranslationConfig tcfg;
  tcfg.n_train = 64;
  tcfg.src_vocab = 60;
  tcfg.tgt_vocab = 60;
  data::SyntheticTranslation dataset(tcfg);
  models::GnmtConfig cfg;
  cfg.src_vocab = 60;
  cfg.tgt_vocab = 60;
  cfg.embed_dim = 16;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  models::Gnmt model(cfg);
  model.set_training(false);
  auto b = data::make_translation_batch(dataset.train(), {0, 1, 2, 3});
  for (auto _ : state) {
    auto hyps = model.beam_decode(b, beam, 10);
    benchmark::DoNotOptimize(hyps.data());
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_GnmtBeamDecode)->Arg(1)->Arg(4);

}  // namespace

// Hand-rolled main instead of BENCHMARK_MAIN(): every bench binary must
// accept --trace (ScopedTrace), and google-benchmark rejects flags it does
// not know, so the trace flag is stripped from argv before Initialize.
int main(int argc, char** argv) {
  legw::bench::ScopedTrace trace(argc, argv);
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--trace=", 0) == 0) continue;
    if (a == "--trace") {
      if (i + 1 < argc) ++i;  // skip the path operand too
      continue;
    }
    args.push_back(argv[i]);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
