// Shared experiment configuration for the paper-reproduction benches.
//
// Every bench binary prints the rows of one paper table/figure. Scales are
// reduced from the paper's (TPU pods -> one CPU); the *scaling factors* k
// match the paper (see DESIGN.md §1). Set LEGW_BENCH_SCALE=2 (up to 64) to
// multiply dataset sizes and epochs for higher-fidelity runs.
#pragma once

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "core/flags.hpp"
#include "core/thread_pool.hpp"
#include "data/corpus.hpp"
#include "data/images.hpp"
#include "data/synthetic_mnist.hpp"
#include "data/translation.hpp"
#include "models/gnmt.hpp"
#include "models/mnist_lstm.hpp"
#include "models/ptb_model.hpp"
#include "models/resnet.hpp"
#include "obs/trace.hpp"
#include "sched/legw.hpp"
#include "train/runners.hpp"

namespace legw::bench {

// Scale for a LEGW_BENCH_SCALE value: nullptr (unset) gives 1. Otherwise the
// whole string must be an integer in [1, 64], else a LEGW_CHECK abort naming
// the variable. 64 keeps the largest synthetic dataset under about 1 GB.
inline int parse_bench_scale(const char* value) {
  if (value == nullptr) return 1;
  const std::string v(value);
  int s = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), s);
  LEGW_CHECK(ec == std::errc() && end == v.data() + v.size() && s >= 1 &&
                 s <= 64,
             "LEGW_BENCH_SCALE must be an integer in [1, 64], got '" + v +
                 "'");
  return s;
}

inline int bench_scale() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe, no setenv
  return parse_bench_scale(std::getenv("LEGW_BENCH_SCALE"));
}

// A count flag (reps, clients, replicas, layer sizes): an integer in
// [1, max], else a LEGW_CHECK abort naming the flag. A count below 1 would
// otherwise reach an empty timing vector, a NaN average or a huge size_t.
inline int count_flag(const core::Flags& flags, const std::string& name,
                      i64 def, i64 max = std::numeric_limits<int>::max()) {
  const i64 v = flags.get_int(name, def);
  LEGW_CHECK(v >= 1 && v <= max, "--" + name + " must be in [1, " +
                                     std::to_string(max) + "], got " +
                                     std::to_string(v));
  return static_cast<int>(v);
}

// ---- tracing ------------------------------------------------------------------
//
// Every bench binary constructs one of these first thing in main. Tracing
// turns on when a trace output path is given, via `--trace <path>` /
// `--trace=<path>` (argv is scanned directly so benches without a Flags
// parser honour it too) or the LEGW_TRACE environment variable. At exit the
// destructor prints the per-phase summary table (with thread-pool
// utilisation over the binary's wall time) and writes the
// chrome://tracing-compatible JSON to the path. With no path this is inert
// and the bench pays only the disabled-flag branches.
class ScopedTrace {
 public:
  ScopedTrace(int argc, char** argv)
      : start_(std::chrono::steady_clock::now()) {
    path_ = obs::trace_env_path();
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--trace=", 0) == 0) {
        path_ = arg.substr(8);
      } else if (arg == "--trace" && i + 1 < argc) {
        path_ = argv[i + 1];
      }
    }
    if (!path_.empty()) {
      obs::set_tracing_enabled(true);
      obs::TraceRecorder::global().clear();
      core::ThreadPool::global().reset_stats();
    }
  }

  ~ScopedTrace() {
    if (path_.empty()) return;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    auto& rec = obs::TraceRecorder::global();
    std::printf("\n%s", rec.summary_table(wall).c_str());
    std::string err;
    if (rec.write_chrome_trace(path_, &err)) {
      std::printf("trace written to %s (open via chrome://tracing)\n",
                  path_.c_str());
    } else {
      std::fprintf(stderr, "trace export failed: %s\n", err.c_str());
    }
  }

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  std::string path_;
  std::chrono::steady_clock::time_point start_;
};

// ---- canonical workloads -----------------------------------------------------

struct MnistWorkload {
  data::SyntheticMnist dataset;
  models::MnistLstmConfig model;
  // LEGW baseline tuned once at the smallest batch (paper §5.1.1: momentum
  // solver, constant LR). The warmup fraction w0/epochs matches the paper's
  // regime: even at the largest scale factor k the warmup ends well before
  // training does.
  sched::LegwBaseline legw_base{32, 0.1f, 0.1};
  i64 base_batch = 32;
  i64 epochs;

  MnistWorkload()
      : dataset(2048 * bench_scale(), 512, 42), epochs(10 * bench_scale()) {
    model.transform_dim = 32;
    model.hidden_dim = 32;
  }
};

struct PtbWorkload {
  data::SyntheticCorpus corpus;
  models::PtbConfig model;
  // PTB-small recipe: momentum + exponential epoch decay after a flat phase.
  sched::LegwBaseline legw_base{8, 0.5f, 0.2};
  i64 base_batch = 8;
  i64 epochs;
  double flat_epochs = 4.0;
  float decay_gamma = 0.6f;

  PtbWorkload()
      : corpus([] {
          data::CorpusConfig c;
          c.vocab = 200;
          c.n_states = 10;
          c.n_train_tokens = 36000 * bench_scale();
          c.n_valid_tokens = 3000;
          c.seed = 1;
          return c;
        }()),
        model(models::PtbConfig::small(200)),
        epochs(8 * bench_scale()) {
    model.embed_dim = 48;
    model.hidden_dim = 48;
    model.bptt_len = 10;
  }
};

struct GnmtWorkload {
  data::SyntheticTranslation dataset;
  models::GnmtConfig model;
  sched::LegwBaseline legw_base{16, 0.015f, 0.1};
  i64 base_batch = 16;
  i64 epochs;

  GnmtWorkload()
      : dataset([] {
          data::TranslationConfig c;
          c.src_vocab = 60;
          c.tgt_vocab = 60;
          c.min_len = 3;
          c.max_len = 7;
          c.n_train = 1024 * bench_scale();
          c.n_test = 128;
          c.seed = 7;
          return c;
        }()),
        epochs(40 * bench_scale()) {
    model.src_vocab = 60;
    model.tgt_vocab = 60;
    model.embed_dim = 16;
    model.hidden_dim = 16;
    model.num_layers = 2;  // paper: 4 at hidden 1024; scaled for CPU
  }
};

struct ResnetWorkload {
  data::SyntheticImages dataset;
  models::ResNetConfig model;
  // LARS baseline. The paper's base warmup is 0.3125 of 90 epochs (~0.35%);
  // we keep the same *fraction* of the (much shorter) epoch budget so that
  // at the largest scale factor the warmup still ends well before the run
  // does, exactly as in Table 3 (10 of 90 epochs at k=32).
  sched::LegwBaseline legw_base{32, 4.0f, 0.02};
  i64 base_batch = 32;
  i64 epochs;
  // Largest batch in the sweeps: k=16 over the baseline keeps >= 40
  // optimizer steps at the top end (the paper keeps ~3600 at 32K).
  std::vector<i64> batch_sweep{32, 64, 128, 256, 512};

  ResnetWorkload()
      : dataset(3072 * bench_scale(), 512, 42), epochs(5 * bench_scale()) {
    model.width = 8;
    model.blocks_per_stage = 1;
  }
};

// ---- output helpers -----------------------------------------------------------

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(reproduces %s; scaled workload, see DESIGN.md)\n\n",
              paper_ref.c_str());
}

inline void print_row_divider(int width = 72) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline const char* fmt_metric(double v, bool diverged, char* buf,
                              std::size_t n) {
  if (diverged) {
    std::snprintf(buf, n, "diverged");
  } else {
    std::snprintf(buf, n, "%.4f", v);
  }
  return buf;
}

}  // namespace legw::bench
