// Training workloads: resnet-b256-t4, ptb-b8-t1 and mnist-dp4-b512.
//
// End-to-end runs time the public runners (train::train_resnet/_ptb/_mnist)
// with tracing off. Per-step latency comes from the LR schedule the runner is
// handed: every runner asks its schedule for the step's LR exactly once, at
// the top of each optimizer step, so the benchmark timestamps those calls and
// reads step boundaries of the runner's own loop without instrumenting it.
//
// Traced runs replay the runner's step loop from its public calls, in the
// runner's order, with the benchmark's own spans around each layer. The
// replay must reproduce the runner's per-step train_loss series bitwise.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "check/check.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/counters.hpp"
#include "core/flags.hpp"
#include "core/thread_pool.hpp"
#include "dist/algorithms.hpp"
#include "dist/compression.hpp"
#include "dist/overlap.hpp"
#include "mem/alloc.hpp"
#include "optim/optimizer.hpp"
#include "train/recorder.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace ag = legw::ag;
namespace bench = legw::bench;
namespace core = legw::core;
namespace data = legw::data;
namespace dist = legw::dist;
namespace mem = legw::mem;
namespace models = legw::models;
namespace optim = legw::optim;
namespace sched = legw::sched;
namespace train = legw::train;
using legw::i32;

// Stamps every LR lookup; see the file comment.
class StepClock final : public sched::LrSchedule {
 public:
  explicit StepClock(const sched::LrSchedule& inner) : inner_(inner) {}
  float lr(double epoch) const override {
    stamps_.push_back(steady_ns());
    return inner_.lr(epoch);
  }
  std::string describe() const override { return inner_.describe(); }
  // Durations between consecutive step starts, steady state only: the
  // first step allocates optimizer state and is left out, and the last
  // step's end is not observable from outside (the runner evaluates right
  // after it), so a run of n steps yields n-2 durations.
  std::vector<double> step_ms() const {
    std::vector<double> out;
    for (std::size_t i = 2; i < stamps_.size(); ++i) {
      out.push_back(static_cast<double>(stamps_[i] - stamps_[i - 1]) / 1e6);
    }
    return out;
  }

 private:
  const sched::LrSchedule& inner_;
  mutable std::vector<i64> stamps_;
};

// One training workload: how to build its inputs, the fixed run, and the
// traced replay of the runner's loop.
struct TrainTask {
  i64 samples_per_step = 0;  // global batch (PTB: bptt windows)
  i64 steps = 0;             // optimizer steps in one fixed run
  i64 loss_seeds = 1;        // training seeds the loss is averaged over
  train::RunConfig run;      // schedule is filled per run
  const sched::LrSchedule* schedule = nullptr;
  std::function<train::RunResult(const train::RunConfig&)> train;
};

// Replay state shared by the traced loops.
struct Trace {
  SpanTable spans;
  std::vector<double> losses;  // per-step train_loss, the runner's order
  i64 steps = 0;
  double ckpt_save_ms = 0.0;
  i64 ckpt_saves = 0;
  double ckpt_bytes = 0.0;
  // Data-parallel only.
  std::vector<double> shard_fwd_max_ms;
  std::vector<double> shard_fwd_skew_ms;
  std::vector<double> shard_fwd_mean_ms;
  double reduce_ms = 0.0;
  double wire_bytes = 0.0;
  i64 probe_heap_allocs = 0;  // allocations made by the reduce probe
};

void time_setup(const Args& args, Result& out,
                const std::function<void()>& build) {
  out.add("setup_s", median(repeat_setup(args, build)), "s");
}

// One fixed run through the public runner, with its step times and
// per-step train_loss series.
struct RunnerRun {
  train::RunResult result;
  double wall_s = 0.0;
  std::vector<double> step_ms;
  std::vector<double> losses;  // recorder series
};

RunnerRun run_runner(const TrainTask& task) {
  RunnerRun rr;
  StepClock clock(*task.schedule);
  train::Recorder recorder;
  train::RunConfig run = task.run;
  run.schedule = &clock;
  run.recorder = &recorder;
  const auto t0 = Clock::now();
  rr.result = task.train(run);
  rr.wall_s = seconds_between(t0, Clock::now());
  rr.step_ms = clock.step_ms();
  if (const auto* series = recorder.find_series("train_loss")) {
    for (const auto& p : *series) rr.losses.push_back(p.value);
  }
  return rr;
}

bool check_run(const TrainTask& task, const RunnerRun& rr, Result& out) {
  if (rr.result.diverged || train::loss_diverged(rr.result.final_train_loss)) {
    out.fail("training diverged");
    return false;
  }
  if (rr.result.steps != task.steps) {
    out.fail("runner made " + std::to_string(rr.result.steps) +
             " steps, expected " + std::to_string(task.steps));
    return false;
  }
  return true;
}

// Training seed j of a run: the workload seed picks a family of training
// seeds (model init and data order), so a claim can be re-checked on fresh
// ones.
u64 training_seed(const Args& args, i64 j) {
  return args.seed * 1000 + static_cast<u64>(j);
}

// End-to-end: repeat the fixed run until the time budget is spent, cycling
// through task.loss_seeds training seeds and at least once more, so one
// seed is repeated and its bitwise reproducibility checked. The first run
// pays the process's one-off costs (page faults, allocator growth) and is
// not timed. Timings are medians over the other runs; `loss` is the mean
// train loss over the fixed run, averaged over the training seeds (one
// seed's trajectory is too noisy to compare two versions by). The tail is
// each run's p90 step time, median over the runs: slow steps on a shared
// host come in bursts of about a second, which a pooled percentile would
// report instead of the program's own tail.
void measure_end_to_end(const Args& args, const TrainTask& task,
                        Result& out) {
  std::vector<double> samples_per_s;
  std::vector<double> step_ms;
  std::vector<double> run_tail_ms;
  std::map<u64, double> final_loss;  // training seed -> final_train_loss
  std::map<u64, double> run_loss;    // training seed -> mean train loss
  Clock::time_point deadline;
  for (i64 r = 0; r <= task.loss_seeds || Clock::now() < deadline; ++r) {
    TrainTask t = task;
    t.run.seed = training_seed(args, r % task.loss_seeds);
    const RunnerRun rr = run_runner(t);
    ++out.attempted;
    if (r == 0) {
      deadline = Clock::now() +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(args.seconds));
    }
    if (!check_run(t, rr, out)) continue;
    const auto [it, fresh] =
        final_loss.emplace(t.run.seed, rr.result.final_train_loss);
    if (!fresh && it->second != rr.result.final_train_loss) {
      out.fail("final_train_loss differs between repeats of one seed");
    }
    double mean = 0.0;
    for (double l : rr.losses) mean += l;
    run_loss[t.run.seed] =
        mean / static_cast<double>(std::max<std::size_t>(rr.losses.size(), 1));
    if (r == 0) continue;
    samples_per_s.push_back(static_cast<double>(t.steps * t.samples_per_step) /
                            rr.wall_s);
    step_ms.insert(step_ms.end(), rr.step_ms.begin(), rr.step_ms.end());
    run_tail_ms.push_back(percentile(rr.step_ms, 90.0));
    std::fprintf(stderr, "perfbench: run %lld (seed %llu): %.1f samples/s\n",
                 static_cast<long long>(r),
                 static_cast<unsigned long long>(t.run.seed),
                 samples_per_s.back());
  }
  double loss = 0.0;
  for (const auto& [seed, l] : run_loss) loss += l;
  loss /= static_cast<double>(std::max<std::size_t>(run_loss.size(), 1));
  std::fprintf(stderr, "perfbench: %lld runs x %lld steps, %zu step samples\n",
               static_cast<long long>(out.attempted),
               static_cast<long long>(task.steps), step_ms.size());
  out.add("samples_per_s", median(samples_per_s), "1/s");
  out.add("loss", loss, "nats");
  out.add("p50_ms", percentile(step_ms, 50.0), "ms");
  out.add("tail_ms", median(run_tail_ms), "ms");
}

// Counter snapshot around a traced loop.
struct Counters {
  core::ThreadPool::Stats pool;
  i64 gemm = 0;
  i64 lstm = 0;
  i64 heap_allocs = 0;

  static Counters take() {
    Counters c;
    c.pool = core::ThreadPool::global().stats();
    c.gemm = core::dispatch_count(core::DispatchCounter::kGemmRef) +
             core::dispatch_count(core::DispatchCounter::kGemmBlocked);
    c.lstm = core::dispatch_count(core::DispatchCounter::kLstmCellForward) +
             core::dispatch_count(core::DispatchCounter::kLstmCellBackward);
    c.heap_allocs = mem::mem_stats().heap_allocs;
    return c;
  }
};

void reset_counters() {
  core::ThreadPool::global().reset_stats();
  core::reset_dispatch_counters();
  mem::reset_mem_peaks();
}

// Traced run: the runner (reference series and untraced step times), then
// the replay, the bitwise loss check, and the per-layer table.
void measure_traced(const TrainTask& task,
                    const std::function<void(Trace&)>& replay, Result& out) {
  // The first run of a process pays one-off costs (page faults, allocator
  // growth); the second is the untraced reference.
  const RunnerRun warm = run_runner(task);
  const RunnerRun ref = run_runner(task);
  out.attempted += 2;
  if (!check_run(task, warm, out) || !check_run(task, ref, out)) return;
  if (warm.losses != ref.losses) {
    out.fail("train_loss series differs between repeats of one seed");
  }

  Trace tr;
  reset_counters();
  const Counters before = Counters::take();
  replay(tr);
  const Counters after = Counters::take();
  ++out.attempted;

  if (tr.losses.size() != ref.losses.size()) {
    out.fail("traced loop made " + std::to_string(tr.losses.size()) +
             " steps, runner recorded " + std::to_string(ref.losses.size()));
  } else {
    for (std::size_t i = 0; i < tr.losses.size(); ++i) {
      if (tr.losses[i] != ref.losses[i]) {
        out.fail("traced train_loss differs from the runner at step " +
                 std::to_string(i));
        break;
      }
    }
  }
  const double coverage = tr.spans.coverage("step");
  if (coverage < 0.9) {
    out.fail("layer self times cover only " + std::to_string(coverage) +
             " of the traced step time");
  }

  const double steps = static_cast<double>(std::max<i64>(tr.steps, 1));
  const double step_wall_ms = tr.spans.total_ms("step");
  out.add("data.ms_per_step", tr.spans.self_ms("data") / steps, "ms");
  out.add("fwd.ms_per_step",
          tr.shard_fwd_mean_ms.empty() ? tr.spans.self_ms("fwd") / steps
                                       : median(tr.shard_fwd_mean_ms),
          "ms");
  out.add("bwd.ms_per_step", tr.spans.self_ms("bwd") / steps, "ms");
  out.add("optim.ms_per_step", tr.spans.self_ms("optim") / steps, "ms");

  const core::ThreadPool& pool = core::ThreadPool::global();
  i64 busy_ns = after.pool.inline_busy_ns - before.pool.inline_busy_ns;
  for (std::size_t i = 0; i < after.pool.worker_busy_ns.size(); ++i) {
    busy_ns += after.pool.worker_busy_ns[i] - before.pool.worker_busy_ns[i];
  }
  out.add("core.pool_busy_frac",
          static_cast<double>(busy_ns) / 1e6 /
              (step_wall_ms * static_cast<double>(pool.size())),
          "frac");
  out.add("core.pool_submissions_per_step",
          static_cast<double>(after.pool.submissions -
                              before.pool.submissions) /
              steps,
          "count");
  out.add("core.gemm_calls_per_step",
          static_cast<double>(after.gemm - before.gemm) / steps, "count");
  out.add("core.lstm_cell_calls_per_step",
          static_cast<double>(after.lstm - before.lstm) / steps, "count");
  out.add("mem.heap_allocs_per_step",
          static_cast<double>(after.heap_allocs - before.heap_allocs -
                              tr.probe_heap_allocs) /
              steps,
          "count");
  out.add("mem.heap_peak_mb",
          static_cast<double>(mem::mem_stats().heap_peak_bytes) / 1e6, "MB");

  if (!tr.shard_fwd_max_ms.empty()) {
    out.add("dist.backward_ms_per_step", tr.spans.self_ms("dist") / steps,
            "ms");
    out.add("dist.shard_fwd_ms_max", median(tr.shard_fwd_max_ms), "ms");
    out.add("dist.shard_fwd_skew_ms", median(tr.shard_fwd_skew_ms), "ms");
    out.add("dist.reduce_ms_per_step", tr.reduce_ms / steps, "ms");
    out.add("dist.wire_bytes_per_step", tr.wire_bytes / steps, "bytes");
  }
  if (tr.ckpt_saves > 0) {
    out.add("ckpt.save_ms",
            tr.ckpt_save_ms / static_cast<double>(tr.ckpt_saves), "ms");
    out.add("ckpt.bytes", tr.ckpt_bytes, "bytes");
  }
  // Mean step time of the traced replay over the runner's own loop.
  double untraced_ms = 0.0;
  for (double ms : ref.step_ms) untraced_ms += ms;
  untraced_ms /=
      static_cast<double>(std::max<std::size_t>(ref.step_ms.size(), 1));
  out.add("obs.trace_overhead_frac",
          untraced_ms > 0.0 ? (step_wall_ms / steps) / untraced_ms - 1.0 : 0.0,
          "frac");
  out.add("obs.layer_coverage", coverage, "frac");
}

// ---- the step replays -------------------------------------------------------
//
// Each mirrors the runner in src/train/runners.cpp for a guard-less run with
// no crash plan: StepLoop::begin_step (schedule LR, set_lr,
// check::set_step_index), the step body, finish_step (divergence check,
// clip, optimizer step) and CkptHook::after_step.

// The "optim" span opens every step: LR lookup and set_lr.
void begin_step(Trace& tr, const sched::LrSchedule& schedule,
                const std::vector<optim::Optimizer*>& opts, i64 step,
                i64 steps_per_epoch) {
  SpanTable::Scope s(tr.spans, "optim");
  const float lr = schedule.lr(static_cast<double>(step) /
                               static_cast<double>(steps_per_epoch));
  for (optim::Optimizer* opt : opts) opt->set_lr(lr);
  legw::check::set_step_index(step);
}

// Returns false when the run diverged (the runner stops there too).
bool finish_step(Trace& tr, const train::RunConfig& run,
                 const std::vector<optim::Optimizer*>& opts,
                 double loss_value) {
  tr.losses.push_back(loss_value);
  if (train::loss_diverged(loss_value)) return false;
  SpanTable::Scope s(tr.spans, "optim");
  if (run.clip_norm > 0.0f) {
    for (optim::Optimizer* opt : opts) {
      optim::clip_grad_norm(opt->params(), run.clip_norm);
    }
  }
  for (optim::Optimizer* opt : opts) opt->step();
  ++tr.steps;
  return true;
}

constexpr i64 kReplicas = 4;  // mnist-dp4-b512: one per core

}  // namespace

// ---- resnet-b256-t4 ---------------------------------------------------------

void run_resnet(const Args& args, Result& out) {
  const i64 batch = args.smoke ? 32 : 256;  // k = 8 over the base batch 32
  constexpr i64 epochs = 1;
  std::unique_ptr<bench::ResnetWorkload> wp;
  std::unique_ptr<sched::LrSchedule> schedule;
  time_setup(args, out, [&] {
    wp = std::make_unique<bench::ResnetWorkload>();
    if (args.smoke) wp->dataset = data::SyntheticImages(128, 64, 42);
    schedule = sched::legw_schedule(wp->legw_base, batch, [&](float peak) {
      return std::make_shared<sched::PolynomialLr>(
          peak, static_cast<double>(epochs), 2.0f);
    });
  });
  const bench::ResnetWorkload& w = *wp;

  TrainTask task;
  task.run.batch_size = batch;
  task.run.epochs = epochs;
  task.run.optimizer = "lars";
  task.run.weight_decay = 1e-4f;
  task.run.seed = training_seed(args, 0);
  task.run.final_eval_only = true;
  task.schedule = schedule.get();
  task.loss_seeds = 8;
  task.samples_per_step = batch;
  task.steps = epochs * (w.dataset.n_train() / batch);
  task.train = [&](const train::RunConfig& run) {
    return train::train_resnet(w.dataset, w.model, run);
  };

  if (!args.trace) {
    measure_end_to_end(args, task, out);
    return;
  }
  measure_traced(task, [&](Trace& tr) {
    const train::RunConfig& run = task.run;
    models::ResNetConfig mc = w.model;
    mc.seed = w.model.seed + run.seed;
    models::ResNet model(mc);
    auto opt = optim::make_optimizer(run.optimizer, model.parameters(),
                                     run.weight_decay);
    const std::vector<optim::Optimizer*> opts = {opt.get()};
    data::IndexBatcher batcher(w.dataset.n_train(), run.batch_size,
                               run.seed * 49157ull + 9);
    const i64 spe = batcher.batches_per_epoch();
    for (i64 step = 0; step < run.epochs * spe; ++step) {
      SpanTable::Scope step_span(tr.spans, "step");
      begin_step(tr, *task.schedule, opts, step, spe);
      double loss_value = 0.0;
      {
        std::optional<mem::TrainStepScope> arena_scope(std::in_place);
        core::Tensor images;
        std::vector<i32> labels;
        {
          SpanTable::Scope s(tr.spans, "data");
          const std::vector<i64> idx = batcher.next();
          images = w.dataset.gather_images(idx, true);
          labels = w.dataset.gather_labels(idx, true);
        }
        ag::Variable loss;
        {
          SpanTable::Scope s(tr.spans, "fwd");
          model.zero_grad();
          loss = model.loss(images, labels);
        }
        loss_value = loss.value()[0];
        // Backward, then releasing the step's graph and batch.
        SpanTable::Scope s(tr.spans, "bwd");
        if (!train::loss_diverged(loss_value)) ag::backward(loss);
        loss = ag::Variable();
        images = core::Tensor();
        arena_scope.reset();
      }
      if (!finish_step(tr, run, opts, loss_value)) break;
    }
  }, out);
}

// ---- ptb-b8-t1 --------------------------------------------------------------

bench::PtbWorkload make_ptb_workload(const Args& args) {
  bench::PtbWorkload w;
  if (args.smoke) {
    data::CorpusConfig c;
    c.vocab = 200;
    c.n_states = 10;
    c.n_train_tokens = 2000;
    c.n_valid_tokens = 500;
    c.seed = 1;
    w.corpus = data::SyntheticCorpus(c);
  }
  return w;
}

std::unique_ptr<sched::LrSchedule> ptb_schedule(const bench::PtbWorkload& w) {
  return sched::legw_schedule(w.legw_base, w.base_batch, [&](float peak) {
    return std::make_shared<sched::ExponentialEpochDecay>(peak, w.flat_epochs,
                                                          w.decay_gamma);
  });
}

void run_ptb(const Args& args, Result& out) {
  const i64 epochs = args.smoke ? 1 : 2;
  std::unique_ptr<bench::PtbWorkload> wp;
  std::unique_ptr<sched::LrSchedule> schedule;
  time_setup(args, out, [&] {
    wp = std::make_unique<bench::PtbWorkload>(make_ptb_workload(args));
    schedule = ptb_schedule(*wp);
  });
  const bench::PtbWorkload& w = *wp;
  const i64 batch = w.base_batch;

  TrainTask task;
  task.run.batch_size = batch;
  task.run.epochs = epochs;
  task.run.optimizer = "momentum";
  task.run.seed = training_seed(args, 0);
  task.run.final_eval_only = true;
  task.schedule = schedule.get();
  task.loss_seeds = 2;
  task.samples_per_step = batch;
  task.steps =
      epochs * data::BpttBatcher(w.corpus.train_tokens(), batch,
                                 w.model.bptt_len)
                   .chunks_per_epoch();
  task.train = [&](const train::RunConfig& run) {
    return train::train_ptb(w.corpus, w.model, run);
  };

  if (!args.trace) {
    measure_end_to_end(args, task, out);
    return;
  }
  measure_traced(task, [&](Trace& tr) {
    const train::RunConfig& run = task.run;
    models::PtbConfig mc = w.model;
    mc.vocab = w.corpus.vocab();
    mc.seed = w.model.seed + run.seed;
    models::PtbModel model(mc);
    auto opt = optim::make_optimizer(run.optimizer, model.parameters(),
                                     run.weight_decay);
    const std::vector<optim::Optimizer*> opts = {opt.get()};
    data::BpttBatcher batcher(w.corpus.train_tokens(), run.batch_size,
                              mc.bptt_len);
    core::Rng dropout_rng(run.seed * 7919ull + 3);
    models::PtbModel::CarriedState carried =
        model.zero_carried(run.batch_size);
    const i64 spe = batcher.chunks_per_epoch();
    for (i64 step = 0; step < run.epochs * spe; ++step) {
      SpanTable::Scope step_span(tr.spans, "step");
      begin_step(tr, *task.schedule, opts, step, spe);
      double loss_value = 0.0;
      {
        std::optional<mem::TrainStepScope> arena_scope(std::in_place);
        data::BpttBatcher::Chunk chunk;
        {
          SpanTable::Scope s(tr.spans, "data");
          chunk = batcher.next_chunk();
          if (chunk.first_in_epoch) {
            carried = model.zero_carried(run.batch_size);
          }
        }
        models::PtbModel::ChunkResult res;
        {
          SpanTable::Scope s(tr.spans, "fwd");
          model.zero_grad();
          res = model.chunk_loss(chunk.inputs, chunk.targets, run.batch_size,
                                 mc.bptt_len, carried, dropout_rng);
          carried = std::move(res.carried);
          for (core::Tensor& t : carried.h) t.rehome_();
          for (core::Tensor& t : carried.c) t.rehome_();
        }
        loss_value = res.loss.value()[0];
        SpanTable::Scope s(tr.spans, "bwd");
        if (!train::loss_diverged(loss_value)) ag::backward(res.loss);
        res.loss = ag::Variable();
        arena_scope.reset();
      }
      if (!finish_step(tr, run, opts, loss_value)) break;
    }
  }, out);
}

// ---- mnist-dp4-b512 ---------------------------------------------------------

void run_mnist_dp(const Args& args, Result& out) {
  const i64 batch = args.smoke ? 64 : 512;  // k = 16 over the base batch 32
  const i64 epochs = args.smoke ? 2 : 10;
  std::unique_ptr<bench::MnistWorkload> wp;
  std::unique_ptr<sched::LrSchedule> schedule;
  time_setup(args, out, [&] {
    wp = std::make_unique<bench::MnistWorkload>();
    if (args.smoke) wp->dataset = data::SyntheticMnist(256, 64, 42);
    schedule = sched::legw_constant(wp->legw_base, batch);
  });
  const bench::MnistWorkload& w = *wp;
  const std::string dir = work_dir("mnist");

  TrainTask task;
  task.run.batch_size = batch;
  task.run.epochs = epochs;
  task.run.optimizer = "momentum";
  task.run.seed = training_seed(args, 0);
  task.run.final_eval_only = true;
  task.run.replicas = kReplicas;
  task.run.checkpoint_dir = dir;
  task.run.checkpoint_every_steps = 8;
  task.run.checkpoint_keep_last = 2;
  task.schedule = schedule.get();
  task.loss_seeds = 32;
  task.samples_per_step = batch;
  task.steps = epochs * (w.dataset.n_train() / batch);
  task.train = [&](const train::RunConfig& run) {
    std::filesystem::remove_all(dir);
    return train::train_mnist(w.dataset, w.model, run);
  };

  if (!args.trace) {
    measure_end_to_end(args, task, out);
    std::filesystem::remove_all(dir);
    return;
  }

  // Scaling baseline: one replica at the same global batch, no checkpoints.
  TrainTask single = task;
  single.run.replicas = 1;
  single.run.checkpoint_dir.clear();
  const RunnerRun base = run_runner(single);
  const RunnerRun four = run_runner(task);
  out.attempted += 2;
  if (check_run(single, base, out) && check_run(task, four, out)) {
    const double per_step_1 = median(base.step_ms);
    const double per_step_4 = median(four.step_ms);
    out.add("dist.dp_efficiency",
            per_step_4 > 0.0 ? per_step_1 / (static_cast<double>(kReplicas) *
                                             per_step_4)
                             : 0.0,
            "ratio");
  }

  measure_traced(task, [&](Trace& tr) {
    std::filesystem::remove_all(dir);
    const train::RunConfig& run = task.run;
    models::MnistLstmConfig mc = w.model;
    mc.seed = w.model.seed + run.seed;
    std::vector<std::unique_ptr<models::MnistLstm>> replicas;
    std::vector<std::unique_ptr<optim::Optimizer>> owned;
    std::vector<optim::Optimizer*> opts;
    std::vector<std::vector<ag::Variable>> replica_params;
    for (i64 r = 0; r < kReplicas; ++r) {
      replicas.push_back(std::make_unique<models::MnistLstm>(mc));
      owned.push_back(optim::make_optimizer(
          run.optimizer, replicas.back()->parameters(), run.weight_decay));
      opts.push_back(owned.back().get());
      replica_params.push_back(replicas.back()->parameters());
    }
    data::IndexBatcher batcher(w.dataset.n_train(), run.batch_size,
                               run.seed * 1000003ull + 5);
    std::unique_ptr<dist::WireState> wire_state;
    if (core::dist_wire() != core::WireFormat::kFp32) {
      wire_state = std::make_unique<dist::WireState>(replica_params);
    }
    legw::ckpt::ManagerConfig mcfg;
    mcfg.dir = run.checkpoint_dir;
    mcfg.every_steps = run.checkpoint_every_steps;
    mcfg.keep_last = run.checkpoint_keep_last;
    legw::ckpt::CheckpointManager manager(mcfg);

    const i64 spe = batcher.batches_per_epoch();
    const i64 shard = run.batch_size / kReplicas;
    std::vector<i64> fwd_ns(kReplicas, 0);
    for (i64 step = 0; step < run.epochs * spe; ++step) {
      double loss_value = 0.0;
      {
        SpanTable::Scope step_span(tr.spans, "step");
        begin_step(tr, *task.schedule, opts, step, spe);
        std::vector<core::Tensor> images(kReplicas);
        std::vector<std::vector<i32>> labels(kReplicas);
        {
          SpanTable::Scope s(tr.spans, "data");
          const std::vector<i64> idx = batcher.next();
          for (i64 r = 0; r < kReplicas; ++r) {
            const std::vector<i64> sh(idx.begin() + r * shard,
                                      idx.begin() + (r + 1) * shard);
            images[r] = w.dataset.gather_images(sh, true);
            labels[r] = w.dataset.gather_labels(sh, true);
          }
        }
        const auto loss_fn = [&](int i) {
          const i64 t0 = steady_ns();
          ag::Variable loss = replicas[i]->loss(images[i], labels[i]);
          fwd_ns[i] = steady_ns() - t0;
          return loss;
        };
        {
          SpanTable::Scope s(tr.spans, "dist");
          if (wire_state == nullptr) {
            loss_value = dist::replica_backward(replica_params, loss_fn);
          } else {
            dist::ReplicaStepOptions step_opts;
            step_opts.wire_state = wire_state.get();
            const dist::OverlapResult res =
                dist::replica_backward_ex(replica_params, loss_fn, step_opts);
            if (!res.ok) out.fail("replica_backward_ex: " + res.error);
            loss_value = res.mean_loss;
          }
        }
        if (!finish_step(tr, run, opts, loss_value)) break;
        if (manager.due(step + 1)) {
          SpanTable::Scope s(tr.spans, "ckpt");
          legw::ckpt::TrainState state;
          for (i64 r = 0; r < kReplicas; ++r) {
            state.models.push_back(replicas[r].get());
            state.optimizers.push_back(opts[r]);
          }
          if (wire_state != nullptr) {
            for (auto& [name, tensor] : wire_state->named_residuals()) {
              state.extra.emplace_back(name, tensor);
            }
          }
          state.step = step + 1;
          state.epoch = step / spe;
          const i64 t0 = steady_ns();
          const legw::ckpt::Result saved = manager.save_now(state);
          tr.ckpt_save_ms += static_cast<double>(steady_ns() - t0) / 1e6;
          ++tr.ckpt_saves;
          if (!saved.ok()) out.fail("checkpoint save: " + saved.message);
          tr.ckpt_bytes = static_cast<double>(std::filesystem::file_size(
              legw::ckpt::CheckpointManager::step_path(mcfg.dir, step + 1)));
        }
      }
      const auto [lo, hi] = std::minmax_element(fwd_ns.begin(), fwd_ns.end());
      double sum_ns = 0.0;
      for (i64 ns : fwd_ns) sum_ns += static_cast<double>(ns);
      tr.shard_fwd_max_ms.push_back(static_cast<double>(*hi) / 1e6);
      tr.shard_fwd_skew_ms.push_back(static_cast<double>(*hi - *lo) / 1e6);
      tr.shard_fwd_mean_ms.push_back(sum_ns / 1e6 / kReplicas);

      // The all-reduce on this step's gradients, timed on copies outside the
      // step so the training state and the step time stay untouched.
      const i64 allocs0 = mem::mem_stats().heap_allocs;
      for (std::size_t p = 0; p < replica_params[0].size(); ++p) {
        std::vector<core::Tensor> copies;
        std::vector<core::Tensor*> shards;
        for (i64 r = 0; r < kReplicas; ++r) {
          copies.push_back(replica_params[r][p].grad());  // deep copy
        }
        for (core::Tensor& t : copies) shards.push_back(&t);
        const i64 t0 = steady_ns();
        dist::allreduce_mean(shards, core::dist_algo());
        tr.reduce_ms += static_cast<double>(steady_ns() - t0) / 1e6;
        tr.wire_bytes += static_cast<double>(dist::allreduce_wire_bytes(
            kReplicas, copies[0].numel(), core::dist_wire()));
      }
      tr.probe_heap_allocs += mem::mem_stats().heap_allocs - allocs0;
    }
    std::filesystem::remove_all(dir);
  }, out);
}

}  // namespace perfbench
