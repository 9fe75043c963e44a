#include "train/runners.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "ag/ops.hpp"
#include "check/check.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/counters.hpp"
#include "core/flags.hpp"
#include "dist/compression.hpp"
#include "dist/overlap.hpp"
#include "obs/trace.hpp"
#include "optim/optimizer.hpp"
#include "train/metrics.hpp"
#include "train/recorder.hpp"

namespace legw::train {

bool loss_diverged(double loss) {
  return !std::isfinite(loss) || loss > 1e4;
}

namespace {

using Clock = std::chrono::steady_clock;

// Protect mode (see GuardHook) needs the explicit sentinel opt-in and a
// checkpoint directory to roll back into.
bool protect_mode(const RunConfig& run) {
  return run.sentinel.enabled && !run.checkpoint_dir.empty();
}

// Post-forward tail of one training step: divergence check, clip, optimizer
// update, bookkeeping. Returns false when the run diverged. `opts` are the
// step's participating optimizers; with multiple replicas every one clips
// and steps on the identical replica-mean gradients, so the updates are
// identical too. `clip_norm` is the effective clip (the sentinel may tighten
// it mid-episode; equals run.clip_norm whenever the guard is inactive).
bool finish_step(const RunConfig& run,
                 const std::vector<optim::Optimizer*>& opts, i64 step,
                 double loss_value, RunResult* result, float clip_norm) {
  result->final_train_loss = loss_value;
  if (run.recorder != nullptr) {
    run.recorder->record("train_loss", step, loss_value);
  }
  if (loss_diverged(loss_value)) {
    result->diverged = true;
    return false;
  }
  if (clip_norm > 0.0f) {
    obs::Span span("clip");
    for (optim::Optimizer* opt : opts) {
      optim::clip_grad_norm(opt->params(), clip_norm);
    }
  }
  {
    obs::Span span("optimizer");
    for (optim::Optimizer* opt : opts) opt->step();
  }
  core::count("steps", 1);
  ++result->steps;
  return true;
}

// Checkpoint/resume hook of the training loop. `fill` rebuilds the
// TrainState views on every save/restore (the pointed-at objects move — PTB
// reassigns its carried BPTT state each chunk), then the hook stamps the
// counters and delegates policy to ckpt::CheckpointManager.
struct CkptHook {
  const RunConfig* run;
  i64 steps_per_epoch;
  std::function<void(ckpt::TrainState&)> fill;
  std::optional<ckpt::CheckpointManager> mgr;

  CkptHook(const RunConfig& r, i64 spe,
           std::function<void(ckpt::TrainState&)> f)
      : run(&r), steps_per_epoch(spe), fill(std::move(f)) {
    if (!r.checkpoint_dir.empty()) {
      ckpt::ManagerConfig mc;
      mc.dir = r.checkpoint_dir;
      mc.every_steps = r.checkpoint_every_steps;
      mc.keep_last = r.checkpoint_keep_last;
      mc.crash = r.crash_plan;
      mgr.emplace(std::move(mc));
    }
  }

  // Restores the newest valid checkpoint when RunConfig::resume is set.
  // Returns the optimizer step to resume from (0 = fresh start; corrupted
  // candidates were skipped by the manager, an empty directory is a fresh
  // start, not an error).
  i64 maybe_restore(RunResult* result) {
    if (!mgr.has_value() || !run->resume) return 0;
    ckpt::TrainState state;
    fill(state);
    const auto outcome = mgr->restore_latest(state);
    for (const auto& skip : outcome.skipped) {
      std::fprintf(stderr, "checkpoint: skipping corrupt %s (%s: %s)\n",
                   skip.path.c_str(), ckpt::status_name(skip.status),
                   skip.message.c_str());
    }
    if (!outcome.restored) return 0;
    result->resumed_from_step = state.step;
    return state.step;
  }

  // Writes the state after `step` completed steps. Every save (periodic,
  // guard step-0 and rollback re-save) stamps the same counters here.
  ckpt::Result save(i64 step) {
    ckpt::TrainState state;
    fill(state);
    state.step = step;
    state.epoch = step / steps_per_epoch;
    return mgr->save_now(state);
  }

  // Runs after every completed optimizer step. Returns false when an
  // injected kill fired: the caller stops the run as if the process died
  // (RunResult::interrupted is set; no final eval happens).
  bool after_step(i64 step, RunResult* result) {
    const ckpt::CrashPlan::Crash* crash =
        run->crash_plan == nullptr ? nullptr : run->crash_plan->crash_at(step);
    if (crash != nullptr && crash->kind == ckpt::CrashPlan::Kind::kMidStep) {
      result->interrupted = true;
      return false;
    }
    if (!mgr.has_value() || !mgr->due(step)) return true;
    const ckpt::Result r = save(step);
    if (r.status == ckpt::Status::kSimulatedCrash) {
      result->interrupted = true;
      return false;
    }
    if (!r.ok()) {
      // A failed periodic write must not kill a multi-hour run; the
      // previous checkpoint is still intact.
      std::fprintf(stderr, "checkpoint write failed: %s\n", r.message.c_str());
    }
    return true;
  }
};

// Stability-sentinel glue of the training loop (guard/sentinel.hpp). Its
// state tensor is registered inside the CkptHook fill (protect mode adds
// "guard.sentinel" to the checkpoint `extra` schema), so run() builds the
// GuardHook first and hands the CkptHook to the calls that save or restore.
// Modes:
//   protect — RunConfig::sentinel.enabled && checkpoint_dir set: detection,
//             rollback to the newest blessed checkpoint, and the escalating
//             mitigation ladder; the check:: tripwires run in recoverable
//             mode for the run's duration so a non-finite value becomes a
//             report the sentinel consumes instead of an abort.
//   observe — LEGW_GUARD=on (and not protect): signals, guard.* counters and
//             events only; the trajectory, abort behaviour and checkpoint
//             schema are bit-for-bit those of a guard-less run.
struct GuardHook {
  enum class Action { kProceed, kRestart, kStop };

  const RunConfig* run;
  bool protect = false;
  bool observe = false;
  std::optional<guard::StabilitySentinel> sentinel;
  core::Tensor state;  // the persisted "guard.sentinel" extra (protect mode)
  std::optional<check::RecoverableScope> recoverable;
  i64 restart_step = 0;  // valid after inspect() returns kRestart

  explicit GuardHook(const RunConfig& r) : run(&r) {
    protect = protect_mode(r);
    observe = protect || core::guard_mode() == core::GuardMode::kObserve;
    if (observe) sentinel.emplace(r.sentinel, r.mitigation);
    if (protect) {
      state = core::Tensor(guard::StabilitySentinel::state_shape(r.sentinel));
      recoverable.emplace(true);
    }
  }

  // Registered inside the CkptHook fill lambda: every save carries a fresh
  // export of the sentinel state, every restore deposits the file's copy
  // into `state`.
  void fill_extra(ckpt::TrainState& s) {
    if (!protect) return;
    sentinel->export_state_into(state);
    s.extra.emplace_back("guard.sentinel", &state);
  }

  float lr_scale(i64 step) const {
    return protect ? sentinel->lr_factor(step) : 1.0f;
  }

  float effective_clip() const {
    if (!protect) return run->clip_norm;
    const float f = sentinel->clip_factor();
    if (f == 1.0f) return run->clip_norm;
    return run->clip_norm > 0.0f ? run->clip_norm * f
                                 : run->mitigation.fallback_clip_norm;
  }

  // After CkptHook::maybe_restore: adopt the persisted sentinel state, or on
  // a fresh protect-mode start persist + bless the step-0 checkpoint so a
  // rollback target exists from the first step. Returns false when the run
  // must stop (injected crash during the step-0 write).
  bool after_restore(CkptHook& ck, i64 start_step, RunResult* result) {
    if (!protect) return true;
    if (start_step > 0) {
      sentinel->import_state(state);
      return true;
    }
    const ckpt::Result w = ck.save(0);
    if (w.status == ckpt::Status::kSimulatedCrash) {
      result->interrupted = true;
      return false;
    }
    LEGW_CHECK(w.ok(),
               "guard: cannot write the step-0 rollback target: " + w.message);
    const ckpt::Result b = ck.mgr->bless(0);
    LEGW_CHECK(b.ok(),
               "guard: cannot bless the step-0 checkpoint: " + b.message);
    return true;
  }

  // One-shot seeded anomaly injection, applied identically on every active
  // replica so the synchrony invariant holds through the anomaly itself.
  // Runs post-backward: the poisoned values are exactly what the sentinel
  // inspects, and a detected anomaly never reaches the optimizer.
  void maybe_inject(i64 step, double* loss_value,
                    const std::vector<optim::Optimizer*>& opts) {
    if (!protect || run->anomaly_plan == nullptr) return;
    const guard::AnomalyPlan::Anomaly* a = run->anomaly_plan->at(step);
    if (a == nullptr || sentinel->injection_fired(step)) return;
    sentinel->mark_injection_fired(step);
    const char* kind = "nan";
    switch (a->kind) {
      case guard::AnomalyPlan::Kind::kLossSpike:
        kind = "loss_spike";
        *loss_value *= static_cast<double>(a->magnitude);
        break;
      case guard::AnomalyPlan::Kind::kNaN:
        for (optim::Optimizer* opt : opts) {
          if (opt->params().empty()) continue;
          ag::Variable handle = opt->params()[0];
          handle.mutable_grad()[0] = std::numeric_limits<float>::quiet_NaN();
        }
        break;
      case guard::AnomalyPlan::Kind::kGradExplosion:
        kind = "grad_explosion";
        for (optim::Optimizer* opt : opts) {
          for (const ag::Variable& p : opt->params()) {
            ag::Variable handle = p;
            handle.mutable_grad().scale_(a->magnitude);
          }
        }
        break;
    }
    obs::TraceRecorder::global().add_event(
        "guard_injected", {{"step", std::to_string(step)}, {"kind", kind}});
  }

  // Post-backward / pre-optimizer health inspection. kProceed: the step goes
  // on (always, outside protect mode). kRestart: rolled back — the loop
  // repositions the task's data stream at `restart_step` and replays. kStop:
  // the ladder is exhausted (guard_failed + diverged) or an injected crash
  // fired during recovery (interrupted).
  Action inspect(CkptHook& ck, i64 step, double loss_value,
                 const std::vector<optim::Optimizer*>& opts,
                 RunResult* result) {
    if (!observe) return Action::kProceed;
    const check::TripwireReport rep =
        protect ? check::take_tripwire_report() : check::TripwireReport{};
    guard::HealthSignals signals;
    signals.loss = loss_value;
    signals.non_finite = rep.fired;
    signals.detail = rep.message;
    // Rank-consistent decision: one verdict per active replica, reduced by
    // max severity — every rank then takes the identical action.
    std::vector<guard::Verdict> verdicts;
    verdicts.reserve(opts.size());
    for (std::size_t i = 0; i < opts.size(); ++i) {
      guard::HealthSignals s = signals;
      s.grad_norm = optim::global_grad_norm(opts[i]->params());
      if (i == 0) signals.grad_norm = s.grad_norm;  // replica-0 view
      verdicts.push_back(sentinel->assess(s));
    }
    const guard::Verdict verdict = guard::reduce_verdicts(verdicts);
    core::count("guard.steps", 1);
    const guard::Decision d = sentinel->observe(step, verdict, signals);
    if (verdict == guard::Verdict::kHealthy) return Action::kProceed;
    ++result->guard_anomalies;
    core::count("guard.anomalies", 1);
    obs::TraceRecorder::global().add_event(
        "guard_anomaly", {{"step", std::to_string(step)},
                          {"verdict", guard::verdict_name(verdict)},
                          {"level", std::to_string(d.level)}});
    if (!protect) return Action::kProceed;  // observe-only: no intervention
    if (d.action == guard::Decision::Action::kFail) {
      result->guard_failed = true;
      result->diverged = true;
      result->guard_report = sentinel->report();
      core::count("guard.failures", 1);
      std::fprintf(stderr, "guard: mitigation ladder exhausted: %s\n%s",
                   d.reason.c_str(), result->guard_report.c_str());
      return Action::kStop;
    }
    return rollback(ck, d, result);
  }

  // After CkptHook::after_step: feed the blessing pipeline.
  void after_save(CkptHook& ck, i64 step) {
    if (!protect) return;
    if (ck.mgr->due(step)) sentinel->note_checkpoint(step);
    for (const i64 bstep : sentinel->take_bless_ready()) {
      const ckpt::Result b = ck.mgr->bless(bstep);
      // Retention may have reaped the file before it earned its blessing;
      // losing a would-be target is fine, losing the run is not.
      if (b.ok()) core::count("guard.blessed", 1);
    }
  }

 private:
  Action rollback(CkptHook& ck, const guard::Decision& d, RunResult* result) {
    obs::Span span("rollback");
    ckpt::TrainState s;
    ck.fill(s);
    const auto outcome = ck.mgr->restore_blessed(s);
    if (!outcome.restored) {
      // No blessed checkpoint loads: unrecoverable. (The step-0 blessing
      // makes this unreachable short of on-disk corruption of every target.)
      result->guard_failed = true;
      result->diverged = true;
      result->guard_report = sentinel->report() +
                             "rollback failed: " + outcome.status.message;
      return Action::kStop;
    }
    const i64 restored = s.step;
    // Order matters: the restore clobbered the in-memory `state` tensor with
    // the blessed file's stale copy; on_rollback now, and the fill-time
    // re-export below, make the updated ledger win.
    sentinel->on_rollback(restored);
    ++result->guard_rollbacks;
    result->guard_escalation_max =
        std::max(result->guard_escalation_max, d.level);
    core::count("guard.rollbacks", 1);
    obs::TraceRecorder::global().add_event(
        "guard_rollback", {{"to_step", std::to_string(restored)},
                           {"level", std::to_string(d.level)},
                           {"reason", d.reason}});
    {
      // Publication: drop the abandoned trajectory's unblessed checkpoints
      // (a crash before the next save must not resume from them), then
      // re-save the blessed step with the updated sentinel ledger so a crash
      // mid-recovery resumes with the escalation history intact. Same model
      // bytes, newer ledger; the on-disk .blessed marker survives.
      obs::Span mspan("mitigate");
      ck.mgr->invalidate_after(restored);
      const ckpt::Result w = ck.save(restored);
      if (w.status == ckpt::Status::kSimulatedCrash) {
        result->interrupted = true;
        return Action::kStop;
      }
    }
    restart_step = restored;
    return Action::kRestart;
  }
};

void capture_params(const RunConfig& run,
                    const std::vector<ag::Variable>& params,
                    RunResult* result) {
  if (!run.capture_final_params) return;
  result->final_params.reserve(params.size());
  for (const ag::Variable& p : params) result->final_params.push_back(p.value());
}

// When LEGW_TELEMETRY names a file, every runner appends one JSONL record
// there, so sweeps driven by any bench binary produce a machine-readable log
// without per-bench wiring. Export failures are reported, never fatal: a full
// sweep should not die on a bad log path.
void maybe_emit_telemetry(const std::string& runner, const RunConfig& run,
                          const RunResult& result) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe, no setenv
  const char* path = std::getenv("LEGW_TELEMETRY");
  if (path == nullptr || path[0] == '\0') return;
  const std::string name = runner + ".b" + std::to_string(run.batch_size) +
                           ".s" + std::to_string(run.seed);
  std::string err;
  if (!obs::append_run_telemetry(path, make_run_record(name, run, result),
                                 obs::TraceRecorder::global(), &err)) {
    std::fprintf(stderr, "telemetry append failed: %s\n", err.c_str());
  }
}

// What one application brings to the loop in run(): models and optimizers
// (owned by the runner), a seeded data stream, the step body and the metric.
struct Task {
  Task(const char* series, double worst_metric, int metric_digits)
      : metric(series), worst(worst_metric), digits(metric_digits) {}

  const char* metric;  // recorder series of the eval metric
  double worst;        // metric of a diverged or never-evaluated run
  int digits;          // decimals of the metric in verbose output
  // Taken where the runner declares its task, before it builds the models,
  // so wall_seconds covers model construction.
  Clock::time_point start = Clock::now();
  // One model and optimizer per replica. Metrics and captured parameters
  // come from replica 0 (replicas stay bit-synchronised).
  std::vector<nn::Module*> models;
  std::vector<optim::Optimizer*> opts;
  i64 steps_per_epoch = 1;
  // Optional: adds the task's own checkpoint state (RNG streams, extra
  // tensors) to the models and optimizers.
  std::function<void(ckpt::TrainState&)> fill;
  // Rebuilds the seeded data stream and replays it up to a step, so a
  // resume or rollback continues the uninterrupted run's batch sequence.
  std::function<void(i64)> seek;
  // Optional: runs before the step's LR is set and returns the optimizers
  // taking part in the step (all of `opts` when unset).
  std::function<const std::vector<optim::Optimizer*>&(i64)> before_lr;
  // Data, zero_grad, forward and backward of one step: the loss, or nothing
  // when the run must stop here (RunResult::interrupted).
  std::function<std::optional<double>()> step;
  // The eval metric, under the loop's "eval" span.
  std::function<double()> evaluate;
};

// The training loop shared by the four runners: per-step LR from the
// schedule, sentinel inspection before the optimizer, clipping, periodic
// checkpoints, rollback/resume replay, and the per-epoch eval tail.
RunResult run(Task& task, const RunConfig& cfg, const char* name) {
  const std::string runner = std::string("train_") + name;
  LEGW_CHECK(cfg.schedule != nullptr, runner + ": schedule required");
  LEGW_CHECK(static_cast<i64>(task.models.size()) == cfg.replicas,
             runner + ": replicas > 1 is only wired for train_mnist");
  RunResult result;
  const i64 spe = task.steps_per_epoch;
  GuardHook gd(cfg);
  CkptHook ck(cfg, spe, [&](ckpt::TrainState& state) {
    state.models = task.models;
    state.optimizers = task.opts;
    if (task.fill) task.fill(state);
    gd.fill_extra(state);
  });
  i64 start_step = ck.maybe_restore(&result);

  // The outer restart loop re-enters training after a sentinel rollback:
  // the task replays its data stream to the restored step, exactly like a
  // checkpoint resume.
  bool restart = gd.after_restore(ck, start_step, &result);
  while (restart) {
    restart = false;
    task.seek(start_step);
    i64 step = start_step;
    const i64 start_epoch = start_step / spe;
    for (i64 epoch = start_epoch; epoch < cfg.epochs && !result.diverged;
         ++epoch) {
      for (i64 s = epoch == start_epoch ? start_step % spe : 0; s < spe;
           ++s, ++step) {
        obs::Span step_span("step");
        // Every participating replica sees the identical schedule, so
        // data-parallel replicas stay bit-synchronised. `lr_scale` is the
        // sentinel's post-rollback mitigation factor; exactly 1.0f skips
        // the multiply so a guard-less step stays bitwise identical.
        const std::vector<optim::Optimizer*>& opts =
            task.before_lr ? task.before_lr(step) : task.opts;
        const float lr_scale = gd.lr_scale(step);
        float lr = cfg.schedule->lr(static_cast<double>(step) /
                                    static_cast<double>(spe));
        if (lr_scale != 1.0f) lr *= lr_scale;
        for (optim::Optimizer* opt : opts) opt->set_lr(lr);
        // Publish the step so a non-finite tripwire firing anywhere in this
        // step's forward/backward/update blames *when*, not just where.
        check::set_step_index(step);
        const std::optional<double> loss = task.step();
        if (!loss.has_value()) {
          result.interrupted = true;
          break;
        }
        double loss_value = *loss;
        gd.maybe_inject(step, &loss_value, opts);
        const GuardHook::Action act =
            gd.inspect(ck, step, loss_value, opts, &result);
        if (act == GuardHook::Action::kRestart) {
          start_step = gd.restart_step;
          restart = true;
          break;
        }
        if (act == GuardHook::Action::kStop) break;
        if (!finish_step(cfg, opts, step, loss_value, &result,
                         gd.effective_clip())) {
          break;
        }
        if (!ck.after_step(step + 1, &result)) break;
        gd.after_save(ck, step + 1);
      }
      if (restart || result.interrupted) break;
      // A diverged epoch always records the task's worst metric, so a
      // diverged final_eval_only run still leaves its metric row.
      const bool eval_now = !cfg.final_eval_only || epoch + 1 == cfg.epochs;
      double metric = 0.0;
      if (result.diverged) {
        metric = task.worst;
      } else if (eval_now) {
        obs::Span span("eval");
        metric = task.evaluate();
      }
      if (eval_now || result.diverged) {
        result.per_epoch_metric.push_back(metric);
        if (cfg.recorder != nullptr) {
          cfg.recorder->record(task.metric, epoch, metric);
        }
      }
      if (cfg.verbose) {
        std::printf("  [%s] epoch %lld  loss %.4f  %s %.*f\n", name,
                    static_cast<long long>(epoch + 1),
                    result.final_train_loss, task.metric, task.digits, metric);
      }
    }
  }
  result.final_metric = result.per_epoch_metric.empty()
                            ? task.worst
                            : result.per_epoch_metric.back();
  capture_params(cfg, task.opts[0]->params(), &result);
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - task.start).count();
  maybe_emit_telemetry(runner, cfg, result);
  return result;
}

// A seeded shuffle stream positioned at `step`: the batcher is
// deterministic, so replaying it reproduces the exact batch sequence of the
// uninterrupted run.
data::IndexBatcher index_stream(i64 n, i64 batch_size, u64 seed, i64 step) {
  data::IndexBatcher batcher(n, batch_size, seed);
  for (i64 i = 0; i < step; ++i) batcher.next();
  return batcher;
}

// One single-model step on an image batch (mnist with one replica, resnet).
template <class Model, class Dataset>
double image_step(Model& model, const Dataset& dataset,
                  data::IndexBatcher& batcher) {
  core::Tensor images;
  std::vector<i32> labels;
  {
    obs::Span span("data");
    const std::vector<i64> idx = batcher.next();
    images = dataset.gather_images(idx, true);
    labels = dataset.gather_labels(idx, true);
  }
  model.zero_grad();
  ag::Variable loss;
  {
    obs::Span span("forward");
    loss = model.loss(images, labels);
  }
  const double loss_value = loss.value()[0];
  if (!loss_diverged(loss_value)) {
    obs::Span span("backward");
    ag::backward(loss);
  }
  return loss_value;
}

// Test-set accuracy in chunks of `chunk` samples, to bound graph memory.
template <class Model, class Dataset>
double test_accuracy(Model& model, const Dataset& dataset, i64 chunk) {
  i64 correct_weighted = 0;
  i64 total = 0;
  for (i64 begin = 0; begin < dataset.n_test(); begin += chunk) {
    const i64 end = std::min(dataset.n_test(), begin + chunk);
    std::vector<i64> idx;
    for (i64 i = begin; i < end; ++i) idx.push_back(i);
    const double acc = model.accuracy(dataset.gather_images(idx, false),
                                      dataset.gather_labels(idx, false));
    correct_weighted += static_cast<i64>(std::lround(acc * (end - begin)));
    total += end - begin;
  }
  return static_cast<double>(correct_weighted) / static_cast<double>(total);
}

}  // namespace

RunResult train_mnist(const data::SyntheticMnist& dataset,
                      const models::MnistLstmConfig& model_config,
                      const RunConfig& run) {
  const i64 n_replicas = run.replicas;
  LEGW_CHECK(n_replicas >= 1, "train_mnist: replicas must be >= 1");
  LEGW_CHECK(run.batch_size % n_replicas == 0,
             "train_mnist: batch_size must be divisible by replicas");
  LEGW_CHECK(run.membership == nullptr || n_replicas > 1,
             "train_mnist: membership plans need replicas > 1");
  Task task{"test_acc", 0.0, 4};
  models::MnistLstmConfig mc = model_config;
  mc.seed = model_config.seed + run.seed;
  // Identical config and seed mean bitwise-identical initial weights on
  // every replica, so the synchrony invariant holds from step 0.
  std::vector<std::unique_ptr<models::MnistLstm>> replicas;
  std::vector<std::unique_ptr<optim::Optimizer>> opts;
  std::vector<std::vector<ag::Variable>> replica_params;
  for (i64 r = 0; r < n_replicas; ++r) {
    replicas.push_back(std::make_unique<models::MnistLstm>(mc));
    opts.push_back(optim::make_optimizer(
        run.optimizer, replicas.back()->parameters(), run.weight_decay));
    task.models.push_back(replicas.back().get());
    task.opts.push_back(opts.back().get());
    replica_params.push_back(replicas.back()->parameters());
  }
  const u64 data_seed = run.seed * 1000003ull + 5;
  data::IndexBatcher batcher(dataset.n_train(), run.batch_size, data_seed);
  task.steps_per_epoch = batcher.batches_per_epoch();
  std::optional<dist::MembershipManager> membership;
  dist::MembershipManager::Transition tr;  // this step's membership change
  std::vector<optim::Optimizer*> active;   // this step's participants
  // Error-feedback residuals for a quantized wire (LEGW_DIST_WIRE), shared
  // across steps and checkpointed so resume stays bit-identical.
  std::unique_ptr<dist::WireState> wire_state;
  if (n_replicas > 1 && core::dist_wire() != core::WireFormat::kFp32) {
    wire_state = std::make_unique<dist::WireState>(replica_params);
  }

  if (wire_state != nullptr) {
    task.fill = [&](ckpt::TrainState& state) {
      for (auto& [name, tensor] : wire_state->named_residuals()) {
        state.extra.emplace_back(name, tensor);
      }
    };
  }
  task.seek = [&](i64 step) {
    batcher = index_stream(dataset.n_train(), run.batch_size, data_seed, step);
    // The checkpoint restore re-synchronised every replica, so the
    // membership history below the start step replays without hand-offs.
    if (run.membership != nullptr) {
      membership.emplace(static_cast<int>(n_replicas), run.membership_policy,
                         run.membership);
      membership->fast_forward(step);
    }
  };
  if (run.membership != nullptr) {
    task.before_lr =
        [&](i64 step) -> const std::vector<optim::Optimizer*>& {
      tr = membership->begin_step(step);
      if (!tr.joined.empty()) {
        // Joining replicas receive the anchor's full state through an
        // in-memory checkpoint image — the cluster hand-off, minus the
        // filesystem.
        obs::Span span("membership_handoff");
        ckpt::TrainState src;
        src.models.push_back(replicas[0].get());
        src.optimizers.push_back(opts[0].get());
        const std::string image = ckpt::encode(src);
        for (int j : tr.joined) {
          ckpt::TrainState dst;
          dst.models.push_back(replicas[static_cast<std::size_t>(j)].get());
          dst.optimizers.push_back(opts[static_cast<std::size_t>(j)].get());
          const ckpt::Result handed =
              ckpt::load_image(dst, image, "membership hand-off");
          LEGW_CHECK(handed.ok(), "train_mnist: membership hand-off failed: " +
                                      handed.message);
          // A joiner starts with clean error-feedback state: its stale
          // residual belongs to gradients that were never shipped.
          if (wire_state != nullptr) {
            for (std::size_t p = 0; p < replica_params[0].size(); ++p) {
              wire_state->residual(j, p).zero_();
            }
          }
          core::count("dist.member_join", 1);
        }
      }
      if (!tr.left.empty()) {
        core::count("dist.member_leave", static_cast<i64>(tr.left.size()));
      }
      if (!tr.died.empty()) {
        core::count("dist.member_dead", static_cast<i64>(tr.died.size()));
      }
      // Only the active replicas clip and step this round; absentees
      // rejoin through the hand-off above, never by optimizer drift.
      active.clear();
      for (int gid : membership->active()) {
        active.push_back(opts[static_cast<std::size_t>(gid)].get());
      }
      return active;
    };
  }
  task.step = [&]() -> std::optional<double> {
    if (n_replicas == 1) return image_step(*replicas[0], dataset, batcher);
    // Shard the global batch by home shard id (the data order never depends
    // on membership), gather every shard up front (the batcher and dataset
    // stay single-threaded), then let the dist engine run the participants'
    // forward/backward concurrently and leave the participant-mean gradient
    // in every participant.
    const i64 shard = run.batch_size / n_replicas;
    std::vector<core::Tensor> images(static_cast<std::size_t>(n_replicas));
    std::vector<std::vector<i32>> labels(static_cast<std::size_t>(n_replicas));
    {
      obs::Span span("data");
      const std::vector<i64> idx = batcher.next();
      for (i64 r = 0; r < n_replicas; ++r) {
        const std::vector<i64> sh(idx.begin() + r * shard,
                                  idx.begin() + (r + 1) * shard);
        images[static_cast<std::size_t>(r)] = dataset.gather_images(sh, true);
        labels[static_cast<std::size_t>(r)] = dataset.gather_labels(sh, true);
      }
    }
    // Participant view: global replica ids plus their assigned shards.
    // Static membership is the identity assignment.
    std::vector<int> parts;
    std::vector<std::vector<int>> assignment;
    if (membership.has_value()) {
      parts = membership->participants();
      assignment = membership->shard_assignment();
    } else {
      for (i64 r = 0; r < n_replicas; ++r) {
        parts.push_back(static_cast<int>(r));
        assignment.push_back({static_cast<int>(r)});
      }
    }
    std::vector<std::vector<ag::Variable>> part_params;
    part_params.reserve(parts.size());
    for (int gid : parts) {
      part_params.push_back(replica_params[static_cast<std::size_t>(gid)]);
    }
    // Each participant's loss is scaled so the allreduce mean over the
    // participants equals the mean over every *assigned* shard — with
    // kReassign that is the full global batch despite the absences.
    const float factor =
        static_cast<float>(parts.size()) / static_cast<float>(n_replicas);
    const auto loss_fn = [&](int i) {
      const auto gid =
          static_cast<std::size_t>(parts[static_cast<std::size_t>(i)]);
      const std::vector<int>& mine = assignment[static_cast<std::size_t>(i)];
      ag::Variable total =
          replicas[gid]->loss(images[static_cast<std::size_t>(mine[0])],
                              labels[static_cast<std::size_t>(mine[0])]);
      for (std::size_t k = 1; k < mine.size(); ++k) {
        total = ag::add(
            total,
            replicas[gid]->loss(images[static_cast<std::size_t>(mine[k])],
                                labels[static_cast<std::size_t>(mine[k])]));
      }
      return factor == 1.0f && mine.size() == 1 ? total
                                                : ag::scale(total, factor);
    };
    dist::FaultPlan faults;
    for (int d : tr.died) {
      faults.faults.push_back({d, dist::FaultPlan::Kind::kDead, 0.0});
    }
    dist::ReplicaStepOptions step_opts;
    step_opts.wire_state = wire_state.get();
    step_opts.replica_ids = &parts;
    if (!faults.faults.empty()) step_opts.faults = &faults;
    step_opts.bucket_timeout_ms = run.membership_timeout_ms;
    step_opts.timeout_policy =
        run.membership_policy == dist::MembershipPolicy::kFailFast
            ? dist::TimeoutPolicy::kFailFast
            : dist::TimeoutPolicy::kDegradeToSurvivors;
    const dist::OverlapResult res =
        dist::replica_backward_ex(part_params, loss_fn, step_opts);
    if (!res.ok) {
      // Fail-fast membership: a death ends the run cleanly, exactly as a
      // real scheduler would tear the job down.
      std::fprintf(stderr, "train_mnist: %s\n", res.error.c_str());
      return std::nullopt;
    }
    return res.mean_loss;
  };
  task.evaluate = [&] { return test_accuracy(*replicas[0], dataset, 256); };
  return train::run(task, run, "mnist");
}

RunResult train_ptb(const data::SyntheticCorpus& corpus,
                    const models::PtbConfig& model_config,
                    const RunConfig& run) {
  Task task{"valid_ppl", 1e9, 2};
  models::PtbConfig mc = model_config;
  mc.vocab = corpus.vocab();
  mc.seed = model_config.seed + run.seed;
  models::PtbModel model(mc);
  auto opt = optim::make_optimizer(run.optimizer, model.parameters(),
                                   run.weight_decay);
  task.models.push_back(&model);
  task.opts.push_back(opt.get());
  data::BpttBatcher batcher(corpus.train_tokens(), run.batch_size,
                            mc.bptt_len);
  task.steps_per_epoch = batcher.chunks_per_epoch();
  core::Rng dropout_rng(run.seed * 7919ull + 3);
  models::PtbModel::CarriedState carried = model.zero_carried(run.batch_size);

  task.fill = [&](ckpt::TrainState& state) {
    state.rngs.emplace_back("dropout", &dropout_rng);
    // The carried BPTT state is training state: dropping it on resume would
    // change every loss after the restart point.
    for (std::size_t l = 0; l < carried.h.size(); ++l) {
      state.extra.emplace_back("carried.h[" + std::to_string(l) + "]",
                               &carried.h[l]);
      state.extra.emplace_back("carried.c[" + std::to_string(l) + "]",
                               &carried.c[l]);
    }
  };
  // The carried BPTT state and dropout RNG come back through the checkpoint
  // restore; only the chunk stream is replayed.
  task.seek = [&](i64 step) {
    batcher = data::BpttBatcher(corpus.train_tokens(), run.batch_size,
                                mc.bptt_len);
    for (i64 i = 0; i < step; ++i) batcher.next_chunk();
  };
  task.step = [&]() -> std::optional<double> {
    data::BpttBatcher::Chunk chunk;
    {
      obs::Span span("data");
      chunk = batcher.next_chunk();
    }
    if (chunk.first_in_epoch) carried = model.zero_carried(run.batch_size);
    model.zero_grad();
    models::PtbModel::ChunkResult out;
    {
      obs::Span span("forward");
      out = model.chunk_loss(chunk.inputs, chunk.targets, run.batch_size,
                             mc.bptt_len, carried, dropout_rng);
    }
    carried = std::move(out.carried);
    const double loss_value = out.loss.value()[0];
    if (!loss_diverged(loss_value)) {
      obs::Span span("backward");
      ag::backward(out.loss);
    }
    return loss_value;
  };
  // Validation batch geometry: modest so evaluation stays cheap.
  const i64 eval_batch = std::min<i64>(20, run.batch_size);
  task.evaluate = [&] {
    return perplexity(
        model.evaluate_nll(corpus.valid_tokens(), eval_batch, mc.bptt_len));
  };
  return train::run(task, run, "ptb");
}

RunResult train_gnmt(const data::SyntheticTranslation& dataset,
                     const models::GnmtConfig& model_config,
                     const RunConfig& run) {
  Task task{"test_bleu", 0.0, 2};
  models::GnmtConfig mc = model_config;
  mc.src_vocab = dataset.config().src_vocab;
  mc.tgt_vocab = dataset.config().tgt_vocab;
  mc.seed = model_config.seed + run.seed;
  models::Gnmt model(mc);
  auto opt = optim::make_optimizer(run.optimizer, model.parameters(),
                                   run.weight_decay);
  task.models.push_back(&model);
  task.opts.push_back(opt.get());
  const i64 n_train = static_cast<i64>(dataset.train().size());
  const u64 data_seed = run.seed * 104729ull + 11;
  data::IndexBatcher batcher(n_train, run.batch_size, data_seed);
  task.steps_per_epoch = batcher.batches_per_epoch();
  core::Rng dropout_rng(run.seed * 31337ull + 1);

  task.fill = [&](ckpt::TrainState& state) {
    state.rngs.emplace_back("dropout", &dropout_rng);
  };
  task.seek = [&](i64 step) {
    batcher = index_stream(n_train, run.batch_size, data_seed, step);
  };
  task.step = [&]() -> std::optional<double> {
    data::TranslationBatch batch;
    {
      obs::Span span("data");
      const std::vector<i64> idx = batcher.next();
      batch = data::make_translation_batch(dataset.train(), idx);
    }
    model.zero_grad();
    ag::Variable loss;
    {
      obs::Span span("forward");
      loss = model.loss(batch, dropout_rng);
    }
    const double loss_value = loss.value()[0];
    if (!loss_diverged(loss_value)) {
      obs::Span span("backward");
      ag::backward(loss);
    }
    return loss_value;
  };
  task.evaluate = [&] {
    model.set_training(false);
    std::vector<std::vector<i32>> hyps;
    std::vector<std::vector<i32>> refs;
    const i64 chunk = 64;
    const i64 n = static_cast<i64>(dataset.test().size());
    for (i64 begin = 0; begin < n; begin += chunk) {
      const i64 end = std::min(n, begin + chunk);
      std::vector<i64> idx;
      for (i64 i = begin; i < end; ++i) idx.push_back(i);
      auto batch = data::make_translation_batch(dataset.test(), idx);
      auto decoded = model.greedy_decode(batch, batch.tgt_len + 4);
      for (i64 i = 0; i < end - begin; ++i) {
        hyps.push_back(std::move(decoded[static_cast<std::size_t>(i)]));
        refs.push_back(
            dataset.test()[static_cast<std::size_t>(begin + i)].tgt);
      }
    }
    model.set_training(true);
    return corpus_bleu(hyps, refs);
  };
  return train::run(task, run, "gnmt");
}

RunResult train_resnet(const data::SyntheticImages& dataset,
                       const models::ResNetConfig& model_config,
                       const RunConfig& run) {
  Task task{"test_acc", 0.0, 4};
  models::ResNetConfig mc = model_config;
  mc.seed = model_config.seed + run.seed;
  models::ResNet model(mc);
  auto opt = optim::make_optimizer(run.optimizer, model.parameters(),
                                   run.weight_decay);
  // BatchNorm running stats travel in the checkpoint as module buffers.
  task.models.push_back(&model);
  task.opts.push_back(opt.get());
  const u64 data_seed = run.seed * 49157ull + 9;
  data::IndexBatcher batcher(dataset.n_train(), run.batch_size, data_seed);
  task.steps_per_epoch = batcher.batches_per_epoch();

  task.seek = [&](i64 step) {
    batcher = index_stream(dataset.n_train(), run.batch_size, data_seed, step);
  };
  task.step = [&]() -> std::optional<double> {
    return image_step(model, dataset, batcher);
  };
  task.evaluate = [&] { return test_accuracy(model, dataset, 128); };
  return train::run(task, run, "resnet");
}

obs::RunRecord make_run_record(const std::string& name, const RunConfig& run,
                               const RunResult& result) {
  obs::RunRecord rec;
  rec.run = name;
  rec.config.emplace_back("batch_size", std::to_string(run.batch_size));
  rec.config.emplace_back("epochs", std::to_string(run.epochs));
  rec.config.emplace_back("optimizer", run.optimizer);
  rec.config.emplace_back("weight_decay", std::to_string(run.weight_decay));
  rec.config.emplace_back("clip_norm", std::to_string(run.clip_norm));
  rec.config.emplace_back("seed", std::to_string(run.seed));
  rec.config.emplace_back("kernel",
                          core::gemm_kernel_name(core::gemm_kernel()));
  rec.config.emplace_back("replicas", std::to_string(run.replicas));
  rec.config.emplace_back(
      "guard", protect_mode(run)
                   ? "protect"
                   : (core::guard_mode() == core::GuardMode::kObserve
                          ? "observe"
                          : "off"));
  rec.metrics.emplace_back("final_metric", result.final_metric);
  rec.metrics.emplace_back("final_train_loss", result.final_train_loss);
  rec.metrics.emplace_back("diverged", result.diverged ? 1.0 : 0.0);
  rec.metrics.emplace_back("wall_seconds", result.wall_seconds);
  rec.metrics.emplace_back("steps", static_cast<double>(result.steps));
  rec.metrics.emplace_back("guard_anomalies",
                           static_cast<double>(result.guard_anomalies));
  rec.metrics.emplace_back("guard_rollbacks",
                           static_cast<double>(result.guard_rollbacks));
  rec.metrics.emplace_back("guard_escalation_max",
                           static_cast<double>(result.guard_escalation_max));
  rec.metrics.emplace_back("guard_failed", result.guard_failed ? 1.0 : 0.0);
  return rec;
}

}  // namespace legw::train
