// End-to-end training runners: one per paper application.
//
// The benches and examples all funnel through these four functions; each
// hands its application's task to one shared train loop: per-step LR from the
// schedule, gradient clipping by global norm, divergence detection
// (NaN/explosion -> the run is marked diverged and aborted, mirroring what
// "training diverged" means in the paper's tuning sweeps).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/tensor.hpp"
#include "data/corpus.hpp"
#include "data/images.hpp"
#include "data/synthetic_mnist.hpp"
#include "data/translation.hpp"
#include "guard/sentinel.hpp"
#include "models/gnmt.hpp"
#include "models/mnist_lstm.hpp"
#include "models/ptb_model.hpp"
#include "models/resnet.hpp"
#include "obs/telemetry.hpp"
#include "sched/schedule.hpp"

namespace legw::ckpt {
struct CrashPlan;
}

namespace legw::train {

class Recorder;

struct RunConfig {
  i64 batch_size = 128;
  i64 epochs = 5;
  std::string optimizer = "momentum";  // see optim::make_optimizer
  float weight_decay = 0.0f;
  float clip_norm = 5.0f;  // 0 disables clipping
  const sched::LrSchedule* schedule = nullptr;  // required
  u64 seed = 1;
  bool verbose = false;
  // Skip intermediate metric evaluations and only evaluate after the final
  // epoch (sweep benches set this — evaluation dominates short runs,
  // especially GNMT's greedy decode).
  bool final_eval_only = false;
  // Optional metric sink: when set, every runner records "train_loss" per
  // step and its task metric per evaluated epoch ("test_acc" / "valid_ppl" /
  // "test_bleu"; a diverged epoch records the task's worst value, 0 or 1e9,
  // even under final_eval_only). Deterministic for a fixed seed, so two
  // identically-seeded runs render identical CSV.
  Recorder* recorder = nullptr;
  // When true, RunResult::final_params receives a copy of every parameter
  // tensor after the last step (golden-determinism tests compare bitwise).
  bool capture_final_params = false;
  // --- checkpoint / resume (see ckpt/checkpoint.hpp, docs/CHECKPOINT.md) ---
  // When checkpoint_dir is non-empty the runner persists the full training
  // state (params, buffers, optimizer state, RNG streams, carried BPTT
  // state, counters) every checkpoint_every_steps optimizer steps, keeping
  // the newest checkpoint_keep_last files. Composes with replicas > 1:
  // replica 0 is written, every replica is restored bit-identically.
  std::string checkpoint_dir;
  i64 checkpoint_every_steps = 0;  // 0 disables periodic writes
  int checkpoint_keep_last = 3;
  // When true and checkpoint_dir holds a valid checkpoint, the runner resumes
  // from the newest loadable one (corrupted files are skipped) and reproduces
  // the uninterrupted run bit-for-bit from that step on.
  bool resume = false;
  // Deterministic injected kills for crash-safety tests; not owned. A fired
  // kill stops the run with RunResult::interrupted set, as if the process
  // died (mid-step, mid-write, or torn-publish — see ckpt::CrashPlan).
  const ckpt::CrashPlan* crash_plan = nullptr;
  // Data-parallel replica count. 1 = the classic single-model loop. For
  // replicas > 1 (train_mnist only, for now) the runner instantiates
  // `replicas` identically-initialised models, shards every batch across
  // them, and averages gradients through dist::replica_backward_ex — the
  // data-parallel engine. The replica set is fixed for the whole run.
  // batch_size must be divisible by replicas. Metrics and captured
  // parameters come from replica 0 (replicas stay bit-synchronised, so the
  // choice is immaterial).
  i64 replicas = 1;
  // --- stability sentinel (guard/sentinel.hpp, docs/STABILITY.md) ----------
  // With sentinel.enabled AND a checkpoint_dir, the runner enters protect
  // mode: per-step health signals (loss-spike / gradient-explosion /
  // non-finite) drive automatic rollback to the newest blessed checkpoint
  // and the escalating mitigation ladder. The sentinel's state (baseline
  // windows, escalation level, anomaly ledger) is persisted in every
  // checkpoint's `extra` section, so protect-mode checkpoints are only
  // resumable by protect-mode runs with the same sentinel geometry. Without
  // the explicit opt-in, LEGW_GUARD=on gives observe-only mode: guard.*
  // counters and events, zero trajectory or schema change.
  guard::SentinelConfig sentinel;
  guard::MitigationPolicy mitigation;
  // Seeded anomaly injection for recovery tests (protect mode only); not
  // owned. Each anomaly fires once, even across rollback replay and resume.
  const guard::AnomalyPlan* anomaly_plan = nullptr;
};

struct RunResult {
  // Task metric: accuracy in [0,1] (MNIST/ResNet), perplexity (PTB, lower is
  // better), BLEU in [0,100] (GNMT).
  double final_metric = 0.0;
  std::vector<double> per_epoch_metric;
  double final_train_loss = 0.0;
  bool diverged = false;
  double wall_seconds = 0.0;
  i64 steps = 0;
  // Filled only when RunConfig::capture_final_params is set: one tensor per
  // parameter, in Module::parameters() order.
  std::vector<core::Tensor> final_params;
  // True when a CrashPlan kill fired: the run stopped early, exactly as if
  // the process had died (no final eval, metrics reflect the last completed
  // step). Restart with RunConfig::resume to continue it.
  bool interrupted = false;
  // Step the run resumed from (-1 = fresh start). Informational.
  i64 resumed_from_step = -1;
  // --- stability sentinel outcomes (protect/observe modes) -----------------
  i64 guard_anomalies = 0;   // anomalous verdicts observed
  i64 guard_rollbacks = 0;   // rollbacks performed (protect mode)
  int guard_escalation_max = 0;  // highest mitigation level reached
  // True when the mitigation ladder was exhausted (diverged is also set);
  // guard_report then carries the structured escalation history.
  bool guard_failed = false;
  std::string guard_report;
};

RunResult train_mnist(const data::SyntheticMnist& dataset,
                      const models::MnistLstmConfig& model_config,
                      const RunConfig& run);

RunResult train_ptb(const data::SyntheticCorpus& corpus,
                    const models::PtbConfig& model_config,
                    const RunConfig& run);

RunResult train_gnmt(const data::SyntheticTranslation& dataset,
                     const models::GnmtConfig& model_config,
                     const RunConfig& run);

RunResult train_resnet(const data::SyntheticImages& dataset,
                       const models::ResNetConfig& model_config,
                       const RunConfig& run);

// Helper shared by the runners and tests: true if the loss value indicates a
// diverged run (NaN, inf, or absurdly large).
bool loss_diverged(double loss);

// Flattens a run's config and result into an obs::RunRecord so benches can
// append one JSONL telemetry line per run (obs::append_run_telemetry merges
// in the phase summary and counters captured while the run executed).
obs::RunRecord make_run_record(const std::string& name, const RunConfig& run,
                               const RunResult& result);

}  // namespace legw::train
