// Training stability sentinel: divergence detection with automatic
// checkpoint rollback and an escalating mitigation ladder.
//
// The paper's sweeps treat a diverged run as a data point ("this LR/batch
// combination fails"); a production large-batch run cannot afford that — a
// single loss spike at step 400k must not discard the job. This subsystem
// turns divergence from a terminal event into a recoverable one:
//
//   signals    — per-step health: train loss vs. a windowed robust (median)
//                baseline, global gradient norm vs. its own baseline, and
//                non-finite values (either observed directly in loss/grad
//                norm or reported by the check:: tripwires running in
//                recoverable mode, see check/check.hpp).
//   verdict    — the per-replica signals each reduce to a Verdict; replicas
//                reduce their verdicts by MAX SEVERITY (reduce_verdicts), so
//                every rank takes the identical recovery decision even when
//                only one rank's shard produced the anomaly. Severity order
//                is part of the wire contract: kHealthy < kLossSpike <
//                kGradExplosion < kNonFinite.
//   recovery   — on an anomaly the runner rolls back to the newest *blessed*
//                checkpoint (ckpt::CheckpointManager; a checkpoint is
//                blessed only after `bless_after` further healthy steps
//                survive past it) and replays the span under an escalating
//                MitigationPolicy:
//                  level 1: retry as-is (transient anomalies, injected ones)
//                  level 2: LR backoff x lr_backoff, linear re-warmup ramp
//                           back to the schedule over rewarm_steps — the
//                           LEGW warmup insight applied in miniature
//                  level 3+: additionally tighten gradient clipping by
//                           clip_tighten (keeps the LR backoff)
//                  level > max_escalations: fail with a structured report.
//                An episode escalates while anomalies keep firing and closes
//                (level reset, clip restored) once a healthy step passes the
//                last anomaly and the re-warmup ramp has completed.
//   state      — everything the sentinel knows (baseline windows, escalation
//                level, anomaly ledger, fired injections) packs into one
//                fixed-shape tensor that the runners persist in the
//                checkpoint `extra` section, so a crash mid-recovery resumes
//                with the ledger intact and the post-rollback trajectory is
//                bitwise-equal to a clean run resumed from the same blessed
//                checkpoint.
//
// The sentinel itself is pure bookkeeping — it never touches files or
// parameters. The runners own the rollback mechanics (restore, invalidate,
// re-save) and apply lr_factor()/clip_factor() to their step; see
// train/runners.cpp and docs/STABILITY.md.
#pragma once

#include <string>
#include <vector>

#include "core/tensor.hpp"

namespace legw::guard {

// Severity-ordered: reduce_verdicts takes the max across replicas.
enum class Verdict : int {
  kHealthy = 0,
  kLossSpike = 1,
  kGradExplosion = 2,
  kNonFinite = 3,
};

const char* verdict_name(Verdict v);

// Rank-consistency protocol: the cluster-wide verdict is the maximum
// severity any replica saw. Every replica evaluates this same reduction over
// the same gathered verdicts, so all ranks roll back or none do.
Verdict reduce_verdicts(const std::vector<Verdict>& verdicts);

struct SentinelConfig {
  bool enabled = false;  // full protect mode (requires a checkpoint_dir)
  i64 window = 32;       // robust-baseline window (median over last N steps)
  i64 min_history = 8;   // no relative-spike verdicts before this many steps
  float loss_spike_factor = 4.0f;   // loss > factor * median(loss window)
  float grad_spike_factor = 16.0f;  // grad_norm > factor * median(grad window)
  float loss_abs_limit = 1e4f;      // absolute loss ceiling (matches
                                    // train::loss_diverged)
  // Noise floors for the relative detectors: the medians are clamped up to
  // these before the factor comparison. Near convergence the windowed
  // medians shrink toward zero and ordinary fluctuations would otherwise
  // read as factor-sized spikes; a real divergence blows through the floor
  // in absolute terms anyway.
  float loss_noise_floor = 0.25f;
  float grad_noise_floor = 0.1f;
  i64 bless_after = 8;     // healthy steps that must survive past a
                           // checkpoint before it becomes a rollback target
  i64 ledger_capacity = 64;  // anomaly ledger entries kept (oldest dropped)
};

struct MitigationPolicy {
  int max_escalations = 4;    // fail once the level would exceed this
  float lr_backoff = 0.5f;    // LR factor per escalation beyond level 1
  i64 rewarm_steps = 16;      // linear ramp back to the schedule LR
  float clip_tighten = 0.5f;  // clip-norm factor at level >= 3
  float fallback_clip_norm = 1.0f;  // clip applied at level >= 3 when the
                                    // run itself does not clip
};

// One step's health measurements, per replica.
struct HealthSignals {
  double loss = 0.0;
  float grad_norm = 0.0f;
  bool non_finite = false;  // a recoverable check:: tripwire fired this step
  std::string detail;       // tripwire blame message, when non_finite
};

// Seeded, deterministic anomaly injection — the guard twin of
// ckpt::CrashPlan. Steps match the runner's optimizer step
// index; each anomaly fires at most once per run (the fired set persists in
// the sentinel state, so the post-rollback replay of the same step is
// clean and a resumed run does not re-fire).
struct AnomalyPlan {
  enum class Kind {
    kNaN,            // poison a gradient element with NaN
    kLossSpike,      // multiply the step loss by `magnitude`
    kGradExplosion,  // scale every gradient by `magnitude`
  };
  struct Anomaly {
    i64 at_step = -1;
    Kind kind = Kind::kNaN;
    float magnitude = 1e3f;
  };
  std::vector<Anomaly> anomalies;

  static AnomalyPlan nan_at(i64 step);
  static AnomalyPlan loss_spike_at(i64 step, float magnitude = 1e3f);
  static AnomalyPlan grad_explosion_at(i64 step, float magnitude = 1e6f);
  // Chaining builder for multi-anomaly matrices.
  AnomalyPlan& add(i64 step, Kind kind, float magnitude = 1e3f);

  // The anomaly scheduled for `step`, or nullptr.
  const Anomaly* at(i64 step) const;
};

struct LedgerEntry {
  i64 step = -1;       // step the anomaly fired at
  Verdict verdict = Verdict::kHealthy;
  int level = 0;       // escalation level the episode reached
  i64 rollback_to = -1;  // blessed step restored (-1: failed before rollback)
};

// What the runner must do after observe().
struct Decision {
  enum class Action { kContinue, kRollback, kFail };
  Action action = Action::kContinue;
  int level = 0;       // escalation level in force
  std::string reason;  // human-readable cause (empty when continuing)
};

class StabilitySentinel {
 public:
  StabilitySentinel(SentinelConfig config, MitigationPolicy policy);

  const SentinelConfig& config() const { return config_; }
  const MitigationPolicy& policy() const { return policy_; }

  // Pure signal -> verdict classification; no state change.
  Verdict assess(const HealthSignals& s) const;

  // Drives the state machine with the replica-reduced verdict for `step`.
  // Healthy: baselines absorb the signals, pending blessings advance, an
  // open episode closes once past the last anomaly with the ramp complete.
  // Anomalous: opens/escalates the episode and asks for a rollback, or for
  // failure once the ladder is exhausted. The caller then performs the
  // rollback mechanics and reports the restored step via on_rollback().
  Decision observe(i64 step, Verdict verdict, const HealthSignals& s);

  // Mitigation in force for `step` (identity outside an episode):
  // LR multiplier including the post-rollback re-warmup ramp, and the
  // clip-norm multiplier (level >= 3 only).
  float lr_factor(i64 step) const;
  float clip_factor() const;

  // Blessing pipeline: the runner notes each checkpoint it writes; after
  // `bless_after` healthy steps take_bless_ready() hands the steps back for
  // the runner to mark blessed on disk. An anomaly clears the pending queue
  // (those checkpoints belong to the diverged trajectory).
  void note_checkpoint(i64 step);
  std::vector<i64> take_bless_ready();

  // Records a completed rollback to `restored_step` (appends the ledger
  // entry for the in-flight anomaly).
  void on_rollback(i64 restored_step);

  // One-shot injection bookkeeping (persists across rollback and resume).
  bool injection_fired(i64 step) const;
  void mark_injection_fired(i64 step);

  bool in_recovery() const { return in_recovery_; }
  int escalation_level() const { return level_; }
  i64 rollback_step() const { return rollback_step_; }
  const std::vector<LedgerEntry>& ledger() const { return ledger_; }

  // Human-readable escalation history + current state, for
  // RunResult::guard_report on failure.
  std::string report() const;

  // ---- persistence ----------------------------------------------------------
  // The full sentinel state packs into one float tensor of a shape fixed by
  // the config (the checkpoint `extra` section requires exact shape match).
  static std::vector<i64> state_shape(const SentinelConfig& config);
  void export_state_into(core::Tensor& t) const;
  // Restores from an export_state_into() tensor; aborts on a shape/version
  // mismatch (the checkpoint schema pins both).
  void import_state(const core::Tensor& t);

  // Capacity caps baked into the state layout.
  static constexpr i64 kPendingCap = 16;   // checkpoints awaiting blessing
  static constexpr i64 kInjectedCap = 32;  // fired injections remembered

 private:
  double median_loss() const;
  float median_grad() const;

  SentinelConfig config_;
  MitigationPolicy policy_;

  // Robust baselines: ring buffers of the last `window` healthy signals.
  std::vector<float> loss_window_;
  std::vector<float> grad_window_;
  i64 loss_count_ = 0;  // total healthy losses ever pushed (ring position)
  i64 grad_count_ = 0;

  // Episode state.
  bool in_recovery_ = false;
  int level_ = 0;
  i64 rollback_step_ = -1;
  i64 last_anomaly_step_ = -1;
  Verdict pending_verdict_ = Verdict::kHealthy;  // anomaly awaiting rollback

  struct PendingBless {
    i64 step = -1;
    i64 healthy_seen = 0;
  };
  std::vector<PendingBless> pending_;
  std::vector<i64> injected_;
  std::vector<LedgerEntry> ledger_;
};

}  // namespace legw::guard
