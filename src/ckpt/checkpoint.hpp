// Crash-safe full-training-state checkpointing.
//
// The paper's claim (LEGW: sqrt(k) LR + k-scaled warmup survives very long
// large-batch runs without retuning) only matters at cluster scale if the
// run itself survives preemption — and per-layer adaptive state (momentum
// buffers, trust-ratio history, Adam moments; You et al. 2017) determines
// large-batch trajectories, so a resume that drops optimizer, RNG or
// schedule state silently changes the experiment. This subsystem checkpoints
// *everything* the four train runners mutate:
//
//   - model parameters and non-trainable buffers (BatchNorm running stats),
//   - every optimizer's per-parameter state via Optimizer::state_entries(),
//   - EMA shadow weights,
//   - named core::Rng streams (raw SplitMix64 counter + Box-Muller cache),
//   - epoch / step / micro-step counters (the schedule position is a pure
//     function of the step, so the counters pin it exactly),
//   - pending micro-batch gradients when saved mid-accumulation.
//
// The bytes are the sectioned container of core/container.hpp (the one
// codec ckpt and serve share); this module owns what goes into the sections
// and how a file is matched against and applied to live state. Version-1
// parameter-only files are readable for parameter-only restores. Every
// section carries a CRC32 over its payload, so truncation, torn writes, and
// bit flips are all *detected* and reported as a structured Status — never
// an LEGW_CHECK abort. Publication is atomic (write tmp → fsync → rename via
// core::AtomicFile): a crash mid-write leaves at most a stale .tmp next to
// an intact previous checkpoint. CheckpointManager adds
// the cadence/retention policy and, on restore, falls back across corrupted
// files to the newest valid one. A seeded CrashPlan injects simulated kills
// mid-step and mid-write so the failure paths are first-class tested,
// including the adversarial "torn publish" case of a non-atomic filesystem.
//
// Obs integration: `ckpt_write` / `ckpt_restore` spans and the
// `ckpt_writes` / `ckpt_bytes` / `ckpt_restores` / `ckpt_corrupt_skipped`
// counters. See docs/CHECKPOINT.md for the byte-level layout and knobs.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/container.hpp"
#include "core/mutex.hpp"
#include "core/rng.hpp"
#include "nn/module.hpp"
#include "optim/ema.hpp"
#include "optim/optimizer.hpp"

namespace legw::ckpt {

// The container codec's one status taxonomy (core/container.hpp).
using Status = core::container::Status;
using Result = core::container::Result;
using core::container::status_name;

// Pointers into one training run's live state. The runner fills this at
// save/restore time (the pointed-at objects move between steps — PTB's
// carried BPTT state is reassigned every chunk — so views are rebuilt per
// call, never cached). With data-parallel replicas, every aligned vector
// holds one entry per replica: save() writes replica 0 only (replicas are
// bit-synchronised), load() restores all of them bit-identically.
struct TrainState {
  std::vector<nn::Module*> models;            // required, >= 1
  std::vector<optim::Optimizer*> optimizers;  // aligned with models
  std::vector<optim::EmaWeights*> emas;       // empty, or aligned with models
  // Named RNG streams (dropout, ...). Restored by name.
  std::vector<std::pair<std::string, core::Rng*>> rngs;
  // Named extra tensors (PTB carried h/c, ...). Restored by name; shapes
  // must match.
  std::vector<std::pair<std::string, core::Tensor*>> extra;
  i64 step = 0;        // completed optimizer steps
  i64 epoch = 0;       // step / steps_per_epoch (informational; the
                       // runners re-derive position from `step`)
  i64 micro_step = 0;  // GradientAccumulator pending position; when > 0 the
                       // checkpoint also carries the accumulated gradients
};

// Serializes the state (replica 0) to the v2 container image in memory.
std::string encode(const TrainState& state);

// encode() + atomic publication to `path`. Parent directories must exist
// (CheckpointManager creates them).
[[nodiscard]] Result save(const TrainState& state, const std::string& path);

// Validating reader: parses and CRC-checks the *whole* file and matches it
// against the live state's schema before touching any live tensor, so a
// failed load leaves the state exactly as it was. Accepts v2 containers and
// v1 files (parameters only; optimizer/RNG/counter state is left untouched
// and the result message says so).
[[nodiscard]] Result load(TrainState& state, const std::string& path);

// load() over an in-memory container image — no file IO: restores straight
// from encode()'s bytes (load() reads the file, then calls this). `origin`
// only labels error messages.
[[nodiscard]] Result load_image(TrainState& state, const std::string& image,
                                const std::string& origin);

// A deterministic set of injected kills in the training loop. Steps are
// matched against TrainState::step.
struct CrashPlan {
  enum class Kind {
    kMidStep,      // process dies right after the step, before any write
    kMidWrite,     // dies mid checkpoint write: partial .tmp, nothing
                   // published — the previous checkpoint must survive
    kTornPublish,  // dies mid publication on a non-atomic filesystem: a
                   // truncated file lands at the final path and the loader
                   // must detect and skip it
  };
  struct Crash {
    i64 at_step = -1;
    Kind kind = Kind::kMidStep;
    double write_fraction = 0.5;  // fraction of bytes written before death
  };
  std::vector<Crash> crashes;

  static CrashPlan mid_step(i64 at_step);
  static CrashPlan mid_write(i64 at_step, double fraction = 0.5);
  static CrashPlan torn_publish(i64 at_step, double fraction = 0.5);
  // `count` distinct kill steps in [1, max_step] with kinds and fractions
  // drawn from a seeded core::Rng. Same seed, same plan.
  static CrashPlan random_kills(u64 seed, i64 max_step, int count);

  // The crash scheduled for `step`, or nullptr.
  const Crash* crash_at(i64 step) const;
};

struct ManagerConfig {
  std::string dir;       // created on first save
  i64 every_steps = 0;   // write cadence; 0 disables periodic saves
  int keep_last = 3;     // retention; <= 0 keeps every checkpoint
  const CrashPlan* crash = nullptr;  // not owned; nullptr = no injection
};

// Cadence + naming + retention + fallback policy over save()/load().
// Files are `<dir>/ckpt-<step, zero-padded>.legw`.
//
// Blessing: the stability sentinel (src/guard/) marks a checkpoint "blessed"
// only after N further healthy steps survive past it — a blessed checkpoint
// is a known-good rollback target, not merely the newest bytes on disk. The
// mark is a sidecar file `<ckpt>.blessed` (atomic to create, survives
// crashes, invisible to list_checkpoints' name filter). Retention will never
// reap the newest blessed checkpoint while unblessed ones exist ahead of it:
// those newer files are exactly the ones a divergence would invalidate, so
// deleting the last known-good state to make room for them would destroy the
// only safe rollback target.
class CheckpointManager {
 public:
  explicit CheckpointManager(ManagerConfig config);

  const ManagerConfig& config() const { return config_; }

  static std::string step_path(const std::string& dir, i64 step);
  // Checkpoint files in `dir`, sorted oldest → newest by step. Ignores
  // .tmp leftovers, .blessed markers and foreign files.
  static std::vector<std::string> list_checkpoints(const std::string& dir);
  // Step number parsed from a step_path-shaped filename, or -1.
  static i64 step_of(const std::string& path);
  // True when `path` carries a .blessed sidecar marker.
  static bool is_blessed(const std::string& path);

  // True when the cadence says `step` should be persisted.
  bool due(i64 step) const { return config_.every_steps > 0 && step > 0 &&
                                    step % config_.every_steps == 0; }

  // save() to step_path(state.step) when due (plus retention); kOk no-op
  // otherwise. A kSimulatedCrash result means the injected kill fired — the
  // caller should stop the run as if the process died.
  Result maybe_save(const TrainState& state) LEGW_EXCLUDES(io_mu_);
  // Unconditional save + retention (also the maybe_save workhorse).
  Result save_now(const TrainState& state) LEGW_EXCLUDES(io_mu_);

  // A candidate file rejected during a restore walk, with the structured
  // load failure (the message names the failing section).
  struct SkippedCheckpoint {
    std::string path;
    Status status = Status::kOk;
    std::string message;
  };

  struct RestoreOutcome {
    bool restored = false;
    std::string path;  // the file that restored
    // Corrupted candidates, newest first.
    std::vector<SkippedCheckpoint> skipped;
    Result status;  // kOk on success; kNoCheckpoint when dir has none; the
                    // last failure when every candidate was rejected
  };
  // Walks checkpoints newest → oldest, restoring the first one that loads
  // cleanly; corrupted/torn/truncated files are skipped, never fatal. Every
  // skip bumps the `ckpt_corrupt_skipped` obs counter and records a
  // `ckpt_corrupt_skipped` telemetry event carrying the path and the failing
  // section; a restore that had to fall past corrupt files also records a
  // `ckpt_fallback` event naming the file that finally restored.
  RestoreOutcome restore_latest(TrainState& state) LEGW_EXCLUDES(io_mu_);

  // ---- blessing (known-good rollback targets) -------------------------------

  // Marks the checkpoint at `step` blessed (atomic sidecar write). Fails with
  // kNoCheckpoint when no file exists for that step.
  Result bless(i64 step) LEGW_EXCLUDES(io_mu_);
  // Step of the newest blessed checkpoint on disk, or -1 when none.
  i64 newest_blessed_step() LEGW_EXCLUDES(io_mu_);
  // restore_latest restricted to blessed candidates (same skip semantics).
  RestoreOutcome restore_blessed(TrainState& state) LEGW_EXCLUDES(io_mu_);
  // Deletes every UNBLESSED checkpoint with step > `step`. Called after a
  // rollback: files ahead of the rollback target belong to the abandoned
  // (diverged) trajectory, and a crash before the next save must not resume
  // from them.
  void invalidate_after(i64 step) LEGW_EXCLUDES(io_mu_);

 private:
  void apply_retention() LEGW_REQUIRES(io_mu_);

  ManagerConfig config_;
  // Serialises save/retention/restore directory traffic: a retention delete
  // racing a concurrent save_now (e.g. an async checkpoint thread alongside
  // a final shutdown save) must not observe a half-applied directory.
  core::Mutex io_mu_;
};

}  // namespace legw::ckpt
