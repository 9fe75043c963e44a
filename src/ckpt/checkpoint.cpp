#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/counters.hpp"
#include "core/io.hpp"
#include "obs/trace.hpp"

namespace legw::ckpt {

namespace {

namespace container = core::container;
using container::append_named_tensor;
using container::append_pod;
using container::append_str;
using container::append_tensor;
using container::fail;
using container::TensorView;
using container::truncated;

// Validates a decoded named-tensor list against live named targets: same
// count, names and shapes in order.
template <typename GetName, typename GetTensor>
Result match(const char* what, const std::vector<TensorView>& staged,
             std::size_t n, GetName name_of, GetTensor tensor_of) {
  if (staged.size() != n) {
    return fail(Status::kStateMismatch,
                std::string(what) + ": file has " +
                    std::to_string(staged.size()) + " entries, state has " +
                    std::to_string(n));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (staged[i].name != name_of(i)) {
      return fail(Status::kStateMismatch,
                  std::string(what) + ": entry '" + staged[i].name +
                      "' does not match state entry '" + name_of(i) + "'");
    }
    const core::Tensor& dst = tensor_of(i);
    if (dst.shape() != staged[i].shape) {
      return fail(Status::kStateMismatch,
                  std::string(what) + ": shape mismatch for '" +
                      staged[i].name + "': file " +
                      core::shape_to_string(staged[i].shape) + " vs state " +
                      core::shape_to_string(dst.shape()));
    }
  }
  return {};
}

// Same for unnamed lists (ema shadows, pending grads): count and shapes.
Result match_shapes(const char* what, const std::vector<TensorView>& staged,
                    const std::vector<const core::Tensor*>& live) {
  if (staged.size() != live.size()) {
    return fail(Status::kStateMismatch,
                std::string("ckpt::load: ") + what + " count mismatch");
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i]->shape() != staged[i].shape) {
      return fail(Status::kStateMismatch,
                  std::string("ckpt::load: ") + what +
                      " shape mismatch at index " + std::to_string(i));
    }
  }
  return {};
}

}  // namespace

// ---- encode -----------------------------------------------------------------

std::string encode(const TrainState& state) {
  LEGW_CHECK(!state.models.empty(), "ckpt::encode: at least one model");
  LEGW_CHECK(state.optimizers.empty() ||
                 state.optimizers.size() == state.models.size(),
             "ckpt::encode: optimizers must align with models");
  LEGW_CHECK(state.emas.empty() || state.emas.size() == state.models.size(),
             "ckpt::encode: emas must align with models");
  const nn::Module& model = *state.models.front();
  std::vector<container::Section> sections;

  container::Meta meta;
  meta.step = state.step;
  meta.epoch = state.epoch;
  meta.micro_step = state.micro_step;
  if (!state.optimizers.empty()) meta.optimizer = state.optimizers.front()->name();
  sections.push_back({"meta", container::encode_meta(meta)});

  {
    std::string params;
    const auto named = model.named_parameters();
    append_pod(params, static_cast<u64>(named.size()));
    for (const auto& p : named) append_named_tensor(params, p.name, p.var.value());
    sections.push_back({"params", std::move(params)});
  }

  {
    std::string buffers;
    const auto named = model.named_buffers();
    append_pod(buffers, static_cast<u64>(named.size()));
    for (const auto& b : named) append_named_tensor(buffers, b.name, *b.tensor);
    sections.push_back({"buffers", std::move(buffers)});
  }

  if (!state.optimizers.empty()) {
    std::string optim;
    optim::Optimizer& opt = *state.optimizers.front();
    const auto view = opt.state_entries();
    append_str(optim, opt.name());
    append_pod(optim, static_cast<u32>(view.tensors.size()));
    for (const auto& e : view.tensors) {
      append_named_tensor(optim, e.name, *e.tensor);
    }
    append_pod(optim, static_cast<u32>(view.scalars.size()));
    for (const auto& e : view.scalars) {
      append_str(optim, e.name);
      append_pod(optim, *e.value);
    }
    sections.push_back({"optim", std::move(optim)});
  }

  if (!state.emas.empty()) {
    std::string ema;
    const auto& shadow = state.emas.front()->shadow();
    append_pod(ema, static_cast<u64>(shadow.size()));
    for (const auto& t : shadow) append_tensor(ema, t);
    sections.push_back({"ema", std::move(ema)});
  }

  {
    std::string rng;
    append_pod(rng, static_cast<u32>(state.rngs.size()));
    for (const auto& [name, stream] : state.rngs) {
      const core::Rng::State s = stream->state();
      append_str(rng, name);
      append_pod(rng, s.counter);
      append_pod(rng, static_cast<u16>(s.has_cached ? 1 : 0));
      append_pod(rng, s.cached);
    }
    sections.push_back({"rng", std::move(rng)});
  }

  {
    std::string extra;
    append_pod(extra, static_cast<u64>(state.extra.size()));
    for (const auto& [name, t] : state.extra) {
      append_named_tensor(extra, name, *t);
    }
    sections.push_back({"extra", std::move(extra)});
  }

  // Mid-accumulation saves carry the pending micro-batch gradient sum: the
  // micro-step counter alone cannot reproduce the interrupted large-batch
  // step without it.
  if (state.micro_step > 0) {
    std::string grads;
    const auto params_list = model.parameters();
    append_pod(grads, static_cast<u64>(params_list.size()));
    for (const auto& p : params_list) append_tensor(grads, p.grad());
    sections.push_back({"grads", std::move(grads)});
  }
  return container::write(sections);
}

Result save(const TrainState& state, const std::string& path) {
  obs::Span span("ckpt_write");
  if (state.models.empty()) {
    return fail(Status::kWriteFailed, "ckpt::save: no model in state");
  }
  const std::string image = encode(state);
  const core::Status st = core::atomic_write_file(path, image);
  if (!st.ok()) {
    return fail(Status::kWriteFailed, "ckpt::save: " + st.message());
  }
  core::count("ckpt_writes", 1);
  core::count("ckpt_bytes", static_cast<i64>(image.size()));
  return {};
}

// ---- load -------------------------------------------------------------------

Result load(TrainState& state, const std::string& path) {
  std::string image;
  const core::Status st = core::read_file(path, &image);
  if (!st.ok()) {
    return fail(Status::kOpenFailed, "ckpt::load: " + st.message());
  }
  return load_image(state, image, path);
}

Result load_image(TrainState& state, const std::string& image,
                  const std::string& path) {
  obs::Span span("ckpt_restore");
  if (state.models.empty()) {
    return fail(Status::kStateMismatch, "ckpt::load: no model in state");
  }
  if (!state.optimizers.empty() &&
      state.optimizers.size() != state.models.size()) {
    return fail(Status::kStateMismatch,
                "ckpt::load: optimizers must align with models");
  }
  container::Container c;
  if (Result res = container::parse(image, &c); !res.ok()) {
    res.message = "ckpt::load: " + res.message + " in " + path;
    return res;
  }
  const auto missing = [&](const char* name, Status status) {
    return fail(status, std::string("ckpt::load: ") + path + " has no '" +
                            name + "' section");
  };
  // Decodes tensor-list section `name`; `absent` is the status when missing.
  const auto stage = [&](const char* name, Status absent, bool named,
                         std::vector<TensorView>* out) {
    const std::string_view* payload = c.find(name);
    return payload == nullptr
               ? missing(name, absent)
               : container::decode_tensor_list(*payload, named, name, out);
  };
  nn::Module& front = *state.models.front();

  // ---- stage 1: decode + validate everything against the live schema ------

  std::vector<TensorView> staged_params;
  {
    Result res = stage("params", Status::kMalformed, true, &staged_params);
    if (!res.ok()) return res;
    auto named = front.named_parameters();
    res = match("params", staged_params, named.size(),
                [&](std::size_t i) { return named[i].name; },
                [&](std::size_t i) -> const core::Tensor& {
                  return named[i].var.value();
                });
    if (!res.ok()) return res;
  }
  // A v1 file carries parameters only: restore them and leave every other
  // piece of state (optimizer, RNG, counters) as it is.
  if (c.version == 1) {
    for (nn::Module* model : state.models) {
      auto named = model->named_parameters();
      for (std::size_t i = 0; i < named.size(); ++i) {
        staged_params[i].copy_to(named[i].var.mutable_value());
      }
    }
    Result res;
    res.message = "v1 checkpoint " + path + ": parameters restored, "
                  "optimizer/RNG/counter state not present in this version";
    return res;
  }

  container::Meta meta;
  const std::string_view* meta_payload = c.find("meta");
  if (meta_payload == nullptr) return missing("meta", Status::kMalformed);
  if (Result res = container::decode_meta(*meta_payload, &meta); !res.ok()) {
    return res;
  }
  if (!state.optimizers.empty() &&
      meta.optimizer != state.optimizers.front()->name()) {
    return fail(Status::kStateMismatch,
                "ckpt::load: checkpoint was written by optimizer '" +
                    meta.optimizer + "', state has '" +
                    state.optimizers.front()->name() + "'");
  }

  // buffers (required in v2 — written even when empty)
  std::vector<TensorView> staged_buffers;
  {
    Result res = stage("buffers", Status::kMalformed, true, &staged_buffers);
    if (!res.ok()) return res;
    auto named = front.named_buffers();
    res = match("buffers", staged_buffers, named.size(),
                [&](std::size_t i) { return named[i].name; },
                [&](std::size_t i) -> const core::Tensor& {
                  return *named[i].tensor;
                });
    if (!res.ok()) return res;
  }

  // optim (required iff the state carries optimizers)
  std::vector<TensorView> staged_opt_tensors;
  std::vector<std::pair<std::string, i64>> staged_opt_scalars;
  if (!state.optimizers.empty()) {
    const std::string_view* payload = c.find("optim");
    if (payload == nullptr) return missing("optim", Status::kStateMismatch);
    container::Reader r(*payload);
    std::string opt_name;
    u32 n_tensors = 0;
    // Each entry takes at least its u32 name length and u64 ndim, so a count
    // the payload cannot hold is rejected before it sizes an allocation.
    if (!r.str(&opt_name) || !r.pod(&n_tensors) ||
        n_tensors > r.remaining() / 12) {
      return truncated("optim");
    }
    staged_opt_tensors.resize(n_tensors);
    for (auto& t : staged_opt_tensors) {
      if (!container::decode_tensor(r, /*named=*/true, &t)) {
        return truncated("optim entry");
      }
    }
    u32 n_scalars = 0;
    if (!r.pod(&n_scalars) || n_scalars > 1024) return truncated("optim");
    staged_opt_scalars.resize(n_scalars);
    for (auto& [key, value] : staged_opt_scalars) {
      if (!r.str(&key) || !r.pod(&value)) return truncated("optim");
    }
    for (optim::Optimizer* opt : state.optimizers) {
      if (opt->name() != opt_name) {
        return fail(Status::kStateMismatch,
                    "ckpt::load: optim section is for '" + opt_name +
                        "', state optimizer is '" + opt->name() + "'");
      }
      auto view = opt->state_entries();
      Result res = match("optim", staged_opt_tensors, view.tensors.size(),
                  [&](std::size_t i) { return view.tensors[i].name; },
                  [&](std::size_t i) -> const core::Tensor& {
                    return *view.tensors[i].tensor;
                  });
      if (!res.ok()) return res;
      if (staged_opt_scalars.size() != view.scalars.size()) {
        return fail(Status::kStateMismatch,
                    "ckpt::load: optim scalar count mismatch");
      }
      for (std::size_t i = 0; i < view.scalars.size(); ++i) {
        if (staged_opt_scalars[i].first != view.scalars[i].name) {
          return fail(Status::kStateMismatch,
                      "ckpt::load: optim scalar '" +
                          staged_opt_scalars[i].first +
                          "' does not match state scalar '" +
                          view.scalars[i].name + "'");
        }
      }
    }
  }

  // ema (required iff the state carries EMA weights)
  std::vector<TensorView> staged_ema;
  if (!state.emas.empty()) {
    Result res = stage("ema", Status::kStateMismatch, false, &staged_ema);
    if (!res.ok()) return res;
    for (optim::EmaWeights* ema : state.emas) {
      std::vector<const core::Tensor*> live;
      for (const auto& t : ema->shadow()) live.push_back(&t);
      res = match_shapes("ema shadow", staged_ema, live);
      if (!res.ok()) return res;
    }
  }

  // rng (required; name sets must match exactly)
  std::vector<std::pair<std::string, core::Rng::State>> staged_rngs;
  {
    const std::string_view* payload = c.find("rng");
    if (payload == nullptr) return missing("rng", Status::kMalformed);
    container::Reader r(*payload);
    u32 n = 0;
    if (!r.pod(&n) || n > 1024) return truncated("rng");
    staged_rngs.resize(n);
    for (auto& [name, s] : staged_rngs) {
      u16 has_cached = 0;
      if (!r.str(&name) || !r.pod(&s.counter) || !r.pod(&has_cached) ||
          !r.pod(&s.cached)) {
        return truncated("rng entry");
      }
      s.has_cached = has_cached != 0;
    }
    if (staged_rngs.size() != state.rngs.size()) {
      return fail(Status::kStateMismatch,
                  "ckpt::load: rng stream count mismatch (file " +
                      std::to_string(staged_rngs.size()) + ", state " +
                      std::to_string(state.rngs.size()) + ")");
    }
    for (std::size_t i = 0; i < staged_rngs.size(); ++i) {
      if (staged_rngs[i].first != state.rngs[i].first) {
        return fail(Status::kStateMismatch,
                    "ckpt::load: rng stream '" + staged_rngs[i].first +
                        "' does not match state stream '" +
                        state.rngs[i].first + "'");
      }
    }
  }

  // extra (required; name sets and shapes must match exactly)
  std::vector<TensorView> staged_extra;
  {
    Result res = stage("extra", Status::kMalformed, true, &staged_extra);
    if (!res.ok()) return res;
    res = match("extra", staged_extra, state.extra.size(),
                [&](std::size_t i) { return state.extra[i].first; },
                [&](std::size_t i) -> const core::Tensor& {
                  return *state.extra[i].second;
                });
    if (!res.ok()) return res;
  }

  // grads (present iff saved mid-accumulation)
  std::vector<TensorView> staged_grads;
  if (meta.micro_step > 0) {
    Result res = stage("grads", Status::kMalformed, false, &staged_grads);
    if (!res.ok()) return res;
    const auto params_list = front.parameters();
    std::vector<const core::Tensor*> live;
    for (const auto& p : params_list) live.push_back(&p.value());
    res = match_shapes("grads", staged_grads, live);
    if (!res.ok()) return res;
  }

  // ---- stage 2: the file is fully valid — apply to every replica -----------

  for (nn::Module* model : state.models) {
    auto named = model->named_parameters();
    for (std::size_t i = 0; i < named.size(); ++i) {
      staged_params[i].copy_to(named[i].var.mutable_value());
    }
    auto buffers = model->named_buffers();
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      staged_buffers[i].copy_to(*buffers[i].tensor);
    }
    if (meta.micro_step > 0) {
      auto params_list = model->parameters();
      for (std::size_t i = 0; i < params_list.size(); ++i) {
        staged_grads[i].copy_to(params_list[i].mutable_grad());
      }
    }
  }
  for (optim::Optimizer* opt : state.optimizers) {
    auto view = opt->state_entries();
    for (std::size_t i = 0; i < view.tensors.size(); ++i) {
      staged_opt_tensors[i].copy_to(*view.tensors[i].tensor);
    }
    for (std::size_t i = 0; i < view.scalars.size(); ++i) {
      *view.scalars[i].value = staged_opt_scalars[i].second;
    }
  }
  for (optim::EmaWeights* ema : state.emas) {
    auto& shadow = ema->mutable_shadow();
    for (std::size_t i = 0; i < shadow.size(); ++i) {
      staged_ema[i].copy_to(shadow[i]);
    }
  }
  for (std::size_t i = 0; i < state.rngs.size(); ++i) {
    state.rngs[i].second->set_state(staged_rngs[i].second);
  }
  for (std::size_t i = 0; i < state.extra.size(); ++i) {
    staged_extra[i].copy_to(*state.extra[i].second);
  }
  state.step = meta.step;
  state.epoch = meta.epoch;
  state.micro_step = meta.micro_step;
  core::count("ckpt_restores", 1);
  return {};
}

// ---- CrashPlan --------------------------------------------------------------

CrashPlan CrashPlan::mid_step(i64 at_step) {
  CrashPlan plan;
  plan.crashes.push_back({at_step, Kind::kMidStep, 0.0});
  return plan;
}

CrashPlan CrashPlan::mid_write(i64 at_step, double fraction) {
  CrashPlan plan;
  plan.crashes.push_back({at_step, Kind::kMidWrite, fraction});
  return plan;
}

CrashPlan CrashPlan::torn_publish(i64 at_step, double fraction) {
  CrashPlan plan;
  plan.crashes.push_back({at_step, Kind::kTornPublish, fraction});
  return plan;
}

CrashPlan CrashPlan::random_kills(u64 seed, i64 max_step, int count) {
  LEGW_CHECK(max_step >= 1, "CrashPlan: max_step must be >= 1");
  core::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  CrashPlan plan;
  while (static_cast<int>(plan.crashes.size()) < count) {
    const i64 step =
        1 + static_cast<i64>(rng.uniform_int(static_cast<u64>(max_step)));
    if (plan.crash_at(step) != nullptr) continue;
    Crash c;
    c.at_step = step;
    const u64 kind = rng.uniform_int(3);
    c.kind = kind == 0 ? Kind::kMidStep
                       : (kind == 1 ? Kind::kMidWrite : Kind::kTornPublish);
    c.write_fraction = 0.25 + 0.5 * rng.uniform();
    plan.crashes.push_back(c);
  }
  return plan;
}

const CrashPlan::Crash* CrashPlan::crash_at(i64 step) const {
  for (const auto& c : crashes) {
    if (c.at_step == step) return &c;
  }
  return nullptr;
}

// ---- CheckpointManager ------------------------------------------------------

CheckpointManager::CheckpointManager(ManagerConfig config)
    : config_(std::move(config)) {
  LEGW_CHECK(!config_.dir.empty(), "CheckpointManager: dir required");
}

std::string CheckpointManager::step_path(const std::string& dir, i64 step) {
  char name[32];
  std::snprintf(name, sizeof name, "ckpt-%012lld.legw",
                static_cast<long long>(step));
  return dir + "/" + name;
}

std::vector<std::string> CheckpointManager::list_checkpoints(
    const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::pair<i64, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    // ckpt-<digits>.legw, nothing else (ignores .tmp leftovers).
    const i64 step = step_of(entry.path().string());
    if (step >= 0) found.emplace_back(step, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [step, path] : found) out.push_back(std::move(path));
  return out;
}

i64 CheckpointManager::step_of(const std::string& path) {
  const std::string name = std::filesystem::path(path).filename().string();
  if (name.size() <= 10 || name.rfind("ckpt-", 0) != 0 ||
      name.substr(name.size() - 5) != ".legw") {
    return -1;
  }
  const std::string digits = name.substr(5, name.size() - 10);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return -1;
  }
  return std::stoll(digits);
}

bool CheckpointManager::is_blessed(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path + ".blessed", ec);
}

Result CheckpointManager::maybe_save(const TrainState& state) {
  if (!due(state.step)) return {};
  return save_now(state);
}

Result CheckpointManager::save_now(const TrainState& state) {
  core::MutexLock lock(io_mu_);
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  const std::string path = step_path(config_.dir, state.step);
  const CrashPlan::Crash* crash =
      config_.crash == nullptr ? nullptr : config_.crash->crash_at(state.step);
  if (crash != nullptr && crash->kind != CrashPlan::Kind::kMidStep) {
    // Simulated kill mid-write: emit exactly the bytes a dead process would
    // leave behind — a truncated staging file (kMidWrite, never published;
    // restore must ignore it and use the previous checkpoint) or a truncated
    // file at the final path (kTornPublish, modelling a non-atomic
    // filesystem; restore must detect the damage and fall back). Deliberately
    // not the atomic writer: the injection bypasses it the way a crash would.
    const std::string image = encode(state);
    const double f = std::clamp(crash->write_fraction, 0.0, 1.0);
    const auto cut = static_cast<std::size_t>(f * static_cast<double>(image.size()));
    const std::string target =
        crash->kind == CrashPlan::Kind::kMidWrite ? path + ".tmp" : path;
    // lint-allow: atomic-write — crash injector writes a torn file on purpose.
    std::FILE* out = std::fopen(target.c_str(), "wb");
    if (out != nullptr) {
      std::fwrite(image.data(), 1, cut, out);
      std::fclose(out);
    }
    return fail(Status::kSimulatedCrash,
                "injected kill during write of " + path + " (" +
                    std::to_string(cut) + "/" + std::to_string(image.size()) +
                    " bytes)");
  }
  Result r = save(state, path);
  if (r.ok()) apply_retention();
  return r;
}

namespace {

// Shared newest→oldest restore walk over `files`; `label` distinguishes the
// latest/blessed variants in error messages.
CheckpointManager::RestoreOutcome restore_walk(
    TrainState& state, const std::vector<std::string>& files,
    const std::string& dir, const std::string& label) {
  CheckpointManager::RestoreOutcome out;
  if (files.empty()) {
    out.status =
        fail(Status::kNoCheckpoint, "no " + label + " checkpoints in " + dir);
    return out;
  }
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    Result r = load(state, *it);
    if (r.ok()) {
      out.restored = true;
      out.path = *it;
      out.status = std::move(r);
      if (!out.skipped.empty()) {
        // The newest file(s) were corrupt and an older one restored — that
        // fallback is the incident a post-mortem needs to see.
        obs::TraceRecorder::global().add_event(
            "ckpt_fallback",
            {{"restored", out.path},
             {"skipped", std::to_string(out.skipped.size())}});
      }
      return out;
    }
    out.skipped.push_back(
        CheckpointManager::SkippedCheckpoint{*it, r.status, r.message});
    core::count("ckpt_corrupt_skipped", 1);
    obs::TraceRecorder::global().add_event(
        "ckpt_corrupt_skipped",
        {{"path", *it},
         {"status", status_name(r.status)},
         {"error", r.message}});
    out.status = std::move(r);
  }
  return out;
}

}  // namespace

CheckpointManager::RestoreOutcome CheckpointManager::restore_latest(
    TrainState& state) {
  core::MutexLock lock(io_mu_);
  return restore_walk(state, list_checkpoints(config_.dir), config_.dir,
                      "candidate");
}

CheckpointManager::RestoreOutcome CheckpointManager::restore_blessed(
    TrainState& state) {
  core::MutexLock lock(io_mu_);
  std::vector<std::string> blessed;
  for (const auto& path : list_checkpoints(config_.dir)) {
    if (is_blessed(path)) blessed.push_back(path);
  }
  return restore_walk(state, blessed, config_.dir, "blessed");
}

Result CheckpointManager::bless(i64 step) {
  core::MutexLock lock(io_mu_);
  const std::string path = step_path(config_.dir, step);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return fail(Status::kNoCheckpoint, "bless: no checkpoint at " + path);
  }
  // The marker is existence-only metadata: is_blessed() never reads the
  // content, and a marker lost to power loss merely ages the rollback
  // target by one blessing. Skipping the atomic-write fsync keeps blessing
  // off the step's critical path (one fsync per cadence would dominate the
  // sentinel's healthy overhead).
  // lint-allow: atomic-write — existence-only marker, loss is safe
  std::FILE* f = std::fopen((path + ".blessed").c_str(), "wb");
  if (f == nullptr) {
    return fail(Status::kWriteFailed, "bless: cannot create marker for " + path);
  }
  std::fputs("blessed\n", f);
  if (std::fclose(f) != 0) {
    return fail(Status::kWriteFailed, "bless: marker close failed for " + path);
  }
  return {};
}

i64 CheckpointManager::newest_blessed_step() {
  core::MutexLock lock(io_mu_);
  const auto files = list_checkpoints(config_.dir);
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    if (is_blessed(*it)) return step_of(*it);
  }
  return -1;
}

void CheckpointManager::invalidate_after(i64 step) {
  core::MutexLock lock(io_mu_);
  for (const auto& path : list_checkpoints(config_.dir)) {
    if (step_of(path) > step && !is_blessed(path)) {
      std::remove(path.c_str());
    }
  }
}

void CheckpointManager::apply_retention() {
  if (config_.keep_last <= 0) return;
  auto files = list_checkpoints(config_.dir);
  // The newest blessed checkpoint is the run's only known-good rollback
  // target while newer (still-unblessed) files exist ahead of it; retention
  // must not reap it to make room for exactly the files a divergence would
  // invalidate.
  std::string protect;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    if (is_blessed(*it)) {
      if (it != files.rbegin()) protect = *it;  // unblessed files exist ahead
      break;
    }
  }
  // The protected file rides above the budget: the run still keeps its
  // keep_last newest checkpoints for normal resume.
  const std::size_t budget = static_cast<std::size_t>(config_.keep_last) +
                             (protect.empty() ? 0u : 1u);
  std::size_t i = 0;
  while (files.size() > budget && i < files.size()) {
    if (files[i] == protect) {
      ++i;
      continue;
    }
    std::remove(files[i].c_str());
    std::remove((files[i] + ".blessed").c_str());  // stale marker, if any
    files.erase(files.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

}  // namespace legw::ckpt
