// Checkpoint subsystem: atomic IO, CRC32, RNG state capture, optimizer state
// introspection, full TrainState round trips, v1 compatibility, the
// corrupted-file corpus, crash injection, and retention. Every corruption
// case must come back as a structured ckpt::Status — never an abort — in
// both the default and checked builds (this file runs under both presets).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ag/ops.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/container.hpp"
#include "core/crc32.hpp"
#include "core/io.hpp"
#include "core/rng.hpp"
#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "optim/ema.hpp"
#include "optim/optimizer.hpp"
#include "serve/container.hpp"
#include "serve/session.hpp"
#include "train/accumulate.hpp"

namespace legw {
namespace {

using core::Rng;
using core::Tensor;

struct TempDir {
  std::string path;
  // Suffixed with the pid: ctest -j runs each test of this binary as its own
  // process, and fixtures reusing a name (CorruptionCorpus's "corpus") must
  // not have one process's teardown remove_all another's live directory.
  explicit TempDir(const char* name)
      : path(std::string("/tmp/legw_ckpt_") + name + "_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string file(const char* name) const { return path + "/" + name; }
};

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// A version-1 (parameter-only) file: "LEGWCKPT" | u32 1 | a body that is
// byte-identical to the v2 `params` payload.
std::string encode_v1(const nn::Module& model) {
  std::string out = "LEGWCKPT";
  core::container::append_pod(out, u32{1});
  const auto named = model.named_parameters();
  core::container::append_pod(out, static_cast<u64>(named.size()));
  for (const auto& p : named) {
    core::container::append_named_tensor(out, p.name, p.var.value());
  }
  return out;
}

// Drives a few optimizer steps with a deterministic synthetic gradient so
// per-parameter state (momenta, moments, accumulators) becomes non-trivial.
void run_steps(nn::Module& model, optim::Optimizer& opt, int steps,
               u64 seed) {
  Rng rng(seed);
  opt.set_lr(0.05f);
  for (int s = 0; s < steps; ++s) {
    for (ag::Variable p : opt.params()) {  // cheap shared handle
      Tensor& g = p.mutable_grad();
      for (i64 i = 0; i < g.numel(); ++i) {
        g[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
    }
    opt.step();
    model.zero_grad();
  }
}

bool tensors_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (i64 i = 0; i < a.numel(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// ---- core::AtomicFile -------------------------------------------------------

TEST(AtomicFile, CommitPublishesExactBytes) {
  TempDir dir("atomic_commit");
  const std::string path = dir.file("out.txt");
  core::AtomicFile f(path);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.write("hello", 5));
  EXPECT_FALSE(std::filesystem::exists(path));  // nothing published yet
  const core::Status st = f.commit();
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(read_file(path), "hello");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicFile, UncommittedWriteLeavesPreviousContent) {
  TempDir dir("atomic_discard");
  const std::string path = dir.file("out.txt");
  const core::Status st = core::atomic_write_file(path, "old");
  ASSERT_TRUE(st.ok()) << st.message();
  {
    core::AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.write("new-but-torn", 12));
    // destroyed without commit — models a crash mid-write
  }
  EXPECT_EQ(read_file(path), "old");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicFile, WriteFileOverwritesAtomically) {
  TempDir dir("atomic_overwrite");
  const std::string path = dir.file("out.txt");
  ASSERT_TRUE(core::atomic_write_file(path, "first").ok());
  ASSERT_TRUE(core::atomic_write_file(path, "second").ok());
  EXPECT_EQ(read_file(path), "second");
}

// ---- core::crc32 ------------------------------------------------------------

TEST(Crc32, MatchesKnownVectors) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(core::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(core::crc32("", 0), 0u);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  const u32 clean = core::crc32(data.data(), data.size());
  for (std::size_t byte : {0u, 10u, 42u}) {
    std::string flipped = data;
    flipped[byte] ^= 0x10;
    EXPECT_NE(core::crc32(flipped.data(), flipped.size()), clean);
  }
}

// ---- core::Rng state --------------------------------------------------------

TEST(RngState, ContinuesUniformStreamExactly) {
  Rng a(42);
  for (int i = 0; i < 17; ++i) a.uniform();
  const Rng::State snap = a.state();

  Rng b(999);  // unrelated seed; state overrides it completely
  b.set_state(snap);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.uniform(), b.uniform()) << "draw " << i;
  }
}

TEST(RngState, CapturesBoxMullerCache) {
  // Stop mid-pair: normal() caches the second variate, and a resume that
  // drops the cache would shift every subsequent draw by one.
  Rng a(7);
  (void)a.normal();  // generates a pair, caches one
  const Rng::State snap = a.state();
  EXPECT_TRUE(snap.has_cached);

  Rng b(1);
  b.set_state(snap);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(a.normal(), b.normal()) << "draw " << i;
    ASSERT_EQ(a.uniform(), b.uniform()) << "draw " << i;
  }
}

// ---- Optimizer::state_entries ----------------------------------------------

TEST(OptimizerState, EveryOptimizerExposesItsState) {
  const struct {
    const char* name;
    std::size_t tensors_per_param;
    std::size_t scalars;  // includes the base steps_done
  } expected[] = {
      {"sgd", 0, 1},      {"momentum", 1, 1}, {"nesterov", 1, 1},
      {"adagrad", 1, 1},  {"rmsprop", 1, 1},  {"adam", 2, 2},
      {"adadelta", 2, 1}, {"lars", 1, 1},     {"lamb", 2, 2},
  };
  for (const auto& e : expected) {
    Rng rng(3);
    nn::Linear model(4, 3, rng);
    auto opt = optim::make_optimizer(e.name, model.parameters(), 0.0f);
    run_steps(model, *opt, 2, 11);
    const auto view = opt->state_entries();
    EXPECT_EQ(view.tensors.size(), e.tensors_per_param * 2) << e.name;
    EXPECT_EQ(view.scalars.size(), e.scalars) << e.name;
    for (const auto& t : view.tensors) {
      EXPECT_NE(t.tensor, nullptr) << e.name << " " << t.name;
    }
  }
}

TEST(OptimizerState, RoundTripReproducesUpdatesBitwise) {
  // For every optimizer: train a few steps, checkpoint, train N more; then
  // restore into a fresh model+optimizer and train the same N — the
  // parameters must match bit for bit (state-dependent updates and all).
  for (const char* name : {"sgd", "momentum", "nesterov", "adagrad", "rmsprop",
                           "adam", "adadelta", "lars", "lamb"}) {
    TempDir dir((std::string("optroundtrip_") + name).c_str());
    const std::string path = dir.file("state.legw");

    Rng rng(3);
    nn::Linear a(4, 3, rng);
    auto opt_a = optim::make_optimizer(name, a.parameters(), 0.01f);
    run_steps(a, *opt_a, 3, 21);
    {
      ckpt::TrainState state;
      state.models.push_back(&a);
      state.optimizers.push_back(opt_a.get());
      state.step = 3;
      const auto res = ckpt::save(state, path);
      ASSERT_TRUE(res.ok()) << name << ": " << res.message;
    }
    run_steps(a, *opt_a, 4, 22);

    Rng rng_b(777);  // different init — restore must overwrite everything
    nn::Linear b(4, 3, rng_b);
    auto opt_b = optim::make_optimizer(name, b.parameters(), 0.01f);
    {
      ckpt::TrainState state;
      state.models.push_back(&b);
      state.optimizers.push_back(opt_b.get());
      const auto res = ckpt::load(state, path);
      ASSERT_TRUE(res.ok()) << name << ": " << res.message;
      EXPECT_EQ(state.step, 3);
    }
    run_steps(b, *opt_b, 4, 22);

    const auto pa = a.parameters();
    const auto pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_TRUE(tensors_equal(pa[i].value(), pb[i].value()))
          << name << " param " << i;
    }
  }
}

TEST(OptimizerState, RejectsWrongOptimizerType) {
  TempDir dir("wrongopt");
  const std::string path = dir.file("state.legw");
  Rng rng(3);
  nn::Linear a(4, 3, rng);
  auto adam = optim::make_optimizer("adam", a.parameters(), 0.0f);
  ckpt::TrainState state;
  state.models.push_back(&a);
  state.optimizers.push_back(adam.get());
  ASSERT_TRUE(ckpt::save(state, path).ok());

  auto lamb = optim::make_optimizer("lamb", a.parameters(), 0.0f);
  ckpt::TrainState other;
  other.models.push_back(&a);
  other.optimizers.push_back(lamb.get());
  const auto res = ckpt::load(other, path);
  EXPECT_EQ(res.status, ckpt::Status::kStateMismatch);
}

// ---- full TrainState round trip ---------------------------------------------

TEST(TrainStateRoundTrip, RestoresEverySection) {
  TempDir dir("full");
  const std::string path = dir.file("full.legw");

  Rng rng(5);
  nn::Linear model(3, 2, rng);
  auto opt = optim::make_optimizer("adam", model.parameters(), 0.0f);
  run_steps(model, *opt, 2, 31);
  optim::EmaWeights ema(model.parameters(), 0.9f);
  ema.update();
  Rng dropout(123);
  for (int i = 0; i < 5; ++i) dropout.uniform();
  Tensor carried = Tensor::randn({2, 4}, rng);

  ckpt::TrainState state;
  state.models.push_back(&model);
  state.optimizers.push_back(opt.get());
  state.emas.push_back(&ema);
  state.rngs.emplace_back("dropout", &dropout);
  state.extra.emplace_back("carried", &carried);
  state.step = 2;
  state.epoch = 1;
  ASSERT_TRUE(ckpt::save(state, path).ok());

  // A divergent copy of everything.
  Rng rng_b(999);
  nn::Linear model_b(3, 2, rng_b);
  auto opt_b = optim::make_optimizer("adam", model_b.parameters(), 0.0f);
  optim::EmaWeights ema_b(model_b.parameters(), 0.9f);
  Rng dropout_b(1);
  Tensor carried_b = Tensor::zeros({2, 4});

  ckpt::TrainState tgt;
  tgt.models.push_back(&model_b);
  tgt.optimizers.push_back(opt_b.get());
  tgt.emas.push_back(&ema_b);
  tgt.rngs.emplace_back("dropout", &dropout_b);
  tgt.extra.emplace_back("carried", &carried_b);
  const auto res = ckpt::load(tgt, path);
  ASSERT_TRUE(res.ok()) << res.message;

  EXPECT_EQ(tgt.step, 2);
  EXPECT_EQ(tgt.epoch, 1);
  const auto pa = model.parameters();
  const auto pb = model_b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(tensors_equal(pa[i].value(), pb[i].value())) << "param " << i;
  }
  for (std::size_t i = 0; i < ema.shadow().size(); ++i) {
    EXPECT_TRUE(tensors_equal(ema.shadow()[i], ema_b.shadow()[i]))
        << "shadow " << i;
  }
  EXPECT_TRUE(tensors_equal(carried, carried_b));
  for (int i = 0; i < 20; ++i) ASSERT_EQ(dropout.uniform(), dropout_b.uniform());
}

TEST(TrainStateRoundTrip, RestoresIntoMultipleReplicas) {
  TempDir dir("replicas");
  const std::string path = dir.file("r.legw");
  Rng rng(5);
  nn::Linear source(3, 2, rng);
  auto opt = optim::make_optimizer("momentum", source.parameters(), 0.0f);
  run_steps(source, *opt, 2, 41);
  ckpt::TrainState state;
  state.models.push_back(&source);
  state.optimizers.push_back(opt.get());
  state.step = 2;
  ASSERT_TRUE(ckpt::save(state, path).ok());

  std::vector<std::unique_ptr<nn::Linear>> reps;
  std::vector<std::unique_ptr<optim::Optimizer>> opts;
  ckpt::TrainState tgt;
  for (int r = 0; r < 3; ++r) {
    Rng rr(100 + r);
    reps.push_back(std::make_unique<nn::Linear>(3, 2, rr));
    opts.push_back(
        optim::make_optimizer("momentum", reps.back()->parameters(), 0.0f));
    tgt.models.push_back(reps.back().get());
    tgt.optimizers.push_back(opts.back().get());
  }
  ASSERT_TRUE(ckpt::load(tgt, path).ok());
  for (int r = 0; r < 3; ++r) {
    const auto ps = source.parameters();
    const auto pr = reps[static_cast<std::size_t>(r)]->parameters();
    for (std::size_t i = 0; i < ps.size(); ++i) {
      EXPECT_TRUE(tensors_equal(ps[i].value(), pr[i].value()))
          << "replica " << r << " param " << i;
    }
  }
}

TEST(TrainStateRoundTrip, RestoresModuleBuffers) {
  // BatchNorm running stats are buffers, not parameters — a resume that
  // dropped them would evaluate with fresh statistics.
  TempDir dir("buffers");
  const std::string path = dir.file("bn.legw");
  nn::BatchNorm2d bn(4);
  auto buffers = bn.named_buffers();
  ASSERT_EQ(buffers.size(), 2u);
  Rng rng(9);
  for (auto& b : buffers) {
    for (i64 i = 0; i < b.tensor->numel(); ++i) {
      (*b.tensor)[i] = static_cast<float>(rng.uniform(0.5, 1.5));
    }
  }
  ckpt::TrainState state;
  state.models.push_back(&bn);
  ASSERT_TRUE(ckpt::save(state, path).ok());

  nn::BatchNorm2d bn_b(4);
  ckpt::TrainState tgt;
  tgt.models.push_back(&bn_b);
  ASSERT_TRUE(ckpt::load(tgt, path).ok());
  const auto ba = bn.named_buffers();
  const auto bb = bn_b.named_buffers();
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_EQ(ba[i].name, bb[i].name);
    EXPECT_TRUE(tensors_equal(*ba[i].tensor, *bb[i].tensor)) << ba[i].name;
  }
}

TEST(TrainStateRoundTrip, CarriesMidAccumulationGradients) {
  TempDir dir("grads");
  const std::string path = dir.file("acc.legw");
  Rng rng(5);
  nn::Linear model(3, 2, rng);
  train::GradientAccumulator acc(model.parameters());
  for (int m = 0; m < 2; ++m) {
    acc.micro_step([&] {
      Tensor x = Tensor::randn({2, 3}, rng);
      return ag::mean_all(model.forward(ag::Variable::constant(x)));
    });
  }
  ASSERT_EQ(acc.pending_micro_steps(), 2);

  ckpt::TrainState state;
  state.models.push_back(&model);
  state.step = 0;
  state.micro_step = acc.pending_micro_steps();
  ASSERT_TRUE(ckpt::save(state, path).ok());

  Rng rng_b(88);
  nn::Linear model_b(3, 2, rng_b);
  train::GradientAccumulator acc_b(model_b.parameters());
  ckpt::TrainState tgt;
  tgt.models.push_back(&model_b);
  ASSERT_TRUE(ckpt::load(tgt, path).ok());
  EXPECT_EQ(tgt.micro_step, 2);
  acc_b.restore_pending(tgt.micro_step);
  EXPECT_EQ(acc_b.pending_micro_steps(), 2);
  const auto pa = model.parameters();
  const auto pb = model_b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(tensors_equal(pa[i].grad(), pb[i].grad())) << "grad " << i;
  }
}

TEST(TrainStateRoundTrip, ReadsV1ParameterOnlyFiles) {
  TempDir dir("v1");
  const std::string path = dir.file("v1.ckpt");
  Rng rng(5);
  nn::Linear a(4, 3, rng);
  write_file(path, encode_v1(a));

  Rng rng_b(99);
  nn::Linear b(4, 3, rng_b);
  auto opt_b = optim::make_optimizer("momentum", b.parameters(), 0.0f);
  ckpt::TrainState tgt;
  tgt.models.push_back(&b);
  tgt.optimizers.push_back(opt_b.get());
  tgt.step = 55;  // must survive: v1 has no counters
  const auto res = ckpt::load(tgt, path);
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_NE(res.message.find("v1"), std::string::npos);
  EXPECT_EQ(tgt.step, 55);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(tensors_equal(pa[i].value(), pb[i].value())) << "param " << i;
  }
}

// ---- format pin -------------------------------------------------------------

// Every float from seeded integers / 64: exactly representable, so the image
// bytes cannot depend on how the compiler contracts floating-point math.
void fill_exact(Tensor& t, Rng& rng) {
  for (i64 i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(static_cast<int>(rng.uniform_int(2001)) - 1000) /
           64.0f;
  }
}

// A seeded TrainState that fills every section: params, buffers, optim, ema,
// rng, extra and (micro_step > 0) grads.
struct PinnedState {
  nn::BatchNorm2d model{3};
  std::unique_ptr<optim::Optimizer> opt =
      optim::make_optimizer("lars", model.parameters(), 0.0f);
  optim::EmaWeights ema{model.parameters(), 0.9f};
  Rng dropout{77};
  Tensor carried = Tensor::zeros({2, 3});
  ckpt::TrainState state;

  explicit PinnedState(u64 seed = 2024) {
    Rng rng(seed);
    for (auto& p : model.named_parameters()) {
      fill_exact(p.var.mutable_value(), rng);
    }
    for (auto& b : model.named_buffers()) fill_exact(*b.tensor, rng);
    for (auto& p : model.parameters()) fill_exact(p.mutable_grad(), rng);
    auto view = opt->state_entries();
    for (auto& e : view.tensors) fill_exact(*e.tensor, rng);
    for (auto& e : view.scalars) *e.value = 7;
    for (auto& t : ema.mutable_shadow()) fill_exact(t, rng);
    fill_exact(carried, rng);
    for (int i = 0; i < 5; ++i) (void)dropout.uniform_int(1000);
    state.models.push_back(&model);
    state.optimizers.push_back(opt.get());
    state.emas.push_back(&ema);
    state.rngs.emplace_back("dropout", &dropout);
    state.extra.emplace_back("carried", &carried);
    state.step = 12;
    state.epoch = 3;
    state.micro_step = 1;
  }
};

TEST(ContainerFormat, EncodeBytesArePinned) {
  // The pinned bytes are the on-disk format: files written by earlier builds
  // must keep loading, so a change here is a format change.
  PinnedState pinned;
  const std::string image = ckpt::encode(pinned.state);
  EXPECT_EQ(image.size(), 794u);
  EXPECT_EQ(core::crc32(image.data(), image.size()), 0xA73A943Du);
  core::container::Container parsed;
  ASSERT_TRUE(core::container::parse(image, &parsed).ok());
  for (const char* section :
       {"meta", "params", "buffers", "optim", "ema", "rng", "extra", "grads"}) {
    EXPECT_NE(parsed.find(section), nullptr) << section;
  }

  // Decoding into a differently seeded state and re-encoding reproduces the
  // image byte for byte.
  PinnedState other(99);
  const auto res = ckpt::load_image(other.state, image, "pinned");
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_EQ(ckpt::encode(other.state), image);
}

// ---- shared reader contracts ------------------------------------------------

TEST(ContainerReaders, DirectoryPathIsOpenFailed) {
  // fopen succeeds on a directory; a reader that sized its buffer from
  // ftell asked for LONG_MAX bytes and died of std::bad_alloc.
  TempDir dir("dir_path");
  Rng rng(1);
  nn::Linear target(3, 2, rng);
  ckpt::TrainState tgt;
  tgt.models.push_back(&target);
  EXPECT_EQ(ckpt::load(tgt, dir.path).status, ckpt::Status::kOpenFailed);

  serve::ModelImage img;
  EXPECT_EQ(serve::read_model_image(dir.path, &img).status,
            serve::Status::kOpenFailed);

  std::unique_ptr<serve::ServeSession> session;
  const auto res =
      serve::ServeSession::load(serve::SessionConfig{}, dir.path, &session);
  EXPECT_EQ(res.status, serve::Status::kOpenFailed);
  EXPECT_NE(res.message.find(dir.path), std::string::npos) << res.message;
  EXPECT_EQ(session, nullptr);
}

TEST(ContainerReaders, NegativeMetaCountersAreMalformedForBoth) {
  for (int field = 0; field < 3; ++field) {
    Rng rng(5);
    nn::Linear model(3, 2, rng);
    ckpt::TrainState state;
    state.models.push_back(&model);
    (field == 0 ? state.step : field == 1 ? state.epoch : state.micro_step) =
        -1;
    const std::string image = ckpt::encode(state);

    Rng rng_b(6);
    nn::Linear target(3, 2, rng_b);
    ckpt::TrainState tgt;
    tgt.models.push_back(&target);
    EXPECT_EQ(ckpt::load_image(tgt, image, "negative").status,
              ckpt::Status::kMalformed)
        << "field " << field;
    serve::ModelImage img;
    EXPECT_EQ(serve::read_model_image_bytes(image, &img).status,
              serve::Status::kMalformed)
        << "field " << field;
  }
}

// ---- corruption corpus ------------------------------------------------------

// Builds one reference checkpoint image plus the live state to load into,
// then checks that a mutated copy is rejected with a structured status and
// that the rejection leaves the live state untouched.
class CorruptionCorpus : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("corpus");
    Rng rng(5);
    model_ = std::make_unique<nn::Linear>(3, 2, rng);
    opt_ = optim::make_optimizer("adam", model_->parameters(), 0.0f);
    run_steps(*model_, *opt_, 2, 51);
    ckpt::TrainState state;
    state.models.push_back(model_.get());
    state.optimizers.push_back(opt_.get());
    state.step = 2;
    image_ = ckpt::encode(state);
  }

  // Loads `bytes` as a checkpoint file into a fresh target; returns the
  // status and asserts the target kept its pre-load parameter values.
  ckpt::Status load_mutated(const std::string& bytes) {
    const std::string path = dir_->file("mutated.legw");
    write_file(path, bytes);
    Rng rng(42);
    nn::Linear target(3, 2, rng);
    auto opt = optim::make_optimizer("adam", target.parameters(), 0.0f);
    std::vector<Tensor> before;
    for (const auto& p : target.parameters()) before.push_back(p.value());
    ckpt::TrainState tgt;
    tgt.models.push_back(&target);
    tgt.optimizers.push_back(opt.get());
    const auto res = ckpt::load(tgt, path);
    if (!res.ok()) {
      const auto after = target.parameters();
      for (std::size_t i = 0; i < after.size(); ++i) {
        EXPECT_TRUE(tensors_equal(before[i], after[i].value()))
            << "failed load mutated param " << i;
      }
    }
    return res.status;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<nn::Linear> model_;
  std::unique_ptr<optim::Optimizer> opt_;
  std::string image_;
};

TEST_F(CorruptionCorpus, IntactImageLoads) {
  EXPECT_EQ(load_mutated(image_), ckpt::Status::kOk);
}

TEST_F(CorruptionCorpus, TruncationAtEveryBoundaryIsRejected) {
  // Cut the file at a spread of prefixes: inside the magic, the header,
  // every section header and payload, and one byte short of complete.
  std::vector<std::size_t> cuts = {0, 4, 9, 13, 15};
  for (std::size_t frac = 1; frac < 20; ++frac) {
    cuts.push_back(image_.size() * frac / 20);
  }
  cuts.push_back(image_.size() - 1);
  for (std::size_t cut : cuts) {
    ASSERT_LT(cut, image_.size());
    const ckpt::Status s = load_mutated(image_.substr(0, cut));
    EXPECT_NE(s, ckpt::Status::kOk) << "cut at " << cut;
  }
}

TEST_F(CorruptionCorpus, ZeroLengthFileIsRejected) {
  EXPECT_EQ(load_mutated(""), ckpt::Status::kTruncated);
}

TEST_F(CorruptionCorpus, MissingFileIsOpenFailed) {
  Rng rng(1);
  nn::Linear target(3, 2, rng);
  ckpt::TrainState tgt;
  tgt.models.push_back(&target);
  const auto res = ckpt::load(tgt, dir_->file("never-written.legw"));
  EXPECT_EQ(res.status, ckpt::Status::kOpenFailed);
}

TEST_F(CorruptionCorpus, BitFlipsAreRejectedEverywhere) {
  // One flipped bit anywhere in the image must be detected: magic/version
  // flips by the header checks, length/count flips by the schema caps, and
  // payload flips by the per-section CRC32.
  std::vector<std::size_t> offsets = {0, 5, 8, 12, 14, 20, 30};
  for (std::size_t frac = 1; frac < 16; ++frac) {
    offsets.push_back(image_.size() * frac / 16);
  }
  offsets.push_back(image_.size() - 1);
  for (std::size_t off : offsets) {
    ASSERT_LT(off, image_.size());
    for (int bit : {0, 7}) {
      std::string flipped = image_;
      flipped[off] = static_cast<char>(flipped[off] ^ (1 << bit));
      const ckpt::Status s = load_mutated(flipped);
      EXPECT_NE(s, ckpt::Status::kOk)
          << "undetected flip at byte " << off << " bit " << bit;
    }
  }
}

TEST_F(CorruptionCorpus, TrailingGarbageIsRejected) {
  EXPECT_EQ(load_mutated(image_ + "xxxx"), ckpt::Status::kMalformed);
}

TEST_F(CorruptionCorpus, ForeignFileIsBadMagic) {
  EXPECT_EQ(load_mutated("definitely not a checkpoint file, long enough"),
            ckpt::Status::kBadMagic);
}

TEST_F(CorruptionCorpus, UnsupportedFutureVersionIsRejected) {
  std::string future = image_;
  future[8] = 99;  // version field follows the 8-byte magic
  EXPECT_EQ(load_mutated(future), ckpt::Status::kBadVersion);
}

// ---- corruption corpus, serve load path -------------------------------------
// The same corpus must be rejected with structured statuses by the no-tape
// serving reader (serve::read_model_image_bytes), which parses the container
// independently of ckpt::load.

serve::Status serve_status(const std::string& bytes) {
  serve::ModelImage img;
  return serve::read_model_image_bytes(bytes, &img).status;
}

TEST_F(CorruptionCorpus, ServeReaderAcceptsTheIntactImage) {
  serve::ModelImage img;
  const auto res = serve::read_model_image_bytes(image_, &img);
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_EQ(img.step, 2);
  EXPECT_FALSE(img.params.empty());
  EXPECT_EQ(img.optimizer, "adam");
}

TEST_F(CorruptionCorpus, ServeReaderRejectsTruncationAtEveryBoundary) {
  std::vector<std::size_t> cuts = {0, 4, 9, 13, 15};
  for (std::size_t frac = 1; frac < 20; ++frac) {
    cuts.push_back(image_.size() * frac / 20);
  }
  cuts.push_back(image_.size() - 1);
  for (std::size_t cut : cuts) {
    ASSERT_LT(cut, image_.size());
    EXPECT_NE(serve_status(image_.substr(0, cut)), serve::Status::kOk)
        << "cut at " << cut;
  }
}

TEST_F(CorruptionCorpus, ServeReaderRejectsBitFlipsEverywhere) {
  std::vector<std::size_t> offsets = {0, 5, 8, 12, 14, 20, 30};
  for (std::size_t frac = 1; frac < 16; ++frac) {
    offsets.push_back(image_.size() * frac / 16);
  }
  offsets.push_back(image_.size() - 1);
  for (std::size_t off : offsets) {
    ASSERT_LT(off, image_.size());
    for (int bit : {0, 7}) {
      std::string flipped = image_;
      flipped[off] = static_cast<char>(flipped[off] ^ (1 << bit));
      EXPECT_NE(serve_status(flipped), serve::Status::kOk)
          << "undetected flip at byte " << off << " bit " << bit;
    }
  }
}

TEST_F(CorruptionCorpus, ServeReaderRefusesV1FilesWithMissingSections) {
  // Property of the v1 -> v2 compat split: training restores v1 files
  // (parameters only), serving refuses them with a structured status naming
  // the sections a v2 re-save would add — never an abort.
  Rng rng(5);
  nn::Linear model(3, 2, rng);
  const std::string path = dir_->file("v1_for_serve.ckpt");
  write_file(path, encode_v1(model));

  // Training-side load succeeds on the same file.
  nn::Linear target(3, 2, rng);
  ckpt::TrainState tgt;
  tgt.models.push_back(&target);
  ASSERT_TRUE(ckpt::load(tgt, path).ok());

  serve::ModelImage img;
  const auto res = serve::read_model_image(path, &img);
  EXPECT_EQ(res.status, serve::Status::kMissingSection);
  EXPECT_NE(res.message.find("v1"), std::string::npos) << res.message;
  EXPECT_NE(res.message.find("meta"), std::string::npos) << res.message;
  EXPECT_NE(res.message.find("buffers"), std::string::npos) << res.message;
  EXPECT_NE(res.message.find(path), std::string::npos)
      << "failure should carry the path: " << res.message;
}

TEST_F(CorruptionCorpus, ServeReaderStatusTaxonomyMatchesTheFailure) {
  EXPECT_EQ(serve_status(""), serve::Status::kTruncated);
  EXPECT_EQ(serve_status("definitely not a checkpoint file, long enough"),
            serve::Status::kBadMagic);
  EXPECT_EQ(serve_status(image_ + "xxxx"), serve::Status::kMalformed);
  std::string future = image_;
  future[8] = 99;
  EXPECT_EQ(serve_status(future), serve::Status::kBadVersion);
  // Flip one payload byte inside the last section: the CRC must catch it.
  std::string payload_flip = image_;
  payload_flip[image_.size() - 1] =
      static_cast<char>(payload_flip[image_.size() - 1] ^ 0x10);
  EXPECT_EQ(serve_status(payload_flip), serve::Status::kCrcMismatch);
  serve::ModelImage img;
  const auto missing =
      serve::read_model_image("/tmp/legw_ckpt_never_written.legw", &img);
  EXPECT_EQ(missing.status, serve::Status::kOpenFailed);
}

// ---- seeded mutation over the one codec --------------------------------------
// Tens of thousands of seeded bit flips, truncations, splices and edits of
// real length/count/dimension fields, half of them with every reachable
// section CRC re-sealed so the damage gets past the CRC and into the section
// decoders. Both readers must answer every mutant with a structured status,
// and a failed ckpt load must leave the live state bitwise untouched.

struct Field {
  std::size_t offset;
  int width;  // 4 or 8 bytes
};

// Offsets of every length, count and dimension field of a v2 image.
std::vector<Field> length_fields(const std::string& image) {
  std::vector<Field> out{{12, 4}};
  core::container::Reader r(image);
  r.pos = 12;
  u32 n_sections = 0;
  EXPECT_TRUE(r.pod(&n_sections));
  for (u32 s = 0; s < n_sections; ++s) {
    std::string name;
    u64 bytes = 0;
    u32 crc = 0;
    out.push_back({r.pos, 4});
    EXPECT_TRUE(r.str(&name));
    out.push_back({r.pos, 8});
    EXPECT_TRUE(r.pod(&bytes) && r.pod(&crc));
    const std::size_t start = r.pos;
    core::container::Reader p(std::string_view(image).substr(start, bytes));
    const auto at = [&](int width) { out.push_back({start + p.pos, width}); };
    const auto str = [&] {
      at(4);
      std::string ignored;
      EXPECT_TRUE(p.str(&ignored));
    };
    const auto count = [&](auto* n) {
      at(static_cast<int>(sizeof *n));
      EXPECT_TRUE(p.pod(n));
    };
    const auto tensor = [&](bool named) {
      if (named) str();
      u64 ndim = 0;
      count(&ndim);
      i64 numel = 1;
      for (u64 d = 0; d < ndim; ++d) {
        i64 dim = 0;
        count(&dim);
        numel *= dim;
      }
      EXPECT_NE(p.borrow(static_cast<std::size_t>(numel) * sizeof(float)),
                nullptr);
    };
    i64 scalar = 0;
    if (name == "meta") {
      u32 n = 0;
      count(&n);
      for (u32 i = 0; i < n; ++i) str(), p.pod(&scalar);
      count(&n);
      for (u32 i = 0; i < n; ++i) str(), str();
    } else if (name == "optim") {
      str();
      u32 n = 0;
      count(&n);
      for (u32 i = 0; i < n; ++i) tensor(true);
      count(&n);
      for (u32 i = 0; i < n; ++i) str(), p.pod(&scalar);
    } else if (name == "rng") {
      u32 n = 0;
      count(&n);
      for (u32 i = 0; i < n; ++i) {
        str();
        p.borrow(sizeof(u64) + sizeof(u16) + sizeof(double));
      }
    } else {
      u64 n = 0;
      count(&n);
      for (u64 i = 0; i < n; ++i) tensor(name != "ema" && name != "grads");
    }
    r.pos = start + bytes;
  }
  return out;
}

// Recomputes the CRC of every section the (possibly damaged) framing still
// reaches.
void reseal(std::string& image) {
  if (image.size() < 16 || image.compare(0, 8, "LEGWCKP2") != 0) return;
  core::container::Reader r(image);
  r.pos = 12;
  u32 n_sections = 0;
  if (!r.pod(&n_sections)) return;
  for (u32 s = 0; s < n_sections; ++s) {
    std::string name;
    u64 bytes = 0;
    u32 crc = 0;
    if (!r.str(&name) || !r.pod(&bytes)) return;
    const std::size_t crc_at = r.pos;
    if (!r.pod(&crc) || bytes > r.remaining()) return;
    crc = core::crc32(image.data() + r.pos, static_cast<std::size_t>(bytes));
    std::memcpy(image.data() + crc_at, &crc, sizeof crc);
    r.pos += static_cast<std::size_t>(bytes);
  }
}

TEST(ContainerMutation, BothReadersSurviveSeededMutants) {
  PinnedState source;
  const std::string v2 = ckpt::encode(source.state);
  const std::string v1 = encode_v1(source.model);
  const std::vector<Field> fields = length_fields(v2);
  ASSERT_GT(fields.size(), 40u);

  PinnedState target(99);
  const std::string pristine = ckpt::encode(target.state);
  Rng rng(20240613);
  constexpr int kMutants = 24000;
  std::map<ckpt::Status, int> ckpt_seen;
  int loaded = 0;
  for (int m = 0; m < kMutants; ++m) {
    const int kind = m % 4;
    // One mutant in ten starts from the v1 image, whose body has no CRC.
    const bool from_v1 = rng.uniform_int(10) == 0;
    std::string bytes = from_v1 ? v1 : v2;
    const std::size_t size = bytes.size();
    if (kind == 0) {  // 1-4 bit flips
      for (u64 f = 0, n = 1 + rng.uniform_int(4); f < n; ++f) {
        bytes[rng.uniform_int(size)] ^= static_cast<char>(1 << rng.uniform_int(8));
      }
    } else if (kind == 1) {  // truncation
      bytes.resize(rng.uniform_int(size));
    } else if (kind == 2) {  // splice: a chunk copied over or into the image
      const std::size_t from = rng.uniform_int(size);
      const std::size_t len = 1 + rng.uniform_int(std::min<std::size_t>(64, size - from));
      const std::size_t to = rng.uniform_int(size);
      const std::string chunk = bytes.substr(from, len);
      if (rng.uniform_int(2) == 0) {
        bytes.insert(to, chunk);
      } else {
        bytes.replace(to, std::min(len, size - to), chunk);
      }
    } else {  // length-field edit
      const Field f = fields[rng.uniform_int(fields.size())];
      if (from_v1) bytes = v2;  // the fields were walked on the v2 image
      u64 value = 0;
      std::memcpy(&value, bytes.data() + f.offset, static_cast<std::size_t>(f.width));
      const u64 edits[] = {0, 1, value + 1, value - 1, value * 2,
                           value + 4096, ~0ull, rng.next_u64()};
      value = edits[rng.uniform_int(std::size(edits))];
      std::memcpy(bytes.data() + f.offset, &value, static_cast<std::size_t>(f.width));
    }
    if (rng.uniform_int(2) == 0) reseal(bytes);

    const auto res = ckpt::load_image(target.state, bytes, "mutant");
    ++ckpt_seen[res.status];
    ASSERT_STRNE(ckpt::status_name(res.status), "unknown") << "mutant " << m;
    if (res.ok()) {
      ++loaded;
      ASSERT_TRUE(ckpt::load_image(target.state, pristine, "reset").ok());
    } else {
      ASSERT_FALSE(res.message.empty()) << "mutant " << m;
      ASSERT_EQ(ckpt::encode(target.state), pristine)
          << "failed load of mutant " << m << " (kind " << kind
          << ") changed the live state: " << res.message;
    }

    serve::ModelImage img;
    const auto sres = serve::read_model_image_bytes(bytes, &img);
    ASSERT_STRNE(serve::status_name(sres.status), "unknown") << "mutant " << m;
    ASSERT_TRUE(sres.ok() || !sres.message.empty()) << "mutant " << m;
  }
  // The mutants reach past the framing: every decode stage rejects some.
  for (const ckpt::Status s :
       {ckpt::Status::kTruncated, ckpt::Status::kBadMagic,
        ckpt::Status::kCrcMismatch, ckpt::Status::kMalformed,
        ckpt::Status::kStateMismatch}) {
    EXPECT_GT(ckpt_seen[s], 0) << ckpt::status_name(s);
  }
  EXPECT_GT(loaded, 0);  // re-sealed float flips are valid checkpoints
}

// ---- CheckpointManager ------------------------------------------------------

ckpt::TrainState make_state(nn::Linear& model, optim::Optimizer* opt,
                            i64 step) {
  ckpt::TrainState s;
  s.models.push_back(&model);
  s.optimizers.push_back(opt);
  s.step = step;
  return s;
}

TEST(CheckpointManager, CadenceAndRetention) {
  TempDir dir("mgr");
  ckpt::ManagerConfig cfg;
  cfg.dir = dir.file("ckpts");
  cfg.every_steps = 2;
  cfg.keep_last = 2;
  ckpt::CheckpointManager mgr(cfg);
  EXPECT_FALSE(mgr.due(0));
  EXPECT_FALSE(mgr.due(1));
  EXPECT_TRUE(mgr.due(2));

  Rng rng(5);
  nn::Linear model(3, 2, rng);
  auto opt = optim::make_optimizer("momentum", model.parameters(), 0.0f);
  for (i64 step = 1; step <= 8; ++step) {
    run_steps(model, *opt, 1, 60 + static_cast<u64>(step));
    const auto res = mgr.maybe_save(make_state(model, opt.get(), step));
    ASSERT_TRUE(res.ok()) << res.message;
  }
  const auto files = ckpt::CheckpointManager::list_checkpoints(cfg.dir);
  ASSERT_EQ(files.size(), 2u);  // steps 6 and 8 survive retention
  EXPECT_NE(files[0].find("000000000006"), std::string::npos);
  EXPECT_NE(files[1].find("000000000008"), std::string::npos);
}

TEST(CheckpointManager, MidWriteCrashLeavesPreviousCheckpointIntact) {
  TempDir dir("midwrite");
  const auto plan = ckpt::CrashPlan::mid_write(4, 0.6);
  ckpt::ManagerConfig cfg;
  cfg.dir = dir.file("ckpts");
  cfg.every_steps = 2;
  cfg.crash = &plan;
  ckpt::CheckpointManager mgr(cfg);

  Rng rng(5);
  nn::Linear model(3, 2, rng);
  auto opt = optim::make_optimizer("momentum", model.parameters(), 0.0f);
  run_steps(model, *opt, 1, 71);
  ASSERT_TRUE(mgr.maybe_save(make_state(model, opt.get(), 2)).ok());
  std::vector<Tensor> at_step2;
  for (const auto& p : model.parameters()) at_step2.push_back(p.value());

  run_steps(model, *opt, 1, 72);
  const auto res = mgr.maybe_save(make_state(model, opt.get(), 4));
  EXPECT_EQ(res.status, ckpt::Status::kSimulatedCrash);

  // The kill left a torn .tmp, never a published step-4 file.
  EXPECT_FALSE(std::filesystem::exists(
      ckpt::CheckpointManager::step_path(cfg.dir, 4)));
  EXPECT_TRUE(std::filesystem::exists(
      ckpt::CheckpointManager::step_path(cfg.dir, 4) + ".tmp"));

  // Restore falls back to the intact step-2 checkpoint.
  Rng rng_b(99);
  nn::Linear model_b(3, 2, rng_b);
  auto opt_b = optim::make_optimizer("momentum", model_b.parameters(), 0.0f);
  ckpt::TrainState tgt = make_state(model_b, opt_b.get(), 0);
  const auto outcome = mgr.restore_latest(tgt);
  ASSERT_TRUE(outcome.restored) << outcome.status.message;
  EXPECT_EQ(tgt.step, 2);
  const auto pb = model_b.parameters();
  for (std::size_t i = 0; i < pb.size(); ++i) {
    EXPECT_TRUE(tensors_equal(at_step2[i], pb[i].value())) << "param " << i;
  }
}

TEST(CheckpointManager, TornPublishIsSkippedOnRestore) {
  TempDir dir("torn");
  const auto plan = ckpt::CrashPlan::torn_publish(4, 0.5);
  ckpt::ManagerConfig cfg;
  cfg.dir = dir.file("ckpts");
  cfg.every_steps = 2;
  cfg.crash = &plan;
  ckpt::CheckpointManager mgr(cfg);

  Rng rng(5);
  nn::Linear model(3, 2, rng);
  auto opt = optim::make_optimizer("momentum", model.parameters(), 0.0f);
  run_steps(model, *opt, 1, 81);
  ASSERT_TRUE(mgr.maybe_save(make_state(model, opt.get(), 2)).ok());
  run_steps(model, *opt, 1, 82);
  EXPECT_EQ(mgr.maybe_save(make_state(model, opt.get(), 4)).status,
            ckpt::Status::kSimulatedCrash);
  // The torn file *is* at the final path — the adversarial case.
  ASSERT_TRUE(std::filesystem::exists(
      ckpt::CheckpointManager::step_path(cfg.dir, 4)));

  Rng rng_b(99);
  nn::Linear model_b(3, 2, rng_b);
  auto opt_b = optim::make_optimizer("momentum", model_b.parameters(), 0.0f);
  ckpt::TrainState tgt = make_state(model_b, opt_b.get(), 0);
  const auto outcome = mgr.restore_latest(tgt);
  ASSERT_TRUE(outcome.restored);
  EXPECT_EQ(tgt.step, 2);  // fell back past the torn step-4 file
  ASSERT_EQ(outcome.skipped.size(), 1u);
  EXPECT_NE(outcome.skipped[0].path.find("000000000004"), std::string::npos);
  EXPECT_NE(outcome.skipped[0].status, ckpt::Status::kOk);
  EXPECT_FALSE(outcome.skipped[0].message.empty());
}

TEST(CheckpointManager, EmptyDirIsNoCheckpointNotError) {
  TempDir dir("empty");
  ckpt::ManagerConfig cfg;
  cfg.dir = dir.file("nothing-here");
  ckpt::CheckpointManager mgr(cfg);
  Rng rng(5);
  nn::Linear model(3, 2, rng);
  ckpt::TrainState tgt;
  tgt.models.push_back(&model);
  const auto outcome = mgr.restore_latest(tgt);
  EXPECT_FALSE(outcome.restored);
  EXPECT_EQ(outcome.status.status, ckpt::Status::kNoCheckpoint);
}

TEST(CrashPlan, SeededRandomKillsAreDeterministic) {
  const auto a = ckpt::CrashPlan::random_kills(7, 100, 5);
  const auto b = ckpt::CrashPlan::random_kills(7, 100, 5);
  ASSERT_EQ(a.crashes.size(), 5u);
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].at_step, b.crashes[i].at_step);
    EXPECT_EQ(a.crashes[i].kind, b.crashes[i].kind);
    EXPECT_EQ(a.crashes[i].write_fraction, b.crashes[i].write_fraction);
  }
  // Steps are distinct and in range.
  for (const auto& c : a.crashes) {
    EXPECT_GE(c.at_step, 1);
    EXPECT_LE(c.at_step, 100);
    EXPECT_EQ(a.crash_at(c.at_step), &c);
  }
  EXPECT_EQ(a.crash_at(0), nullptr);
}

}  // namespace
}  // namespace legw
