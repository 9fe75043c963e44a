// Serving correctness battery (serve/container.hpp, serve/session.hpp):
//
//   * container robustness — truncation, bit flips, v1 files, and schema
//     mismatches all come back as a structured serve::Status naming what is
//     wrong, never an abort, on the exact load path the runtime uses;
//   * bitwise parity — a served forward equals the training graph's eval
//     forward for the same checkpoint on mnist and ptb, including
//     variable-length ptb sequences batched together: each request's logits
//     are invariant to batch composition, row padding, and sequence padding
//     (the gemm determinism contract makes batch rows independent);
//   * repeated batches — one session re-running a batch is bitwise stable
//     and returns every heap byte it took;
//   * disabled tracing — a serve run with tracing off records no spans.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/container.hpp"
#include "core/rng.hpp"
#include "mem/alloc.hpp"
#include "models/mnist_lstm.hpp"
#include "models/ptb_model.hpp"
#include "obs/trace.hpp"
#include "serve/session.hpp"

namespace legw {
namespace {

using core::Rng;
using core::Tensor;

struct TempDir {
  std::string path;
  // pid-suffixed: ctest -j runs tests as concurrent processes, and a fixed
  // path would let one test's teardown remove another's live directory.
  explicit TempDir(const char* name)
      : path(std::string("/tmp/legw_serve_") + name + "_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string file(const char* name) const { return path + "/" + name; }
};

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (i64 i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at flat index " << i;
  }
}

// ---- mnist fixtures ---------------------------------------------------------

models::MnistLstmConfig small_mnist_config() {
  models::MnistLstmConfig c;
  c.transform_dim = 16;
  c.hidden_dim = 16;
  c.seed = 7;
  return c;
}

serve::SessionConfig serve_mnist_config(const models::MnistLstmConfig& c) {
  serve::SessionConfig sc;
  sc.kind = serve::ModelKind::kMnistLstm;
  sc.mnist.transform_dim = c.transform_dim;
  sc.mnist.hidden_dim = c.hidden_dim;
  sc.mnist.n_rows = c.n_rows;
  sc.mnist.n_cols = c.n_cols;
  sc.mnist.n_classes = c.n_classes;
  return sc;
}

std::string encode_model(nn::Module& model, i64 step = 12, i64 epoch = 2) {
  ckpt::TrainState state;
  state.models.push_back(&model);
  state.step = step;
  state.epoch = epoch;
  return ckpt::encode(state);
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

serve::Request random_mnist_request(u64 id, Rng& rng) {
  serve::Request req;
  req.id = id;
  req.features.resize(28 * 28);
  for (float& v : req.features) {
    v = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return req;
}

// ---- container / load-path robustness ---------------------------------------

TEST(ServeContainer, LoadsAnIntactCheckpoint) {
  TempDir dir("load_ok");
  models::MnistLstm model(small_mnist_config());
  write_file(dir.file("ok.legw"), encode_model(model));

  std::unique_ptr<serve::ServeSession> session;
  const auto res = serve::ServeSession::load(
      serve_mnist_config(model.config()), dir.file("ok.legw"), &session);
  ASSERT_TRUE(res.ok()) << res.message;
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->checkpoint_step(), 12);
  EXPECT_EQ(session->checkpoint_epoch(), 2);
  EXPECT_EQ(session->output_dim(), 10);
}

TEST(ServeContainer, MissingFileIsOpenFailed) {
  models::MnistLstm model(small_mnist_config());
  std::unique_ptr<serve::ServeSession> session;
  const auto res = serve::ServeSession::load(
      serve_mnist_config(model.config()), "/tmp/legw_serve_nowhere.legw",
      &session);
  EXPECT_EQ(res.status, serve::Status::kOpenFailed);
  EXPECT_EQ(session, nullptr);
}

TEST(ServeContainer, TruncationAtEveryBoundaryIsStructured) {
  models::MnistLstm model(small_mnist_config());
  const std::string image = encode_model(model);
  std::vector<std::size_t> cuts = {0, 4, 9, 13, 15};
  for (std::size_t frac = 1; frac < 20; ++frac) {
    cuts.push_back(image.size() * frac / 20);
  }
  cuts.push_back(image.size() - 1);
  for (std::size_t cut : cuts) {
    ASSERT_LT(cut, image.size());
    std::unique_ptr<serve::ServeSession> session;
    const auto res = serve::ServeSession::load_bytes(
        serve_mnist_config(model.config()), image.substr(0, cut), &session);
    EXPECT_FALSE(res.ok()) << "cut at " << cut;
    EXPECT_FALSE(res.message.empty()) << "cut at " << cut;
    EXPECT_EQ(session, nullptr) << "cut at " << cut;
  }
}

TEST(ServeContainer, BitFlipsAreRejectedEverywhere) {
  models::MnistLstm model(small_mnist_config());
  const std::string image = encode_model(model);
  std::vector<std::size_t> offsets = {0, 5, 8, 12, 14, 20, 30};
  for (std::size_t frac = 1; frac < 16; ++frac) {
    offsets.push_back(image.size() * frac / 16);
  }
  offsets.push_back(image.size() - 1);
  for (std::size_t off : offsets) {
    ASSERT_LT(off, image.size());
    for (int bit : {0, 7}) {
      std::string flipped = image;
      flipped[off] = static_cast<char>(flipped[off] ^ (1 << bit));
      std::unique_ptr<serve::ServeSession> session;
      const auto res = serve::ServeSession::load_bytes(
          serve_mnist_config(model.config()), flipped, &session);
      EXPECT_FALSE(res.ok())
          << "undetected flip at byte " << off << " bit " << bit;
      EXPECT_EQ(session, nullptr);
    }
  }
}

TEST(ServeContainer, V1ParameterOnlyFileNamesTheMissingSections) {
  // A v1 file is a valid *training* restore target (parameters only) but
  // cannot serve: the failure must name the absent v2 sections, not abort.
  models::MnistLstm model(small_mnist_config());
  std::unique_ptr<serve::ServeSession> session;
  const auto res = serve::ServeSession::load_bytes(
      serve_mnist_config(model.config()), encode_v1(model), &session);
  EXPECT_EQ(res.status, serve::Status::kMissingSection);
  EXPECT_NE(res.message.find("v1"), std::string::npos) << res.message;
  EXPECT_NE(res.message.find("meta"), std::string::npos) << res.message;
  EXPECT_NE(res.message.find("buffers"), std::string::npos) << res.message;
  EXPECT_EQ(session, nullptr);
}

TEST(ServeContainer, ForeignBytesAreBadMagic) {
  models::MnistLstm model(small_mnist_config());
  std::unique_ptr<serve::ServeSession> session;
  const auto res = serve::ServeSession::load_bytes(
      serve_mnist_config(model.config()),
      "definitely not a checkpoint file, long enough", &session);
  EXPECT_EQ(res.status, serve::Status::kBadMagic);
}

TEST(ServeContainer, WrongDimsAreSchemaMismatchNamingTheTensor) {
  models::MnistLstm model(small_mnist_config());
  const std::string image = encode_model(model);
  serve::SessionConfig config = serve_mnist_config(model.config());
  config.mnist.hidden_dim = 64;  // checkpoint was trained with 16
  std::unique_ptr<serve::ServeSession> session;
  const auto res =
      serve::ServeSession::load_bytes(config, image, &session);
  EXPECT_EQ(res.status, serve::Status::kStateMismatch);
  EXPECT_NE(res.message.find("lstm.weight"), std::string::npos)
      << res.message;
  EXPECT_EQ(session, nullptr);
}

TEST(ServeContainer, WrongModelKindIsSchemaMismatch) {
  models::MnistLstm model(small_mnist_config());
  const std::string image = encode_model(model);
  serve::SessionConfig config;
  config.kind = serve::ModelKind::kPtbLm;  // mnist ckpt has no embedding
  std::unique_ptr<serve::ServeSession> session;
  const auto res =
      serve::ServeSession::load_bytes(config, image, &session);
  EXPECT_EQ(res.status, serve::Status::kStateMismatch);
  EXPECT_NE(res.message.find("embedding.weight"), std::string::npos)
      << res.message;
}

// ---- request validation -----------------------------------------------------

TEST(ServeSession, ValidatesRequestsStructurally) {
  models::MnistLstm model(small_mnist_config());
  std::unique_ptr<serve::ServeSession> session;
  ASSERT_TRUE(serve::ServeSession::load_bytes(
                  serve_mnist_config(model.config()), encode_model(model),
                  &session)
                  .ok());
  serve::Request bad;
  bad.id = 9;
  bad.features.resize(100);  // needs 784
  EXPECT_EQ(session->validate(bad).status, serve::Status::kInvalidRequest);
  const serve::Response r = session->run(bad);
  EXPECT_EQ(r.id, 9u);
  EXPECT_EQ(r.status, serve::Status::kInvalidRequest);

  models::PtbConfig pc;
  pc.vocab = 40;
  pc.embed_dim = 12;
  pc.hidden_dim = 12;
  models::PtbModel ptb(pc);
  serve::SessionConfig sc;
  sc.kind = serve::ModelKind::kPtbLm;
  sc.ptb.vocab = pc.vocab;
  sc.ptb.embed_dim = pc.embed_dim;
  sc.ptb.hidden_dim = pc.hidden_dim;
  sc.ptb.num_layers = pc.num_layers;
  std::unique_ptr<serve::ServeSession> lm;
  ASSERT_TRUE(
      serve::ServeSession::load_bytes(sc, encode_model(ptb), &lm).ok());
  serve::Request empty;
  EXPECT_EQ(lm->validate(empty).status, serve::Status::kInvalidRequest);
  serve::Request oov;
  oov.tokens = {1, 2, 40};  // vocab is [0, 40)
  EXPECT_EQ(lm->validate(oov).status, serve::Status::kInvalidRequest);
}

// ---- bitwise parity: mnist --------------------------------------------------

TEST(ServeParity, MnistServedEqualsTrainingForwardBitwise) {
  models::MnistLstm model(small_mnist_config());
  model.set_training(false);
  std::unique_ptr<serve::ServeSession> session;
  ASSERT_TRUE(serve::ServeSession::load_bytes(
                  serve_mnist_config(model.config()), encode_model(model),
                  &session)
                  .ok());

  Rng rng(101);
  const i64 batch = 5;
  std::vector<serve::Request> reqs;
  Tensor images({batch, 28 * 28});
  for (i64 b = 0; b < batch; ++b) {
    reqs.push_back(random_mnist_request(static_cast<u64>(b), rng));
    std::copy(reqs.back().features.begin(), reqs.back().features.end(),
              images.data() + b * 28 * 28);
  }
  const Tensor reference = model.forward(images).value();  // [B, 10]

  // Same composition through the serving path.
  std::vector<serve::Response> served;
  ASSERT_TRUE(session->run_batch(reqs, 0, 0, &served).ok());
  ASSERT_EQ(served.size(), reqs.size());
  for (i64 b = 0; b < batch; ++b) {
    Tensor want({10});
    std::copy(reference.data() + b * 10, reference.data() + (b + 1) * 10,
              want.data());
    expect_bitwise_equal(served[static_cast<std::size_t>(b)].logits, want,
                         "mnist batch row");
  }

  // Batch composition and row padding are invisible: one-at-a-time and a
  // padded batch both reproduce the same bits.
  for (i64 b = 0; b < batch; ++b) {
    const serve::Response solo = session->run(reqs[static_cast<std::size_t>(b)]);
    ASSERT_EQ(solo.status, serve::Status::kOk) << solo.message;
    expect_bitwise_equal(solo.logits,
                         served[static_cast<std::size_t>(b)].logits,
                         "mnist solo vs batched");
  }
  std::vector<serve::Response> padded;
  ASSERT_TRUE(session->run_batch(reqs, 0, /*pad_rows_to=*/16, &padded).ok());
  for (std::size_t b = 0; b < reqs.size(); ++b) {
    expect_bitwise_equal(padded[b].logits, served[b].logits,
                         "mnist padded vs unpadded");
  }
}

// ---- bitwise parity: ptb ----------------------------------------------------

struct PtbPair {
  std::unique_ptr<models::PtbModel> model;
  std::unique_ptr<serve::ServeSession> session;
};

PtbPair make_ptb_pair(bool tied) {
  models::PtbConfig pc;
  pc.vocab = 40;
  pc.embed_dim = tied ? 12 : 10;
  pc.hidden_dim = 12;
  pc.num_layers = 2;
  pc.dropout = 0.3f;  // must be inert: parity is checked in eval mode
  pc.tie_embeddings = tied;
  pc.seed = 23;
  PtbPair pair;
  pair.model = std::make_unique<models::PtbModel>(pc);
  serve::SessionConfig sc;
  sc.kind = serve::ModelKind::kPtbLm;
  sc.ptb.vocab = pc.vocab;
  sc.ptb.embed_dim = pc.embed_dim;
  sc.ptb.hidden_dim = pc.hidden_dim;
  sc.ptb.num_layers = pc.num_layers;
  sc.ptb.tie_embeddings = tied;
  const auto res = serve::ServeSession::load_bytes(
      sc, encode_model(*pair.model), &pair.session);
  EXPECT_TRUE(res.ok()) << res.message;
  return pair;
}

std::vector<i32> random_tokens(i64 len, i64 vocab, Rng& rng) {
  std::vector<i32> t(static_cast<std::size_t>(len));
  for (i32& v : t) {
    v = static_cast<i32>(rng.uniform(0.0, static_cast<double>(vocab)));
  }
  return t;
}

TEST(ServeParity, PtbVariableLengthBatchEqualsSequenceReference) {
  for (bool tied : {false, true}) {
    PtbPair pair = make_ptb_pair(tied);
    ASSERT_NE(pair.session, nullptr);
    Rng rng(tied ? 31u : 13u);

    // Mixed lengths in one batch, padded to a common bucket and to extra
    // rows: every request must still match its own batch-1 training-graph
    // reference bit for bit (carried-state-free batching).
    std::vector<serve::Request> reqs;
    for (i64 len : {3, 7, 5, 1}) {
      serve::Request req;
      req.id = static_cast<u64>(100 + len);
      req.tokens = random_tokens(len, 40, rng);
      reqs.push_back(std::move(req));
    }
    std::vector<serve::Response> served;
    ASSERT_TRUE(pair.session
                    ->run_batch(reqs, /*pad_len=*/8, /*pad_rows_to=*/6,
                                &served)
                    .ok());
    ASSERT_EQ(served.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Tensor reference = pair.model->sequence_logits(reqs[i].tokens);
      ASSERT_EQ(served[i].status, serve::Status::kOk) << served[i].message;
      expect_bitwise_equal(served[i].logits, reference,
                           tied ? "ptb tied batch row" : "ptb batch row");
    }

    // A different composition of the same requests reproduces the same bits.
    std::vector<serve::Request> shuffled = {reqs[2], reqs[0]};
    std::vector<serve::Response> again;
    ASSERT_TRUE(
        pair.session->run_batch(shuffled, /*pad_len=*/16, 0, &again).ok());
    expect_bitwise_equal(again[1].logits, served[0].logits,
                         "ptb composition invariance");
  }
}

TEST(ServeParity, PtbRejectsPadShorterThanLongestRequest) {
  PtbPair pair = make_ptb_pair(false);
  serve::Request req;
  req.id = 1;
  Rng rng(3);
  req.tokens = random_tokens(9, 40, rng);
  std::vector<serve::Response> out;
  const auto res = pair.session->run_batch({req}, /*pad_len=*/4, 0, &out);
  EXPECT_EQ(res.status, serve::Status::kInvalidRequest);
}

// ---- repeated batches on the heap -------------------------------------------

TEST(ServeSession, RepeatedRunBatchIsBitwiseStable) {
  // The same padded batch, run again and again on one session, decodes the
  // same logits bit for bit: no state leaks from one batch into the next.
  models::MnistLstm model(small_mnist_config());
  std::unique_ptr<serve::ServeSession> session;
  ASSERT_TRUE(serve::ServeSession::load_bytes(
                  serve_mnist_config(model.config()), encode_model(model),
                  &session)
                  .ok());
  Rng rng(55);
  std::vector<serve::Request> reqs;
  for (u64 i = 0; i < 4; ++i) reqs.push_back(random_mnist_request(i, rng));

  std::vector<serve::Response> first;
  ASSERT_TRUE(session->run_batch(reqs, 0, /*pad_rows_to=*/4, &first).ok());
  ASSERT_EQ(first.size(), reqs.size());
  for (int round = 0; round < 3; ++round) {
    std::vector<serve::Response> out;
    ASSERT_TRUE(session->run_batch(reqs, 0, /*pad_rows_to=*/4, &out).ok());
    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(out[i].id, first[i].id);
      expect_bitwise_equal(out[i].logits, first[i].logits, "repeated batch");
    }
  }
}

TEST(ServeSession, RunBatchReturnsEveryHeapByteItTook) {
  // Every per-batch buffer lives on the counted heap and is freed when the
  // batch and its responses go: a long-lived session does not grow.
  models::MnistLstm model(small_mnist_config());
  std::unique_ptr<serve::ServeSession> session;
  ASSERT_TRUE(serve::ServeSession::load_bytes(
                  serve_mnist_config(model.config()), encode_model(model),
                  &session)
                  .ok());
  Rng rng(56);
  std::vector<serve::Request> reqs;
  for (u64 i = 0; i < 3; ++i) reqs.push_back(random_mnist_request(i, rng));
  {
    std::vector<serve::Response> warm;
    ASSERT_TRUE(session->run_batch(reqs, 0, /*pad_rows_to=*/4, &warm).ok());
  }
  const mem::MemStats before = mem::mem_stats();
  for (int round = 0; round < 3; ++round) {
    std::vector<serve::Response> out;
    ASSERT_TRUE(session->run_batch(reqs, 0, /*pad_rows_to=*/4, &out).ok());
  }
  const mem::MemStats after = mem::mem_stats();
  EXPECT_GT(after.heap_allocs, before.heap_allocs);
  EXPECT_EQ(after.heap_live_bytes, before.heap_live_bytes);
}

// ---- observability ----------------------------------------------------------

TEST(ServeObs, DisabledTracingRecordsNoSpans) {
  models::MnistLstm model(small_mnist_config());
  std::unique_ptr<serve::ServeSession> session;
  ASSERT_TRUE(serve::ServeSession::load_bytes(
                  serve_mnist_config(model.config()), encode_model(model),
                  &session)
                  .ok());
  obs::set_tracing_enabled(false);
  obs::TraceRecorder::global().clear();
  Rng rng(77);
  const serve::Response r = session->run(random_mnist_request(1, rng));
  ASSERT_EQ(r.status, serve::Status::kOk);
  EXPECT_TRUE(obs::TraceRecorder::global().spans().empty())
      << "serve run with tracing disabled must not allocate span storage";

  obs::set_tracing_enabled(true);
  obs::TraceRecorder::global().clear();
  (void)session->run(random_mnist_request(2, rng));
  const auto counts = obs::TraceRecorder::global().span_counts();
  EXPECT_EQ(counts.count("serve.infer"), 1u);
  obs::set_tracing_enabled(false);
  obs::TraceRecorder::global().clear();
}

}  // namespace
}  // namespace legw
