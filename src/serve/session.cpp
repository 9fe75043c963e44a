#include "serve/session.hpp"

#include <algorithm>
#include <utility>

#include "core/kernels.hpp"
#include "mem/alloc.hpp"
#include "obs/trace.hpp"

namespace legw::serve {

namespace {

using core::container::fail;

// Pulls one named tensor out of the image, shape-checked. The training-side
// dot-joined module path ("transform.weight", "lstm.layer0.bias", ...) is
// the schema; anything absent or misshapen is a kStateMismatch.
Result take_param(const ModelImage& image, const std::string& name,
                  const core::Shape& want, core::Tensor* dst) {
  const core::Tensor* src = image.find_param(name);
  if (src == nullptr) {
    return fail(Status::kStateMismatch,
                "checkpoint has no parameter '" + name + "'");
  }
  if (src->shape() != want) {
    return fail(Status::kStateMismatch,
                "parameter '" + name + "': checkpoint shape " +
                    core::shape_to_string(src->shape()) +
                    " vs session config " + core::shape_to_string(want));
  }
  *dst = *src;
  return {};
}

// y[r, :] += bias — the same loop ag::add_bias runs, so the float op order
// (and therefore the bits) match the training graph.
void add_bias_rows(core::Tensor& y, const core::Tensor& bias) {
  const i64 m = y.size(0);
  const i64 n = y.size(1);
  float* o = y.data();
  const float* bv = bias.data();
  for (i64 r = 0; r < m; ++r) {
    for (i64 c = 0; c < n; ++c) o[r * n + c] += bv[c];
  }
}

// One fused LSTM step, replicating ag::lstm_cell's forward exactly:
// xh = [x | h] row-wise, acts = xh W (no bias — the fused kernel adds it),
// then core::lstm_cell_forward, then h/c copied out of the packed [B, 2H]
// rows the way ag::slice_cols materialises them.
void lstm_step(const core::Tensor& x, const core::Tensor& w,
               const core::Tensor& b, core::Tensor& h, core::Tensor& c) {
  const i64 batch = x.size(0);
  const i64 in_dim = x.size(1);
  const i64 hidden = h.size(1);

  core::Tensor xh = core::Tensor::uninit({batch, in_dim + hidden});
  {
    const float* xp = x.data();
    const float* hp = h.data();
    float* d = xh.data();
    for (i64 r = 0; r < batch; ++r) {
      std::copy(xp + r * in_dim, xp + (r + 1) * in_dim,
                d + r * (in_dim + hidden));
      std::copy(hp + r * hidden, hp + (r + 1) * hidden,
                d + r * (in_dim + hidden) + in_dim);
    }
  }
  core::Tensor acts = core::matmul(xh, w);  // [B, 4H]; kernel consumes it
  core::Tensor hc = core::Tensor::uninit({batch, 2 * hidden});
  core::Tensor tanh_c = core::Tensor::uninit({batch, hidden});  // scratch
  core::lstm_cell_forward(batch, hidden, b.data(), acts.data(), c.data(),
                          hc.data(), tanh_c.data());
  core::Tensor h_new = core::Tensor::uninit({batch, hidden});
  core::Tensor c_new = core::Tensor::uninit({batch, hidden});
  const float* packed = hc.data();
  for (i64 r = 0; r < batch; ++r) {
    std::copy(packed + r * 2 * hidden, packed + r * 2 * hidden + hidden,
              h_new.data() + r * hidden);
    std::copy(packed + r * 2 * hidden + hidden,
              packed + (r + 1) * 2 * hidden, c_new.data() + r * hidden);
  }
  h = std::move(h_new);
  c = std::move(c_new);
}

}  // namespace

Result ServeSession::load_bytes(const SessionConfig& config,
                                const std::string& image,
                                std::unique_ptr<ServeSession>* out) {
  LEGW_CHECK(out != nullptr, "ServeSession::load: null output");
  out->reset();
  ModelImage img;
  Result res = read_model_image_bytes(image, &img);
  return res.ok() ? compile(config, img, out) : res;
}

Result ServeSession::load(const SessionConfig& config,
                          const std::string& ckpt_path,
                          std::unique_ptr<ServeSession>* out) {
  LEGW_CHECK(out != nullptr, "ServeSession::load: null output");
  out->reset();
  ModelImage img;
  Result res = read_model_image(ckpt_path, &img);
  if (!res.ok()) return res;
  res = compile(config, img, out);
  if (!res.ok()) res.message += " (" + ckpt_path + ")";
  return res;
}

Result ServeSession::compile(const SessionConfig& config,
                             const ModelImage& img,
                             std::unique_ptr<ServeSession>* out) {
  Result res;
  std::unique_ptr<ServeSession> session(new ServeSession());
  session->config_ = config;
  session->step_ = img.step;
  session->epoch_ = img.epoch;

  if (config.kind == ModelKind::kMnistLstm) {
    const MnistPlanConfig& m = config.mnist;
    session->w_cell_.resize(1);
    session->b_cell_.resize(1);
    const struct {
      const char* name;
      core::Shape shape;
      core::Tensor* dst;
    } schema[] = {
        {"transform.weight", {m.n_cols, m.transform_dim},
         &session->w_transform_},
        {"transform.bias", {m.transform_dim}, &session->b_transform_},
        {"lstm.weight", {m.transform_dim + m.hidden_dim, 4 * m.hidden_dim},
         &session->w_cell_[0]},
        {"lstm.bias", {4 * m.hidden_dim}, &session->b_cell_[0]},
        {"classifier.weight", {m.hidden_dim, m.n_classes}, &session->w_cls_},
        {"classifier.bias", {m.n_classes}, &session->b_cls_},
    };
    for (const auto& entry : schema) {
      res = take_param(img, entry.name, entry.shape, entry.dst);
      if (!res.ok()) return res;
    }
  } else {
    const PtbPlanConfig& p = config.ptb;
    res = take_param(img, "embedding.weight", {p.vocab, p.embed_dim},
                     &session->w_embed_);
    if (!res.ok()) return res;
    session->w_cell_.resize(static_cast<std::size_t>(p.num_layers));
    session->b_cell_.resize(static_cast<std::size_t>(p.num_layers));
    for (i64 l = 0; l < p.num_layers; ++l) {
      const i64 in = l == 0 ? p.embed_dim : p.hidden_dim;
      const std::string prefix = "lstm.layer" + std::to_string(l);
      res = take_param(img, prefix + ".weight",
                       {in + p.hidden_dim, 4 * p.hidden_dim},
                       &session->w_cell_[static_cast<std::size_t>(l)]);
      if (!res.ok()) return res;
      res = take_param(img, prefix + ".bias", {4 * p.hidden_dim},
                       &session->b_cell_[static_cast<std::size_t>(l)]);
      if (!res.ok()) return res;
    }
    if (p.tie_embeddings) {
      res = take_param(img, "tied_bias", {p.vocab}, &session->b_dec_);
      if (!res.ok()) return res;
    } else {
      res = take_param(img, "decoder.weight", {p.hidden_dim, p.vocab},
                       &session->w_dec_);
      if (!res.ok()) return res;
      res = take_param(img, "decoder.bias", {p.vocab}, &session->b_dec_);
      if (!res.ok()) return res;
    }
  }

  *out = std::move(session);
  return {};
}

i64 ServeSession::request_length(const Request& req) const {
  return config_.kind == ModelKind::kMnistLstm
             ? 1
             : static_cast<i64>(req.tokens.size());
}

i64 ServeSession::output_dim() const {
  return config_.kind == ModelKind::kMnistLstm ? config_.mnist.n_classes
                                               : config_.ptb.vocab;
}

Result ServeSession::validate(const Request& req) const {
  if (config_.kind == ModelKind::kMnistLstm) {
    const i64 want = config_.mnist.n_rows * config_.mnist.n_cols;
    if (static_cast<i64>(req.features.size()) != want) {
      return fail(Status::kInvalidRequest,
                  "mnist request needs " + std::to_string(want) +
                      " features, got " + std::to_string(req.features.size()));
    }
    return {};
  }
  if (req.tokens.empty()) {
    return fail(Status::kInvalidRequest, "ptb request has no tokens");
  }
  for (i32 t : req.tokens) {
    if (t < 0 || t >= config_.ptb.vocab) {
      return fail(Status::kInvalidRequest,
                  "token id " + std::to_string(t) + " outside vocab [0, " +
                      std::to_string(config_.ptb.vocab) + ")");
    }
  }
  return {};
}

Result ServeSession::run_batch(const std::vector<Request>& reqs, i64 pad_len,
                               i64 pad_rows_to, std::vector<Response>* out,
                               mem::StepArena* arena) const {
  LEGW_CHECK(out != nullptr, "run_batch: null output");
  obs::Span span("serve.infer");
  if (reqs.empty()) {
    out->clear();
    return {};
  }
  i64 max_len = 0;
  for (const Request& req : reqs) {
    Result res = validate(req);
    if (!res.ok()) return res;
    max_len = std::max(max_len, request_length(req));
  }
  if (pad_len <= 0) pad_len = max_len;
  if (pad_len < max_len) {
    return fail(Status::kInvalidRequest,
                "pad_len " + std::to_string(pad_len) +
                    " shorter than longest request (" +
                    std::to_string(max_len) + ")");
  }
  const i64 rows = static_cast<i64>(reqs.size());
  const i64 batch = std::max(rows, pad_rows_to);

  out->assign(reqs.size(), Response{});
  for (std::size_t i = 0; i < reqs.size(); ++i) (*out)[i].id = reqs[i].id;

  const auto compute = [&] {
    if (config_.kind == ModelKind::kMnistLstm) {
      forward_mnist(reqs, batch, out);
    } else {
      forward_ptb(reqs, batch, pad_len, out);
    }
  };
  if (arena != nullptr) {
    // Scratch comes from the serving arena (replay-only plan); the responses
    // themselves are heap-rehomed inside the forwards, so nothing escapes
    // the step scope.
    mem::TrainStepScope scope(*arena);
    compute();
  } else {
    compute();
  }
  return {};
}

Response ServeSession::run(const Request& req) const {
  std::vector<Response> out;
  Result res = run_batch({req}, 0, 0, &out);
  if (!res.ok()) {
    Response r;
    r.id = req.id;
    r.status = res.status;
    r.message = std::move(res.message);
    return r;
  }
  return std::move(out.front());
}

void ServeSession::forward_mnist(const std::vector<Request>& reqs, i64 batch,
                                 std::vector<Response>* out) const {
  const MnistPlanConfig& m = config_.mnist;
  const i64 rows = static_cast<i64>(reqs.size());

  core::Tensor h = core::Tensor::zeros({batch, m.hidden_dim});
  core::Tensor c = core::Tensor::zeros({batch, m.hidden_dim});
  for (i64 r = 0; r < m.n_rows; ++r) {
    // Row r of every image, [B, n_cols]; padding rows stay all-zero.
    core::Tensor row = core::Tensor::zeros({batch, m.n_cols});
    for (i64 b = 0; b < rows; ++b) {
      const float* src = reqs[static_cast<std::size_t>(b)].features.data() +
                         r * m.n_cols;
      std::copy(src, src + m.n_cols, row.data() + b * m.n_cols);
    }
    core::Tensor x = core::matmul(row, w_transform_);
    add_bias_rows(x, b_transform_);
    lstm_step(x, w_cell_[0], b_cell_[0], h, c);
  }
  core::Tensor logits = core::matmul(h, w_cls_);
  add_bias_rows(logits, b_cls_);

  // Per-request outputs outlive the step arena: force heap storage.
  mem::HeapBindGuard heap;
  for (i64 b = 0; b < rows; ++b) {
    core::Tensor lg = core::Tensor::uninit({m.n_classes});
    std::copy(logits.data() + b * m.n_classes,
              logits.data() + (b + 1) * m.n_classes, lg.data());
    (*out)[static_cast<std::size_t>(b)].logits = std::move(lg);
  }
}

void ServeSession::forward_ptb(const std::vector<Request>& reqs, i64 batch,
                               i64 pad_len,
                               std::vector<Response>* out) const {
  const PtbPlanConfig& p = config_.ptb;
  const i64 rows = static_cast<i64>(reqs.size());
  const i64 L = p.num_layers;

  std::vector<core::Tensor> h, c;
  for (i64 l = 0; l < L; ++l) {
    h.push_back(core::Tensor::zeros({batch, p.hidden_dim}));
    c.push_back(core::Tensor::zeros({batch, p.hidden_dim}));
  }

  // Top-layer outputs stacked step-major ([t*B + b] rows), exactly like the
  // training graph's ag::concat_rows over per-step outputs.
  core::Tensor stacked = core::Tensor::uninit({pad_len * batch, p.hidden_dim});
  for (i64 t = 0; t < pad_len; ++t) {
    core::Tensor x = core::Tensor::uninit({batch, p.embed_dim});
    for (i64 b = 0; b < batch; ++b) {
      // Positions past a request's length (and whole padding rows) read
      // token 0; their outputs are computed and discarded — a row's valid
      // positions only ever depend on its own earlier tokens.
      i32 tok = 0;
      if (b < rows) {
        const auto& tokens = reqs[static_cast<std::size_t>(b)].tokens;
        if (t < static_cast<i64>(tokens.size())) {
          tok = tokens[static_cast<std::size_t>(t)];
        }
      }
      const float* src = w_embed_.data() + static_cast<i64>(tok) * p.embed_dim;
      std::copy(src, src + p.embed_dim, x.data() + b * p.embed_dim);
    }
    const core::Tensor* layer_in = &x;
    for (i64 l = 0; l < L; ++l) {
      const auto li = static_cast<std::size_t>(l);
      lstm_step(*layer_in, w_cell_[li], b_cell_[li], h[li], c[li]);
      layer_in = &h[li];
    }
    std::copy(layer_in->data(), layer_in->data() + batch * p.hidden_dim,
              stacked.data() + t * batch * p.hidden_dim);
  }

  // Tied softmax shares the embedding matrix: logits = h E^T + b.
  core::Tensor logits =
      p.tie_embeddings
          ? core::matmul(stacked, w_embed_, /*trans_a=*/false,
                         /*trans_b=*/true)
          : core::matmul(stacked, w_dec_);
  add_bias_rows(logits, b_dec_);

  mem::HeapBindGuard heap;
  for (i64 b = 0; b < rows; ++b) {
    const i64 len = request_length(reqs[static_cast<std::size_t>(b)]);
    core::Tensor lg = core::Tensor::uninit({len, p.vocab});
    for (i64 t = 0; t < len; ++t) {
      const float* src = logits.data() + (t * batch + b) * p.vocab;
      std::copy(src, src + p.vocab, lg.data() + t * p.vocab);
    }
    (*out)[static_cast<std::size_t>(b)].logits = std::move(lg);
  }
}

}  // namespace legw::serve
