#include "serve/session.hpp"

#include <algorithm>
#include <utility>

#include "core/kernels.hpp"
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

// y[r, :] += bias through the kernel ag::add_bias runs.
void add_bias_rows(core::Tensor& y, const core::Tensor& bias) {
  core::add_bias_rows(y.data(), bias.data(), y.size(0), y.size(1));
}

// h of steps [first_step, T) of one LSTM layer over the window from a zero
// state, through the core forward the training graph's ag::lstm_layer runs
// (so the bits match). x: [T*B, I] step-major; returns [(T-first)*B, H].
core::Tensor lstm_h(const core::Tensor& x, i64 batch, const core::PackedB& w,
                    const core::Tensor& b, i64 first_step) {
  const i64 hidden = b.size(0) / 4;
  const core::Tensor zero = core::Tensor::zeros({batch, hidden});
  core::LstmTape tape(x.size(0) / batch, batch, x.size(1), hidden);
  const core::Tensor hc = core::lstm_sequence_forward(
      x.data(), zero.data(), zero.data(), w, b.data(), &tape);
  core::Tensor h = core::Tensor::uninit({x.size(0) - first_step * batch, hidden});
  for (i64 r = 0; r < h.size(0); ++r) {
    const float* src = hc.data() + (first_step * batch + r) * 2 * hidden;
    std::copy(src, src + hidden, h.data() + r * hidden);
  }
  return h;
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

  // Each LSTM weight packed once, for every request the session serves.
  for (const core::Tensor& w : session->w_cell_) {
    session->w_cell_packed_.push_back(
        core::pack_b(false, w.size(1), w.size(0), w.data(), w.size(1)));
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
                               i64 pad_rows_to,
                               std::vector<Response>* out) const {
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

  const bool mnist = config_.kind == ModelKind::kMnistLstm;
  const core::Tensor logits =
      mnist ? forward_mnist(reqs, batch) : forward_ptb(reqs, batch, pad_len);
  // Request b's logits are rows t*batch + b of the step-major block.
  const i64 cols = output_dim();
  out->assign(reqs.size(), Response{});
  for (std::size_t b = 0; b < reqs.size(); ++b) {
    const i64 len = request_length(reqs[b]);
    core::Tensor lg = core::Tensor::uninit(
        mnist ? core::Shape{cols} : core::Shape{len, cols});
    for (i64 t = 0; t < len; ++t) {
      const float* src = logits.data() + (t * batch + static_cast<i64>(b)) * cols;
      std::copy(src, src + cols, lg.data() + t * cols);
    }
    (*out)[b].id = reqs[b].id;
    (*out)[b].logits = std::move(lg);
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

core::Tensor ServeSession::forward_mnist(const std::vector<Request>& reqs,
                                         i64 batch) const {
  const MnistPlanConfig& m = config_.mnist;

  // Image row t of every request at rows [t*B, (t+1)*B); padding rows stay
  // all-zero. One transform product for all steps: each output row is
  // reduced on its own, so it equals training's per-step products.
  core::Tensor pixels = core::Tensor::zeros({m.n_rows * batch, m.n_cols});
  for (i64 t = 0; t < m.n_rows; ++t) {
    for (std::size_t b = 0; b < reqs.size(); ++b) {
      const float* src = reqs[b].features.data() + t * m.n_cols;
      std::copy(src, src + m.n_cols,
                pixels.data() + (t * batch + static_cast<i64>(b)) * m.n_cols);
    }
  }
  core::Tensor x = core::matmul(pixels, w_transform_);
  add_bias_rows(x, b_transform_);
  core::Tensor logits = core::matmul(
      lstm_h(x, batch, w_cell_packed_[0], b_cell_[0], m.n_rows - 1), w_cls_);
  add_bias_rows(logits, b_cls_);
  return logits;
}

core::Tensor ServeSession::forward_ptb(const std::vector<Request>& reqs,
                                       i64 batch, i64 pad_len) const {
  const PtbPlanConfig& p = config_.ptb;
  const i64 rows = static_cast<i64>(reqs.size());

  // Embedded tokens stacked step-major ([t*B + b] rows), as the training
  // graph's ag::concat_rows over per-step embeddings.
  core::Tensor x = core::Tensor::uninit({pad_len * batch, p.embed_dim});
  for (i64 t = 0; t < pad_len; ++t) {
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
      std::copy(src, src + p.embed_dim, x.data() + (t * batch + b) * p.embed_dim);
    }
  }
  for (std::size_t l = 0; l < w_cell_packed_.size(); ++l) {
    x = lstm_h(x, batch, w_cell_packed_[l], b_cell_[l], 0);
  }

  // Tied softmax shares the embedding matrix: logits = h E^T + b.
  core::Tensor logits =
      p.tie_embeddings
          ? core::matmul(x, w_embed_, /*trans_a=*/false, /*trans_b=*/true)
          : core::matmul(x, w_dec_);
  add_bias_rows(logits, b_dec_);
  return logits;
}

}  // namespace legw::serve
