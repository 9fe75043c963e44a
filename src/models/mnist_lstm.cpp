#include "models/mnist_lstm.hpp"

#include <algorithm>

namespace legw::models {

MnistLstm::MnistLstm(const MnistLstmConfig& config) : config_(config) {
  core::Rng rng(config.seed);
  transform_ = std::make_unique<nn::Linear>(config.n_cols,
                                            config.transform_dim, rng);
  cell_ = std::make_unique<nn::LstmCellLayer>(config.transform_dim,
                                              config.hidden_dim, rng);
  classifier_ =
      std::make_unique<nn::Linear>(config.hidden_dim, config.n_classes, rng);
  register_child("transform", transform_.get());
  register_child("lstm", cell_.get());
  register_child("classifier", classifier_.get());
}

ag::Variable MnistLstm::forward(const core::Tensor& images) const {
  LEGW_CHECK(images.dim() == 2 &&
                 images.size(1) == config_.n_rows * config_.n_cols,
             "MnistLstm: images must be [B, rows*cols]");
  const i64 batch = images.size(0);
  std::vector<ag::Variable> steps;
  for (i64 r = 0; r < config_.n_rows; ++r) {
    // Row r of every image: [B, n_cols].
    core::Tensor row(core::Shape{batch, config_.n_cols});
    for (i64 b = 0; b < batch; ++b) {
      const float* src =
          images.data() + b * config_.n_rows * config_.n_cols + r * config_.n_cols;
      std::copy(src, src + config_.n_cols, row.data() + b * config_.n_cols);
    }
    steps.push_back(transform_->forward(ag::Variable::constant(std::move(row))));
  }
  // The whole image as one layer node; classify the last step's h.
  const i64 rows = batch * config_.n_rows;
  const nn::LstmState s0 = cell_->zero_state(batch);
  ag::Variable hc = ag::lstm_layer(ag::concat_rows(steps), s0.h, s0.c,
                                   cell_->weight(), cell_->bias());
  return classifier_->forward(
      ag::slice(hc, rows - batch, rows, 0, config_.hidden_dim));
}

ag::Variable MnistLstm::loss(const core::Tensor& images,
                             const std::vector<i32>& labels) const {
  return ag::softmax_cross_entropy(forward(images), labels);
}

double MnistLstm::accuracy(const core::Tensor& images,
                           const std::vector<i32>& labels) const {
  ag::Variable logits = forward(images);
  const i64 batch = logits.size(0);
  const i64 classes = logits.size(1);
  LEGW_CHECK(static_cast<i64>(labels.size()) == batch,
             "accuracy: label count mismatch");
  i64 correct = 0;
  const float* lp = logits.value().data();
  for (i64 b = 0; b < batch; ++b) {
    i64 best = 0;
    for (i64 c = 1; c < classes; ++c) {
      if (lp[b * classes + c] > lp[b * classes + best]) best = c;
    }
    if (best == labels[static_cast<std::size_t>(b)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(batch);
}

}  // namespace legw::models
