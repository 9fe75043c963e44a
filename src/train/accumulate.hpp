// Gradient accumulation: emulate a batch k times larger than memory allows
// by summing k micro-batch backward passes before one optimizer step.
//
// The paper's large-batch experiments stop where device memory runs out
// (PTB at 640, GNMT at 4K "will lead to the out-of-memory issue"); gradient
// accumulation is the standard way past that wall, and with LEGW the
// schedule for the *effective* batch applies unchanged. Equivalence with a
// real large batch (exact up to float reassociation) is verified in
// tests/test_train_extras.cpp.
#pragma once

#include <functional>

#include "ag/variable.hpp"

namespace legw::train {

class GradientAccumulator {
 public:
  // `params` are the model parameters whose gradients accumulate.
  explicit GradientAccumulator(std::vector<ag::Variable> params)
      : params_(std::move(params)) {}

  // Runs one micro-batch: zero nothing, backward the scalar loss returned by
  // `loss_fn`, count it. Micro-batch losses must be *means over equally
  // sized micro-batches* for finish() to produce the large-batch mean.
  // Returns the loss value.
  float micro_step(const std::function<ag::Variable()>& loss_fn) {
    ag::Variable loss = loss_fn();
    LEGW_CHECK(loss.numel() == 1, "GradientAccumulator: loss must be scalar");
    ag::backward(loss);
    ++count_;
    return loss.value()[0];
  }

  // Counts a micro-batch whose backward ran outside this accumulator — e.g.
  // one dist::overlapped_backward call with zero_grads=false, which leaves
  // the replica-mean micro-batch gradient *added* onto the existing
  // gradients. finish() then divides by the number of micro-batches exactly
  // as if micro_step had run them (tests/test_train_extras.cpp verifies the
  // composition reproduces the replicas × micro-batches large-batch step).
  void count_external_micro_step() { ++count_; }

  // Scales the accumulated gradients to the mean over all micro-batches and
  // resets the counter. Call exactly once per optimizer step.
  void finish() {
    LEGW_CHECK(count_ > 0, "GradientAccumulator: finish() before any micro_step");
    const float inv = 1.0f / static_cast<float>(count_);
    for (auto& p : params_) p.mutable_grad().scale_(inv);
    count_ = 0;
  }

  i64 pending_micro_steps() const { return count_; }

  // Restores the micro-step position after a checkpoint resume. The
  // accumulated gradients themselves live in the parameters' grad tensors
  // and travel in the checkpoint's "grads" section (written whenever the
  // saved position is mid-accumulation), so position + restored grads
  // reproduce the interrupted large-batch step exactly.
  //
  // A restored count of 0 means "no accumulation in flight", and the next
  // micro_step must start summing from zero — but the grad buffers may hold
  // arbitrary content (the pre-crash partial sums; the checkpoint only
  // writes a "grads" section when count > 0). Zero-fill explicitly instead
  // of assuming freshly-zeroed buffers. For count > 0 the caller restores
  // the partial sums right after this call; materialise the buffers so that
  // restore always lands in allocated storage.
  void restore_pending(i64 count) {
    LEGW_CHECK(count >= 0, "GradientAccumulator: negative pending count");
    count_ = count;
    if (count == 0) {
      for (auto& p : params_) p.zero_grad();
    } else {
      for (auto& p : params_) p.mutable_grad();
    }
  }

 private:
  std::vector<ag::Variable> params_;
  i64 count_ = 0;
};

}  // namespace legw::train
