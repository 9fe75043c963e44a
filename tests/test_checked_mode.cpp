// Checked diagnostic build: seeded violations proving each tripwire fires
// with precise blame, plus the guard that a default (LEGW_CHECKED=OFF) build
// keeps the element-level checks compiled out. The same file is compiled in
// both builds; expectations flip on check::kCheckedBuild / the
// LEGW_CHECKED_BUILD macro. The NaN/Inf tripwires are runtime-toggleable, so
// those violations are provable in every build via TripwireScope.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ag/ops.hpp"
#include "ag/variable.hpp"
#include "check/check.hpp"
#include "core/thread_pool.hpp"
#include "optim/optimizer.hpp"

namespace legw::check {
namespace {

using ag::Node;
using ag::Variable;
using core::Tensor;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(CheckedMode, BuildFlagMatchesCompileDefinition) {
#ifdef LEGW_CHECKED_BUILD
  EXPECT_TRUE(kCheckedBuild);
#else
  // The guard for release builds: the constant is false, so every
  // `if constexpr (kCheckedBuild)` body and the bounds-checked operator[]
  // branch are compiled out, and the tripwires default to off.
  EXPECT_FALSE(kCheckedBuild);
  EXPECT_FALSE(tripwires_enabled());
#endif
}

TEST(CheckedMode, TripwireScopeSetsAndRestores) {
  const bool before = tripwires_enabled();
  {
    TripwireScope on(true);
    EXPECT_TRUE(tripwires_enabled());
    {
      TripwireScope off(false);
      EXPECT_FALSE(tripwires_enabled());
    }
    EXPECT_TRUE(tripwires_enabled());
  }
  EXPECT_EQ(tripwires_enabled(), before);
}

TEST(CheckedMode, StepIndexRoundTrips) {
  const i64 before = step_index();
  set_step_index(42);
  EXPECT_EQ(step_index(), 42);
  set_step_index(before);
}

TEST(CheckedMode, FirstNonFiniteFindsNanAndInf) {
  float clean[3] = {1.0f, -2.0f, 0.0f};
  EXPECT_EQ(first_non_finite(clean, 3), -1);
  float with_nan[3] = {1.0f, kNan, kNan};
  EXPECT_EQ(first_non_finite(with_nan, 3), 1);
  float with_inf[2] = {-kInf, 0.0f};
  EXPECT_EQ(first_non_finite(with_inf, 2), 0);
  Tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_TRUE(all_finite(t));
  t.data()[3] = kInf;
  EXPECT_FALSE(all_finite(t));
}

TEST(CheckedMode, TensorVersionBumpsOnlyOnMutation) {
  Tensor t({2}, {1.0f, 2.0f});
  const u32 v0 = t.version();
  // Reads must not bump: backward closures read parent values through
  // data()/operator[], and a bump there would make every graph stale.
  (void)t[0];
  (void)t.data();
  EXPECT_EQ(t.version(), v0);
  t.fill_(3.0f);
  EXPECT_GT(t.version(), v0);
  const u32 v1 = t.version();
  t.add_(Tensor({2}, {1.0f, 1.0f}));
  EXPECT_GT(t.version(), v1);
  const u32 v2 = t.version();
  t = Tensor({2}, {9.0f, 9.0f});  // whole-tensor assignment is a mutation too
  EXPECT_GT(t.version(), v2);
}

// ---- seeded violations -----------------------------------------------------
// Each tripwire must actually fire, with the blame string the docs promise.

TEST(CheckedModeDeath, ShapeMismatchIsBlamedByOp) {
  Variable a = Variable::leaf(Tensor({2, 3}), true);
  Variable b = Variable::leaf(Tensor({3, 2}), true);
  EXPECT_DEATH(ag::add(a, b), "add: shape mismatch");
}

TEST(CheckedModeDeath, ForwardNanIsBlamedByProducingOp) {
  TripwireScope on(true);
  // Leaf creation never scans; the first *op* consuming the NaN must blame
  // itself as the producer of a non-finite output.
  Variable x = Variable::leaf(Tensor({2}, {1.0f, kNan}), true);
  EXPECT_DEATH(ag::scale(x, 2.0f),
               "non-finite tripwire.*scale\\.out.*forward of scale");
}

TEST(CheckedModeDeath, InjectedGradientNanIsBlamedInBackward) {
  TripwireScope on(true);
  Variable x = Variable::leaf(Tensor({2}, {1.0f, 2.0f}), true);
  Variable y = ag::make_op_node("nan_grad_op", Tensor({1}, {3.0f}), {x},
                                [](Node& n) {
                                  Tensor& g = n.parents[0]->ensure_grad();
                                  g.data()[1] = kNan;
                                });
  EXPECT_DEATH(ag::backward(y),
               "non-finite tripwire.*leaf\\.grad.*backward of nan_grad_op");
}

TEST(CheckedModeDeath, InPlaceMutationAfterCaptureAbortsBackward) {
  TripwireScope on(true);
  Variable x = Variable::leaf(Tensor({2}, {1.0f, 2.0f}), true);
  Variable loss = ag::sum_all(ag::mul(x, x));
  x.mutable_value().fill_(5.0f);
  EXPECT_DEATH(
      ag::backward(loss),
      "stale graph: input .* of op '(mul|sum_all)' .* mutated in place");
}

TEST(CheckedModeDeath, LstmLayerWeightMutationAbortsBackward) {
  // The layer node packs W^T from W's value when its backward runs, so an
  // in-place update of W between forward and backward must still be caught.
  TripwireScope on(true);
  core::Rng rng(4);
  Variable x = Variable::leaf(Tensor::randn({6, 3}, rng), true);
  Variable h = Variable::constant(Tensor::zeros({2, 4}));
  Variable w = Variable::leaf(Tensor::randn({7, 16}, rng, 0.3f), true);
  Variable b = Variable::leaf(Tensor::zeros({16}), true);
  Variable loss = ag::sum_all(ag::lstm_layer(x, h, h, w, b));
  w.mutable_value().scale_(0.5f);
  EXPECT_DEATH(ag::backward(loss),
               "stale graph: input 3 of op 'lstm_layer' .* mutated in place");
}

TEST(CheckedModeDeath, OptimizerStepBlamesParamAndStepCount) {
  TripwireScope on(true);
  Variable w = Variable::leaf(Tensor({2}, {1.0f, 2.0f}), true);
  optim::Sgd opt({w});
  opt.set_lr(0.1f);
  w.mutable_grad().fill_(1.0f);
  opt.step();  // finite update: must pass
  EXPECT_EQ(opt.steps(), 1);
  w.mutable_grad().fill_(kInf);
  EXPECT_DEATH(opt.step(),
               "non-finite tripwire.*param\\[0\\]\\.value.*sgd\\.step 2");
}

TEST(CheckedModeDeath, OptimizerStepIsSilentWhenTripwiresOff) {
  TripwireScope off(false);
  Variable w = Variable::leaf(Tensor({2}, {1.0f, 2.0f}), true);
  optim::Sgd opt({w});
  opt.set_lr(0.1f);
  w.mutable_grad().fill_(kInf);
  opt.step();  // param is now non-finite, but nothing is armed
  EXPECT_FALSE(all_finite(w.value()));
}

#ifdef LEGW_CHECKED_BUILD
// Uninitialised storage is NaN-poisoned, below and above the size whose
// fill goes to the thread pool.
TEST(CheckedMode, UninitializedStorageIsNanPoisoned) {
  for (const i64 n : {i64{5}, 4 * core::grain_for(1) + 3}) {
    const Tensor t = Tensor::uninit({n});
    EXPECT_EQ(first_non_finite(t.data(), n), 0);
    for (i64 i = 0; i < n; ++i) ASSERT_TRUE(std::isnan(t.data()[i])) << i;
  }
}

// An op that allocates its output uninitialised but leaves an element
// unwritten is blamed at its own forward.
TEST(CheckedModeDeath, PartlyWrittenUninitOutputIsBlamedByOp) {
  TripwireScope on(true);
  Variable x = Variable::leaf(Tensor({4}, {1.0f, 2.0f, 3.0f, 4.0f}), true);
  const auto partial_copy = [&x] {
    Tensor out = Tensor::uninit({4});
    for (i64 i = 0; i < 3; ++i) out[i] = x.value()[i];  // element 3 missed
    return ag::make_op_node("partial_copy", std::move(out), {x},
                            [](Node&) {});
  };
  EXPECT_DEATH(partial_copy(),
               "non-finite tripwire.*elem 3 of partial_copy\\.out.*"
               "forward of partial_copy");
}

TEST(CheckedModeDeath, OutOfBoundsElementAccessAborts) {
  Tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_DEATH((void)t[4], "index out of bounds: 4");
  EXPECT_DEATH((void)t[-1], "index out of bounds: -1");
}
#endif

}  // namespace
}  // namespace legw::check
