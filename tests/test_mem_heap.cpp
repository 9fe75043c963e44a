// Tensor memory battery: the counted heap (mem/alloc.hpp) behind every
// core::Tensor, and the gradient-accumulator regressions that guard against
// stale gradient buffers.
//
//   * heap accounting: heap_allocs counts every tensor allocation,
//     heap_live_bytes tracks allocation and free exactly (also across
//     threads), heap_peak_bytes is the high-water mark, and reset_mem_peaks()
//     re-arms it at the live value; every buffer is mem::kAlignment-aligned.
//   * FloatStorage value semantics: zero-fill (even on reused bytes), deep
//     counted copies, allocation-free moves, uninitialized() still counted.
//   * lifetimes: interleaved tensors keep their bytes, a forward/backward
//     releases every interior buffer, and repeated training steps hold the
//     live bytes steady.
//   * the perfbench shims: Tensor::rehome_() and mem::TrainStepScope are
//     inert.
//   * gradient accumulator: consecutive steps see no stale gradients, and
//     restore_pending(0) zero-fills instead of assuming freshly-zeroed
//     buffers.
//
// The battery also runs under the sanitize preset (label tier1-mem matches
// the "mem" filter).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "ag/ops.hpp"
#include "ag/variable.hpp"
#include "core/storage.hpp"
#include "core/tensor.hpp"
#include "core/thread_pool.hpp"
#include "mem/alloc.hpp"
#include "train/accumulate.hpp"

namespace legw::train {
namespace {

// ---------------------------------------------------------------------------
// Heap accounting
// ---------------------------------------------------------------------------

constexpr i64 kFloat = static_cast<i64>(sizeof(float));

// loss = sum(w * w): d/dw = 2w.
ag::Variable toy_loss_for_heap(const ag::Variable& w) {
  return ag::sum_all(ag::mul(w, w));
}

TEST(HeapAccounting, CountsAllocsLiveAndPeakBytes) {
  mem::reset_mem_peaks();
  const mem::MemStats before = mem::mem_stats();
  EXPECT_EQ(before.heap_peak_bytes, before.heap_live_bytes);
  {
    core::Tensor t = core::Tensor::zeros(core::Shape{1024});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % mem::kAlignment,
              0u);
    const mem::MemStats during = mem::mem_stats();
    EXPECT_EQ(during.heap_allocs, before.heap_allocs + 1);
    EXPECT_EQ(during.heap_live_bytes, before.heap_live_bytes + 1024 * kFloat);
    EXPECT_EQ(during.heap_peak_bytes, during.heap_live_bytes);
  }
  const mem::MemStats after = mem::mem_stats();
  EXPECT_EQ(after.heap_live_bytes, before.heap_live_bytes);
  // The peak remembers the freed tensor until it is re-armed.
  EXPECT_EQ(after.heap_peak_bytes, before.heap_live_bytes + 1024 * kFloat);

  mem::reset_mem_peaks();
  EXPECT_EQ(mem::mem_stats().heap_peak_bytes, after.heap_live_bytes);
  {
    core::Tensor small = core::Tensor::zeros(core::Shape{256});
  }
  const mem::MemStats window = mem::mem_stats();
  EXPECT_EQ(window.heap_allocs, after.heap_allocs + 1);
  EXPECT_EQ(window.heap_peak_bytes, after.heap_live_bytes + 256 * kFloat);
}

TEST(HeapAccounting, EmptyTensorsAndMovesDoNotAllocate) {
  const mem::MemStats before = mem::mem_stats();
  core::Tensor empty = core::Tensor::zeros(core::Shape{0});
  core::Tensor t = core::Tensor::zeros(core::Shape{64});
  core::Tensor moved = std::move(t);
  const mem::MemStats after = mem::mem_stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs + 1);
  EXPECT_EQ(after.heap_live_bytes, before.heap_live_bytes + 64 * kFloat);
  EXPECT_EQ(moved.numel(), 64);
}

bool aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % mem::kAlignment == 0;
}

TEST(HeapAccounting, RawAllocAlignsAndCountsEverySize) {
  for (i64 bytes : {i64{1}, i64{3}, i64{4}, i64{63}, i64{64}, i64{65},
                    i64{4095}, i64{1} << 20}) {
    const mem::MemStats before = mem::mem_stats();
    void* p = mem::heap_alloc(bytes);
    ASSERT_NE(p, nullptr) << bytes;
    EXPECT_TRUE(aligned(p)) << bytes;
    std::memset(p, 0xA5, static_cast<std::size_t>(bytes));  // writable
    const mem::MemStats during = mem::mem_stats();
    EXPECT_EQ(during.heap_allocs, before.heap_allocs + 1) << bytes;
    EXPECT_EQ(during.heap_live_bytes, before.heap_live_bytes + bytes)
        << bytes;
    EXPECT_GE(during.heap_peak_bytes, during.heap_live_bytes) << bytes;
    mem::heap_free(p, bytes);
    const mem::MemStats after = mem::mem_stats();
    EXPECT_EQ(after.heap_live_bytes, before.heap_live_bytes) << bytes;
    EXPECT_EQ(after.heap_allocs, during.heap_allocs) << "free is not an alloc";
  }
}

TEST(HeapAccounting, PeakIsMaxOfOverlappingLiveBytesNotTheirSum) {
  mem::reset_mem_peaks();
  const i64 base = mem::mem_stats().heap_live_bytes;
  {
    core::Tensor a = core::Tensor::zeros(core::Shape{100});
  }
  {
    core::Tensor b = core::Tensor::zeros(core::Shape{300});
  }
  // Disjoint lifetimes: the peak is the larger tensor alone.
  EXPECT_EQ(mem::mem_stats().heap_peak_bytes, base + 300 * kFloat);

  mem::reset_mem_peaks();
  {
    core::Tensor a = core::Tensor::zeros(core::Shape{100});
    core::Tensor b = core::Tensor::zeros(core::Shape{300});
  }
  // Overlapping lifetimes: both count at once.
  EXPECT_EQ(mem::mem_stats().heap_peak_bytes, base + 400 * kFloat);
}

TEST(HeapAccounting, ResetPeaksLeavesAllocsAndLiveUntouched) {
  core::Tensor keep = core::Tensor::zeros(core::Shape{512});
  {
    core::Tensor spike = core::Tensor::zeros(core::Shape{4096});
  }
  const mem::MemStats before = mem::mem_stats();
  ASSERT_GT(before.heap_peak_bytes, before.heap_live_bytes);
  mem::reset_mem_peaks();
  const mem::MemStats after = mem::mem_stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs);
  EXPECT_EQ(after.heap_live_bytes, before.heap_live_bytes);
  EXPECT_EQ(after.heap_peak_bytes, before.heap_live_bytes);
  EXPECT_EQ(keep.numel(), 512);
}

TEST(HeapAccounting, ConcurrentAllocFreeBalancesExactly) {
  // The counters are shared by every thread that builds tensors (the pool's
  // workers, the dist replicas, the serve broker): concurrent traffic must
  // neither lose nor invent a count.
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  core::ThreadPool pool(kThreads);
  const mem::MemStats before = mem::mem_stats();
  pool.parallel_for(0, kThreads, 1, [](i64 begin, i64 end) {
    for (i64 t = begin; t < end; ++t) {
      for (int r = 0; r < kRounds; ++r) {
        const i64 bytes = 16 * (1 + (t + r) % 7);
        void* p = mem::heap_alloc(bytes);
        static_cast<unsigned char*>(p)[0] = static_cast<unsigned char>(r);
        mem::heap_free(p, bytes);
      }
    }
  });
  const mem::MemStats after = mem::mem_stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs + kThreads * kRounds);
  EXPECT_EQ(after.heap_live_bytes, before.heap_live_bytes);
  EXPECT_GE(after.heap_peak_bytes, before.heap_live_bytes + 16);
}

TEST(HeapAccounting, WriteReadIntegrityAcrossInterleavedLifetimes) {
  // Tensors of many sizes with distinct fills; free every other one, refill
  // the holes with new tensors, and check every survivor kept its bytes.
  const mem::MemStats before = mem::mem_stats();
  std::vector<std::optional<core::Tensor>> live;
  for (int i = 0; i < 40; ++i) {
    live.emplace_back(core::Tensor::full(core::Shape{1 + 37 * i},
                                         static_cast<float>(i)));
  }
  for (int i = 0; i < 40; i += 2) live[static_cast<std::size_t>(i)].reset();
  std::vector<core::Tensor> fresh;
  for (int i = 0; i < 20; ++i) {
    fresh.push_back(core::Tensor::full(core::Shape{1 + 53 * i}, -1.0f - i));
  }
  for (int i = 1; i < 40; i += 2) {
    const core::Tensor& t = *live[static_cast<std::size_t>(i)];
    ASSERT_EQ(t.numel(), 1 + 37 * i);
    EXPECT_TRUE(aligned(t.data())) << i;
    for (i64 j = 0; j < t.numel(); ++j) {
      ASSERT_EQ(t[j], static_cast<float>(i)) << "tensor " << i << " elem " << j;
    }
  }
  for (int i = 0; i < 20; ++i) {
    const core::Tensor& t = fresh[static_cast<std::size_t>(i)];
    for (i64 j = 0; j < t.numel(); ++j) {
      ASSERT_EQ(t[j], -1.0f - i) << "fresh " << i << " elem " << j;
    }
  }
  live.clear();
  fresh.clear();
  EXPECT_EQ(mem::mem_stats().heap_live_bytes, before.heap_live_bytes);
}

TEST(HeapAccounting, ForwardBackwardReleasesEveryInteriorBuffer) {
  // After backward and dropping the graph, only the leaves' values and
  // their gradient buffers remain live: every interior value, every
  // interior grad and every closure capture has gone back to the heap.
  ag::Variable w = ag::Variable::leaf(core::Tensor::full({4, 4}, 0.5f), true);
  ag::Variable x = ag::Variable::constant(core::Tensor::full({3, 4}, 1.0f));
  const mem::MemStats before = mem::mem_stats();
  {
    ag::Variable loss =
        ag::sum_all(ag::tanh(ag::matmul(x, w)));
    ag::backward(loss);
  }
  const mem::MemStats after = mem::mem_stats();
  EXPECT_GT(after.heap_allocs, before.heap_allocs + 1);
  EXPECT_EQ(after.heap_live_bytes, before.heap_live_bytes + 16 * kFloat)
      << "only w's gradient buffer may outlive the graph";
}

TEST(HeapAccounting, LeafGradBufferIsAllocatedOnceAndReusedAcrossSteps) {
  ag::Variable w = ag::Variable::leaf(core::Tensor({2}, {1.0f, 2.0f}), true);
  ag::backward(toy_loss_for_heap(w));
  const float* grad_bytes = w.grad().data();
  std::vector<i64> step_allocs;
  for (int step = 0; step < 3; ++step) {
    const i64 allocs = mem::mem_stats().heap_allocs;
    w.zero_grad();
    ag::backward(toy_loss_for_heap(w));
    step_allocs.push_back(mem::mem_stats().heap_allocs - allocs);
    EXPECT_EQ(w.grad().data(), grad_bytes) << "step " << step;
    EXPECT_FLOAT_EQ(w.grad()[0], 2.0f) << "step " << step;
  }
  // Every step allocates the same interior buffers, no more.
  EXPECT_EQ(step_allocs[1], step_allocs[0]);
  EXPECT_EQ(step_allocs[2], step_allocs[0]);
}

TEST(HeapAccounting, RepeatedTrainingStepsHoldLiveBytesSteady) {
  ag::Variable w = ag::Variable::leaf(core::Tensor::full({8, 8}, 0.1f), true);
  ag::Variable x = ag::Variable::constant(core::Tensor::full({4, 8}, 1.0f));
  GradientAccumulator acc({w});
  std::vector<i64> live_after_step;
  for (int step = 0; step < 5; ++step) {
    w.zero_grad();
    acc.micro_step([&] { return ag::sum_all(ag::tanh(ag::matmul(x, w))); });
    acc.micro_step([&] { return ag::sum_all(ag::matmul(x, w)); });
    acc.finish();
    w.mutable_value().add_(w.grad(), -0.01f);
    live_after_step.push_back(mem::mem_stats().heap_live_bytes);
  }
  for (std::size_t s = 1; s < live_after_step.size(); ++s) {
    EXPECT_EQ(live_after_step[s], live_after_step[0]) << "step " << s;
  }
}

// ---------------------------------------------------------------------------
// FloatStorage value semantics
// ---------------------------------------------------------------------------

TEST(FloatStorage, SizedConstructorZeroFillsReusedBytes) {
  // Dirty a buffer, free it, and ask for the same size again: whichever
  // bytes the heap hands back, the sized constructor zero-fills them.
  for (int round = 0; round < 4; ++round) {
    {
      core::FloatStorage dirty(257, 7.5f);
      EXPECT_EQ(dirty[256], 7.5f);
    }
    core::FloatStorage clean(257);
    ASSERT_EQ(clean.size(), 257);
    for (i64 i = 0; i < clean.size(); ++i) {
      ASSERT_EQ(clean[static_cast<std::size_t>(i)], 0.0f)
          << "round " << round << " elem " << i;
    }
  }
}

TEST(FloatStorage, FillConstructorSetsEveryElement) {
  core::FloatStorage s(1000, -3.25f);
  ASSERT_EQ(s.size(), 1000);
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(aligned(s.data()));
  for (float v : s) EXPECT_EQ(v, -3.25f);
  core::FloatStorage none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.data(), nullptr);
  EXPECT_EQ(none.begin(), none.end());
}

TEST(FloatStorage, CopyIsDeepAndCounted) {
  core::FloatStorage src(64, 1.0f);
  const mem::MemStats before = mem::mem_stats();
  core::FloatStorage copy(src);
  const mem::MemStats after = mem::mem_stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs + 1);
  EXPECT_EQ(after.heap_live_bytes, before.heap_live_bytes + 64 * kFloat);
  ASSERT_NE(copy.data(), src.data());
  EXPECT_TRUE(aligned(copy.data()));
  copy[3] = 9.0f;
  EXPECT_EQ(src[3], 1.0f) << "a copy must not alias its source";
  EXPECT_EQ(copy[2], 1.0f);
}

TEST(FloatStorage, MoveTransfersBufferWithoutAllocating) {
  core::FloatStorage src(128, 2.0f);
  const float* bytes = src.data();
  const mem::MemStats before = mem::mem_stats();
  core::FloatStorage moved(std::move(src));
  core::FloatStorage assigned;
  assigned = std::move(moved);
  const mem::MemStats after = mem::mem_stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs);
  EXPECT_EQ(after.heap_live_bytes, before.heap_live_bytes);
  EXPECT_EQ(assigned.data(), bytes);
  EXPECT_EQ(assigned.size(), 128);
  EXPECT_EQ(assigned[127], 2.0f);
}

TEST(FloatStorage, CopyAssignReplacesBufferAndBalancesLiveBytes) {
  core::FloatStorage big(1000, 1.0f);
  core::FloatStorage small(10, 4.0f);
  const mem::MemStats before = mem::mem_stats();
  big = small;
  EXPECT_EQ(mem::mem_stats().heap_live_bytes,
            before.heap_live_bytes - 990 * kFloat);
  ASSERT_EQ(big.size(), 10);
  for (float v : big) EXPECT_EQ(v, 4.0f);
  const core::FloatStorage& alias = big;
  big = alias;  // self-assignment keeps the contents
  ASSERT_EQ(big.size(), 10);
  for (float v : big) EXPECT_EQ(v, 4.0f);
  EXPECT_EQ(mem::mem_stats().heap_live_bytes,
            before.heap_live_bytes - 990 * kFloat);
}

TEST(FloatStorage, UninitializedIsCountedAlignedAndEmptyDoesNotAllocate) {
  const mem::MemStats before = mem::mem_stats();
  core::FloatStorage s = core::FloatStorage::uninitialized(333);
  EXPECT_EQ(s.size(), 333);
  EXPECT_TRUE(aligned(s.data()));
  EXPECT_EQ(mem::mem_stats().heap_allocs, before.heap_allocs + 1);
  EXPECT_EQ(mem::mem_stats().heap_live_bytes,
            before.heap_live_bytes + 333 * kFloat);
  core::FloatStorage none = core::FloatStorage::uninitialized(0);
  core::FloatStorage zero(0);
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(zero.empty());
  EXPECT_EQ(mem::mem_stats().heap_allocs, before.heap_allocs + 1);
}

// ---------------------------------------------------------------------------
// perfbench shims
// ---------------------------------------------------------------------------

TEST(PerfbenchShims, RehomeIsANoOpReturningSelf) {
  core::Tensor t = core::Tensor::full({3, 5}, 1.5f);
  const float* bytes = t.data();
  const mem::MemStats before = mem::mem_stats();
  core::Tensor& same = t.rehome_();
  EXPECT_EQ(&same, &t);
  EXPECT_EQ(t.data(), bytes);
  EXPECT_EQ(mem::mem_stats().heap_allocs, before.heap_allocs);
  for (i64 i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 1.5f);
}

TEST(PerfbenchShims, TrainStepScopeLeavesTensorsIntactAndCounted) {
  // perfbench opens a scope per replayed step and carries tensors out of
  // it: they are ordinary heap tensors before, inside and after.
  const mem::MemStats before = mem::mem_stats();
  core::Tensor carried;
  {
    std::optional<mem::TrainStepScope> scope(std::in_place);
    carried = core::Tensor::full({16}, 3.0f);
    core::Tensor scratch = core::Tensor::zeros({1024});
    EXPECT_EQ(mem::mem_stats().heap_allocs, before.heap_allocs + 2);
  }
  EXPECT_EQ(mem::mem_stats().heap_live_bytes,
            before.heap_live_bytes + 16 * kFloat);
  EXPECT_TRUE(aligned(carried.data()));
  for (i64 i = 0; i < carried.numel(); ++i) EXPECT_EQ(carried[i], 3.0f);
}

// ---------------------------------------------------------------------------
// Gradient-accumulator regressions (stale-buffer assumptions)
// ---------------------------------------------------------------------------

// A tiny deterministic loss over one parameter: loss = sum(w * w * c).
ag::Variable toy_loss(const ag::Variable& w, float c) {
  return ag::sum_all(ag::mul(ag::mul(w, w), ag::Variable::constant(
                                                core::Tensor({2}, {c, c}))));
}

TEST(AccumulatorRegression, ConsecutiveStepsSeeNoStaleGradients) {
  // Two consecutive optimizer steps through the accumulator: the gradients
  // of step 2 must be a function of step 2's micro-batches only. Step 2's
  // buffers may reuse bytes step 1 freed, which is exactly where a missing
  // zero-fill would surface.
  ag::Variable w = ag::Variable::leaf(core::Tensor({2}, {1.0f, 2.0f}), true);
  GradientAccumulator acc({w});
  std::vector<float> step_grads;
  for (int step = 0; step < 2; ++step) {
    w.zero_grad();
    acc.micro_step([&] { return toy_loss(w, 1.0f); });
    acc.micro_step([&] { return toy_loss(w, 3.0f); });
    acc.finish();
    step_grads.push_back(w.grad()[0]);
    step_grads.push_back(w.grad()[1]);
  }
  // d/dw sum(c * w^2) = 2cw; mean over c in {1, 3} -> 4w.
  ASSERT_EQ(step_grads.size(), 4u);
  for (int step = 0; step < 2; ++step) {
    EXPECT_FLOAT_EQ(step_grads[2 * step + 0], 4.0f) << "step " << step;
    EXPECT_FLOAT_EQ(step_grads[2 * step + 1], 8.0f) << "step " << step;
  }
}

TEST(AccumulatorRegression, RestorePendingZeroFillsOnFreshStart) {
  // restore_pending(0) = "no accumulation in flight". The grad buffers may
  // hold pre-crash partial sums; the next micro_step must start from zero.
  ag::Variable w = ag::Variable::leaf(core::Tensor({2}, {1.0f, 2.0f}), true);
  GradientAccumulator acc({w});
  acc.micro_step([&] { return toy_loss(w, 5.0f); });  // dirty the buffers
  ASSERT_NE(w.grad()[0], 0.0f);
  acc.restore_pending(0);
  EXPECT_EQ(acc.pending_micro_steps(), 0);
  EXPECT_EQ(w.grad()[0], 0.0f);
  EXPECT_EQ(w.grad()[1], 0.0f);
  acc.micro_step([&] { return toy_loss(w, 1.0f); });
  acc.finish();
  EXPECT_FLOAT_EQ(w.grad()[0], 2.0f);  // 2w, no stale 10w residue
  EXPECT_FLOAT_EQ(w.grad()[1], 4.0f);
}

TEST(AccumulatorRegression, RestorePendingPositivePreservesRestoredSums) {
  // For count > 0 the caller restores checkpointed partial sums right after;
  // restore_pending must materialise (not zero) the buffers it hands back.
  ag::Variable w = ag::Variable::leaf(core::Tensor({2}, {1.0f, 2.0f}), true);
  GradientAccumulator acc({w});
  acc.restore_pending(1);
  EXPECT_EQ(acc.pending_micro_steps(), 1);
  // Simulate the checkpoint restore writing the partial sum.
  w.mutable_grad().fill_(6.0f);
  acc.micro_step([&] { return toy_loss(w, 1.0f); });
  acc.finish();
  // (restored 6 + 2w) / 2 micro-batches.
  EXPECT_FLOAT_EQ(w.grad()[0], (6.0f + 2.0f) / 2.0f);
  EXPECT_FLOAT_EQ(w.grad()[1], (6.0f + 4.0f) / 2.0f);
}

}  // namespace
}  // namespace legw::train
