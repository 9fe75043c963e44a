// The counted heap behind core::Tensor storage.
//
// Every FloatStorage buffer comes from heap_alloc: kAlignment-aligned
// operator new with allocation/live/peak counters, so a trace or a bench can
// report how many tensors a step allocates and how many bytes it holds at
// its high-water mark. Values never depend on the allocator.
#pragma once

#include "core/common.hpp"

namespace legw::mem {

// Alignment of every heap_alloc block (one cache line / one zmm register).
inline constexpr i64 kAlignment = 64;

void* heap_alloc(i64 bytes);
void heap_free(void* p, i64 bytes);

// Snapshot of the heap counters. Exported into obs traces under "mem.*"
// (obs/trace.hpp) and read by perfbench's mem.* metrics.
struct MemStats {
  i64 heap_allocs = 0;      // heap_alloc calls since process start
  i64 heap_live_bytes = 0;  // bytes allocated and not yet freed
  i64 heap_peak_bytes = 0;  // high-water mark of heap_live_bytes
};
MemStats mem_stats();

// Resets the heap peak to the current live bytes, so a bench can measure the
// peak of an isolated window.
void reset_mem_peaks();

// Empty type kept only for perfbench's training replays; goes with them.
class TrainStepScope {};

}  // namespace legw::mem
