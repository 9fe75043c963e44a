#include "mem/alloc.hpp"

#include <atomic>
#include <new>

namespace legw::mem {

namespace {

// Relaxed atomics: the counters are diagnostics, the values themselves are
// never used for synchronisation.
std::atomic<i64> g_heap_allocs{0};
std::atomic<i64> g_heap_live_bytes{0};
std::atomic<i64> g_heap_peak_bytes{0};

void raise_heap_peak(i64 live) {
  i64 peak = g_heap_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_heap_peak_bytes.compare_exchange_weak(peak, live,
                                                  std::memory_order_relaxed)) {
  }
}

}  // namespace

void* heap_alloc(i64 bytes) {
  LEGW_CHECK(bytes > 0, "heap_alloc: non-positive size");
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const i64 live =
      g_heap_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_heap_peak(live);
  return ::operator new(static_cast<std::size_t>(bytes),
                        std::align_val_t{kAlignment});
}

void heap_free(void* p, i64 bytes) {
  g_heap_live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  ::operator delete(p, std::align_val_t{kAlignment});
}

MemStats mem_stats() {
  MemStats out;
  out.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
  out.heap_live_bytes = g_heap_live_bytes.load(std::memory_order_relaxed);
  out.heap_peak_bytes = g_heap_peak_bytes.load(std::memory_order_relaxed);
  return out;
}

void reset_mem_peaks() {
  g_heap_peak_bytes.store(g_heap_live_bytes.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
}

}  // namespace legw::mem
