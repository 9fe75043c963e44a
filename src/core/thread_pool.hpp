// Work-sharing thread pool with a blocking parallel_for.
//
// The pool is the single parallelism primitive in the library: GEMM tiles,
// elementwise kernels, batched LSTM steps and the simulated data-parallel
// workers all funnel through parallel_for. Tasks are chunked statically so a
// given (range, grain, worker-count) triple always produces the same work
// partition — important for run-to-run reproducibility of reductions that
// accumulate per-chunk partials.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/common.hpp"
#include "core/mutex.hpp"

namespace legw::core {

class ThreadPool {
 public:
  // n_threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(int n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs fn(chunk_begin, chunk_end) over [begin, end), splitting into chunks
  // of at least `grain` elements. The calling thread participates. Blocks
  // until every chunk has finished. fn must be safe to call concurrently on
  // disjoint ranges.
  void parallel_for(i64 begin, i64 end, i64 grain,
                    const std::function<void(i64, i64)>& fn);

  // Process-wide default pool (lazily constructed, sized from
  // LEGW_NUM_THREADS or hardware concurrency).
  static ThreadPool& global();

  // Pool size for a LEGW_NUM_THREADS value: nullptr (unset) gives 0, the
  // hardware default. Otherwise the whole string must be an integer in
  // [1, 1024]; anything else fails a LEGW_CHECK naming the value.
  static int parse_num_threads(const char* value);

  // Lifetime utilisation statistics, maintained with relaxed atomics (two
  // clock reads per executed chunk — negligible against chunk work, so they
  // stay on unconditionally). At quiescence (no parallel_for in flight)
  // chunks_executed == chunks_queued: every queued chunk was run by exactly
  // one worker. Inline work (the submitter's own chunk, serial fallbacks and
  // nested calls) is attributed to inline_busy_ns / chunks_inline.
  struct Stats {
    std::vector<i64> worker_busy_ns;  // per spawned worker
    i64 inline_busy_ns = 0;
    i64 chunks_queued = 0;    // chunks handed to the worker queue
    i64 chunks_executed = 0;  // chunks completed by pool workers
    i64 chunks_inline = 0;    // chunks run on the submitting thread
    i64 submissions = 0;      // parallel_for calls that used the queue
  };
  Stats stats() const;
  void reset_stats();

 private:
  struct Task {
    const std::function<void(i64, i64)>* fn = nullptr;
    i64 begin = 0;
    i64 end = 0;
  };

  void worker_loop(int worker_index);

  std::vector<std::thread> workers_;
  std::unique_ptr<std::atomic<i64>[]> worker_busy_ns_;
  std::atomic<i64> inline_busy_ns_{0};
  std::atomic<i64> chunks_queued_{0};
  std::atomic<i64> chunks_executed_{0};
  std::atomic<i64> chunks_inline_{0};
  std::atomic<i64> submissions_{0};
  // Serialises concurrent parallel_for submissions. Always taken before the
  // queue lock (the submission path nests them); TSA enforces the order.
  Mutex submit_mu_ LEGW_ACQUIRED_BEFORE(mu_);
  Mutex mu_;
  CondVar cv_;       // wakes workers when tasks arrive
  CondVar done_cv_;  // wakes the submitter when all done
  std::vector<Task> queue_ LEGW_GUARDED_BY(mu_);
  std::size_t next_task_ LEGW_GUARDED_BY(mu_) = 0;
  int pending_ LEGW_GUARDED_BY(mu_) = 0;
  bool stop_ LEGW_GUARDED_BY(mu_) = false;
};

// Convenience wrapper over the global pool. Falls back to a serial loop for
// ranges smaller than one grain so tiny workloads pay no synchronisation.
void parallel_for(i64 begin, i64 end, i64 grain,
                  const std::function<void(i64, i64)>& fn);

// Loop items per parallel_for chunk so that each chunk does at least about
// kMinChunkWork element operations; smaller loops stay on the calling thread.
inline constexpr i64 kMinChunkWork = i64{1} << 15;

constexpr i64 grain_for(i64 work_per_item) {
  return std::max<i64>(1, kMinChunkWork / std::max<i64>(1, work_per_item));
}

}  // namespace legw::core
