#include "core/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>

namespace legw::core {

namespace {

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
// True while the current thread is executing inside a parallel_for region
// (either as a pool worker or as the submitting thread running its own
// chunk). Nested parallel_for calls then degrade to serial execution, which
// avoids the classic fork-join deadlock where every worker blocks waiting on
// sub-tasks that no idle worker remains to run.
thread_local bool t_in_parallel_region = false;
}  // namespace

ThreadPool::ThreadPool(int n_threads) {
  if (n_threads <= 0) {
    n_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (n_threads <= 0) n_threads = 1;
  }
  // The submitting thread counts as one worker.
  const int spawned = std::max(n_threads - 1, 0);
  worker_busy_ns_ = std::make_unique<std::atomic<i64>[]>(
      static_cast<std::size_t>(std::max(spawned, 1)));
  for (int i = 0; i < spawned; ++i) worker_busy_ns_[i] = 0;
  workers_.reserve(static_cast<std::size_t>(spawned));
  for (int i = 0; i < spawned; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop(int worker_index) {
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!stop_ && next_task_ >= queue_.size()) cv_.wait(mu_);
      if (stop_) return;
      task = queue_[next_task_++];
    }
    const i64 t0 = now_ns();
    t_in_parallel_region = true;
    (*task.fn)(task.begin, task.end);
    t_in_parallel_region = false;
    worker_busy_ns_[worker_index].fetch_add(now_ns() - t0,
                                            std::memory_order_relaxed);
    chunks_executed_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(i64 begin, i64 end, i64 grain,
                              const std::function<void(i64, i64)>& fn) {
  if (begin >= end) return;
  if (t_in_parallel_region) {  // nested call: run serially (see above)
    fn(begin, end);
    return;
  }
  if (grain < 1) grain = 1;
  const i64 n = end - begin;
  const i64 max_chunks = static_cast<i64>(size());
  // Static partition: ceil-divide into at most `size()` chunks of >= grain.
  i64 n_chunks = std::min<i64>((n + grain - 1) / grain, max_chunks);
  if (n_chunks <= 1) {
    const i64 t0 = now_ns();
    fn(begin, end);
    inline_busy_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    chunks_inline_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const i64 chunk = (n + n_chunks - 1) / n_chunks;

  // Serialise concurrent submitters: the queue/pending bookkeeping below is
  // per-submission, so two overlapping parallel_for calls (e.g. from
  // simulated distributed workers) must not interleave their task batches.
  MutexLock submit_lock(submit_mu_);
  submissions_.fetch_add(1, std::memory_order_relaxed);
  i64 queued = 0;
  {
    MutexLock lock(mu_);
    // Queue all chunks except the first, which the caller runs itself.
    for (i64 c = 1; c < n_chunks; ++c) {
      const i64 b = begin + c * chunk;
      const i64 e = std::min(end, b + chunk);
      if (b >= e) continue;
      queue_.push_back(Task{&fn, b, e});
      ++pending_;
      ++queued;
    }
  }
  chunks_queued_.fetch_add(queued, std::memory_order_relaxed);
  cv_.notify_all();

  const i64 t0 = now_ns();
  t_in_parallel_region = true;
  fn(begin, std::min(end, begin + chunk));
  t_in_parallel_region = false;
  inline_busy_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  chunks_inline_.fetch_add(1, std::memory_order_relaxed);

  MutexLock lock(mu_);
  while (pending_ != 0) done_cv_.wait(mu_);
  // All chunks done; reset the queue for the next call.
  queue_.clear();
  next_task_ = 0;
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.worker_busy_ns.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    s.worker_busy_ns.push_back(
        worker_busy_ns_[i].load(std::memory_order_relaxed));
  }
  s.inline_busy_ns = inline_busy_ns_.load(std::memory_order_relaxed);
  s.chunks_queued = chunks_queued_.load(std::memory_order_relaxed);
  s.chunks_executed = chunks_executed_.load(std::memory_order_relaxed);
  s.chunks_inline = chunks_inline_.load(std::memory_order_relaxed);
  s.submissions = submissions_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::reset_stats() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    worker_busy_ns_[i].store(0, std::memory_order_relaxed);
  }
  inline_busy_ns_.store(0, std::memory_order_relaxed);
  chunks_queued_.store(0, std::memory_order_relaxed);
  chunks_executed_.store(0, std::memory_order_relaxed);
  chunks_inline_.store(0, std::memory_order_relaxed);
  submissions_.store(0, std::memory_order_relaxed);
}

int ThreadPool::parse_num_threads(const char* value) {
  if (value == nullptr) return 0;
  const std::string v(value);
  int n = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  LEGW_CHECK(ec == std::errc() && end == v.data() + v.size() && n >= 1 &&
                 n <= 1024,
             "LEGW_NUM_THREADS must be an integer in [1, 1024], got '" + v +
                 "'");
  return n;
}

ThreadPool& ThreadPool::global() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe, no setenv
  static ThreadPool pool(parse_num_threads(std::getenv("LEGW_NUM_THREADS")));
  return pool;
}

void parallel_for(i64 begin, i64 end, i64 grain,
                  const std::function<void(i64, i64)>& fn) {
  if (end - begin <= grain) {
    if (begin < end) fn(begin, end);
    return;
  }
  ThreadPool::global().parallel_for(begin, end, grain, fn);
}

}  // namespace legw::core
