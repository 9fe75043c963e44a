#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/counters.hpp"
#include "core/mutex.hpp"
#include "core/io.hpp"
#include "core/thread_pool.hpp"
#include "mem/alloc.hpp"
#include "obs/telemetry.hpp"

namespace legw::obs {

namespace {

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<bool>& enabled_state() {
  static std::atomic<bool> state{[] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe, no setenv
    const char* env = std::getenv("LEGW_TRACE");
    return env != nullptr && env[0] != '\0';
  }()};
  return state;
}

// Per-thread span stack: the begin() side never touches the shared state, so
// concurrently-tracing threads only contend on end().
struct OpenSpan {
  const char* name;
  i64 begin_ns;
};
thread_local std::vector<OpenSpan> t_span_stack;
thread_local int t_tid = -1;

int thread_id() {
  static std::atomic<int> next{0};
  if (t_tid < 0) t_tid = next.fetch_add(1, std::memory_order_relaxed);
  return t_tid;
}

}  // namespace

bool tracing_enabled() {
  return enabled_state().load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool enabled) {
  enabled_state().store(enabled, std::memory_order_relaxed);
}

const std::string& trace_env_path() {
  static const std::string path = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe, no setenv
    const char* env = std::getenv("LEGW_TRACE");
    return std::string(env == nullptr ? "" : env);
  }();
  return path;
}

struct TraceRecorder::Impl {
  mutable core::Mutex mu;
  std::vector<SpanRecord> spans LEGW_GUARDED_BY(mu);
  std::vector<Event> events LEGW_GUARDED_BY(mu);
  i64 epoch_ns LEGW_GUARDED_BY(mu) = now_ns();
};

TraceRecorder::Impl& TraceRecorder::impl() const {
  static Impl instance;
  return instance;
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::begin(const char* name) {
  t_span_stack.push_back(OpenSpan{name, now_ns()});
}

void TraceRecorder::end() {
  LEGW_CHECK(!t_span_stack.empty(),
             "TraceRecorder::end without a matching begin on this thread");
  const OpenSpan open = t_span_stack.back();
  t_span_stack.pop_back();
  const i64 dur = now_ns() - open.begin_ns;
  const int tid = thread_id();
  const int depth = static_cast<int>(t_span_stack.size());
  Impl& im = impl();
  core::MutexLock lock(im.mu);
  im.spans.push_back(
      SpanRecord{open.name, tid, depth, open.begin_ns - im.epoch_ns, dur});
}

void TraceRecorder::add_event(
    std::string kind, std::vector<std::pair<std::string, std::string>> fields) {
  Impl& im = impl();
  core::MutexLock lock(im.mu);
  if (static_cast<i64>(im.events.size()) >= kMaxEvents) {
    core::count("events_dropped", 1);
    return;
  }
  im.events.push_back(Event{std::move(kind), std::move(fields)});
}

std::vector<TraceRecorder::Event> TraceRecorder::events() const {
  Impl& im = impl();
  core::MutexLock lock(im.mu);
  return im.events;
}

std::vector<TraceRecorder::SpanRecord> TraceRecorder::spans() const {
  Impl& im = impl();
  core::MutexLock lock(im.mu);
  return im.spans;
}

std::map<std::string, i64> TraceRecorder::counters() const {
  std::map<std::string, i64> out = core::counter_snapshot();
  // Heap counters (mem/alloc.hpp): live and peak tensor bytes.
  const mem::MemStats ms = mem::mem_stats();
  out["mem.heap_live_bytes"] = ms.heap_live_bytes;
  out["mem.heap_peak_bytes"] = ms.heap_peak_bytes;
  return out;
}

std::map<std::string, i64> TraceRecorder::span_counts() const {
  std::map<std::string, i64> out;
  Impl& im = impl();
  core::MutexLock lock(im.mu);
  for (const SpanRecord& s : im.spans) ++out[s.name];
  return out;
}

std::map<std::string, TraceRecorder::PhaseStats> TraceRecorder::phase_summary()
    const {
  std::map<std::string, std::vector<i64>> durs;
  {
    Impl& im = impl();
    core::MutexLock lock(im.mu);
    for (const SpanRecord& s : im.spans) durs[s.name].push_back(s.dur_ns);
  }
  std::map<std::string, PhaseStats> out;
  for (auto& [name, ns] : durs) {
    std::sort(ns.begin(), ns.end());
    PhaseStats st;
    st.count = static_cast<i64>(ns.size());
    i64 total = 0;
    for (i64 d : ns) total += d;
    st.total_ms = static_cast<double>(total) / 1e6;
    st.mean_ms = st.total_ms / static_cast<double>(st.count);
    const auto pct = [&ns](double q) {
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(ns.size() - 1) + 0.5);
      return static_cast<double>(ns[idx]) / 1e6;
    };
    st.p50_ms = pct(0.50);
    st.p95_ms = pct(0.95);
    out[name] = st;
  }
  return out;
}

std::string TraceRecorder::summary_table(double wall_seconds) const {
  const auto phases = phase_summary();
  std::ostringstream os;
  os << "phase summary (ms):\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-24s %8s %12s %10s %10s %10s\n",
                "span", "count", "total", "mean", "p50", "p95");
  os << line;
  // Sort by descending total time: the hot phase reads first.
  std::vector<std::pair<std::string, PhaseStats>> rows(phases.begin(),
                                                       phases.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_ms > b.second.total_ms;
  });
  for (const auto& [name, st] : rows) {
    std::snprintf(line, sizeof(line),
                  "  %-24s %8lld %12.3f %10.4f %10.4f %10.4f\n", name.c_str(),
                  static_cast<long long>(st.count), st.total_ms, st.mean_ms,
                  st.p50_ms, st.p95_ms);
    os << line;
  }
  const auto ctrs = counters();
  if (!ctrs.empty()) {
    os << "counters:\n";
    for (const auto& [name, v] : ctrs) {
      std::snprintf(line, sizeof(line), "  %-40s %lld\n", name.c_str(),
                    static_cast<long long>(v));
      os << line;
    }
  }
  if (wall_seconds > 0.0) {
    const auto st = core::ThreadPool::global().stats();
    i64 busy = st.inline_busy_ns;
    for (i64 w : st.worker_busy_ns) busy += w;
    const double capacity =
        wall_seconds * static_cast<double>(core::ThreadPool::global().size());
    std::snprintf(line, sizeof(line),
                  "thread pool: %lld chunks (%lld queued, %lld inline), "
                  "utilisation %.1f%% of %d threads\n",
                  static_cast<long long>(st.chunks_executed +
                                         st.chunks_inline),
                  static_cast<long long>(st.chunks_queued),
                  static_cast<long long>(st.chunks_inline),
                  100.0 * static_cast<double>(busy) / 1e9 / capacity,
                  core::ThreadPool::global().size());
    os << line;
  }
  return os.str();
}

bool TraceRecorder::write_chrome_trace(const std::string& path,
                                       std::string* error) const {
  const std::vector<SpanRecord> all = spans();
  const auto ctrs = counters();
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : all) {
    if (!first) os << ",";
    first = false;
    char ev[256];
    // Complete ("X") events; timestamps in microseconds per the trace spec.
    std::snprintf(ev, sizeof(ev),
                  "\n{\"name\":%s,\"cat\":\"legw\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,"
                  "\"args\":{\"depth\":%d}}",
                  json_escape(s.name).c_str(),
                  static_cast<double>(s.begin_ns) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3, s.tid, s.depth);
    os << ev;
  }
  os << "\n],\"otherData\":{";
  first = true;
  for (const auto& [name, v] : ctrs) {
    if (!first) os << ",";
    first = false;
    os << json_escape(name) << ":" << v;
  }
  os << "}}\n";

  // Atomic publication so a crash mid-export cannot tear a trace a viewer
  // (or CI artifact collector) already had.
  const core::Status st = core::atomic_write_file(path, os.str());
  if (!st.ok() && error != nullptr) *error = st.message();
  return st.ok();
}

void TraceRecorder::clear() {
  Impl& im = impl();
  core::MutexLock lock(im.mu);
  im.spans.clear();
  im.events.clear();
  im.epoch_ns = now_ns();
  core::reset_counters();
}

}  // namespace legw::obs
