// Phase-level tracing for the training stack.
//
// The paper's headline claim is wall-clock scaling, so the reproduction needs
// to know *where* a step's time goes: forward vs backward vs allreduce vs
// optimizer vs eval. This header provides the collection half of that story:
//
//  * a process-global enable flag (`tracing_enabled`) — when off, a Span is
//    one relaxed atomic load and a branch, no allocation, no clock read;
//  * `TraceRecorder` — a thread-safe collector of named spans (begin/end
//    timestamps, per-thread nesting depth, stable small thread ids) and
//    structured events, whose views also export the always-on counters;
//  * exporters — a Chrome `chrome://tracing`-compatible JSON trace, a
//    per-phase summary table (count/total/mean/p50/p95 per span name, thread
//    pool utilisation), and the span *structure* (name -> count), which is
//    deterministic across identically-seeded runs and therefore testable.
//
// Counters live in the one registry in core/counters.hpp
// (`core::count(name, delta)`); the exporters fold a snapshot of it into
// every counter view. See docs/OBSERVABILITY.md for the file formats.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/common.hpp"

namespace legw::obs {

// Process-global tracing switch. Initialised once from the environment: set
// LEGW_TRACE (to any non-empty value, conventionally the trace output path)
// to start enabled. `Span` branches on this; counters (`core::count`) do
// not.
bool tracing_enabled();
void set_tracing_enabled(bool enabled);
// The value of LEGW_TRACE at startup ("" if unset) — benches use it as the
// default trace output path.
const std::string& trace_env_path();

class TraceRecorder {
 public:
  struct SpanRecord {
    std::string name;
    int tid;       // small id in thread-registration order (0 = first seen)
    int depth;     // nesting depth within the owning thread at begin time
    i64 begin_ns;  // relative to the recorder's epoch (first span ever)
    i64 dur_ns;
  };

  struct PhaseStats {
    i64 count = 0;
    double total_ms = 0.0;
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
  };

  // A rare, high-signal occurrence (a corrupt checkpoint skipped at restore,
  // a sentinel rollback, ...) with structured key/value detail. Unlike spans,
  // events are recorded even when tracing is disabled: they are cheap by
  // construction (bounded at kMaxEvents per window) and losing one hides an
  // incident, not a timing.
  struct Event {
    std::string kind;
    std::vector<std::pair<std::string, std::string>> fields;
  };
  static constexpr i64 kMaxEvents = 256;

  // Process-wide recorder used by `Span` and all instrumentation sites.
  static TraceRecorder& global();

  // Records the start/end of a named span on the calling thread. Every
  // begin() must be matched by exactly one end() on the same thread; use the
  // RAII `Span` guard rather than calling these directly. `name` must point
  // to storage that outlives the call (string literals at every call site).
  void begin(const char* name);
  void end();

  // Appends a structured event (see Event). Beyond kMaxEvents per window the
  // event is dropped and the `events_dropped` counter incremented instead —
  // an incident log must never balloon a long run's memory.
  void add_event(std::string kind,
                 std::vector<std::pair<std::string, std::string>> fields);

  // ---- views ---------------------------------------------------------------
  // All views snapshot under the recorder lock and are safe to call while
  // other threads keep recording (the snapshot is simply a prefix).

  std::vector<SpanRecord> spans() const;

  // Recorded events in arrival order (cleared by clear() like everything
  // else).
  std::vector<Event> events() const;

  // Every non-zero counter of the core registry (core/counters.hpp), plus
  // the tensor heap's mem.heap_live_bytes and mem.heap_peak_bytes.
  std::map<std::string, i64> counters() const;

  // Span structure: name -> completed-span count. Deterministic across
  // identically-seeded runs (unlike timestamps or thread ids).
  std::map<std::string, i64> span_counts() const;

  // Per-phase timing aggregates keyed by span name.
  std::map<std::string, PhaseStats> phase_summary() const;

  // Human-readable summary: the phase table (sorted by total time), counter
  // values, and thread-pool utilisation over `wall_seconds` (pass the
  // enclosing measurement window; <= 0 omits the utilisation line).
  std::string summary_table(double wall_seconds = 0.0) const;

  // Writes the Chrome trace-event JSON ("traceEvents" array of complete "X"
  // events plus counter totals as metadata). Returns false and sets *error
  // on I/O failure instead of aborting.
  [[nodiscard]] bool write_chrome_trace(const std::string& path,
                                        std::string* error = nullptr) const;

  // Drops all spans and events, zeroes every counter in the core registry
  // (serve.* and the kernel dispatch counts included) and re-arms the
  // epoch, so consecutive measurement windows are independent. Must not
  // race with in-flight begin()/end() pairs.
  void clear();

 private:
  struct Impl;
  Impl& impl() const;
};

// RAII span guard: `obs::Span span("forward");`. When tracing is disabled
// this is a single flag test in the constructor and destructor. The enable
// flag is latched at construction so a span that straddles a disable still
// closes cleanly.
class Span {
 public:
  explicit Span(const char* name) : active_(tracing_enabled()) {
    if (active_) TraceRecorder::global().begin(name);
  }
  ~Span() {
    if (active_) TraceRecorder::global().end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

}  // namespace legw::obs
