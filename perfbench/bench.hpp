// Shared pieces of the repository benchmark (see README.md): run arguments,
// the result record printed as the final JSON line, robust statistics, and
// the benchmark's own span table used by traced runs.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "core/common.hpp"

namespace perfbench {

using legw::i64;
using legw::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline i64 steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;  // measurement budget of one run
  bool trace = false;     // per-layer (traced) run instead of end-to-end
  bool smoke = false;     // tiny shapes, for the benchmark's own tests
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run prints as its final line. `attempted`/`failed` count training
// runs (training workloads) or requests (serve); every violated correctness
// gate is also one failure and clears `correct`.
struct Result {
  bool correct = true;
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a violated gate on stderr and in the counts.
  void fail(const std::string& why);
  std::string to_json() const;
};

// Per-layer metric names and units every traced run reports, in output
// order. A layer a workload does not exercise reports 0.
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics();

double median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
double peak_rss_mb();

// A fresh directory path under .bench_work/ in the working directory, for
// the files one run writes; the run removes it before it ends.
std::string work_dir(const char* tag);

// Runs `set_up` repeatedly and returns each duration in seconds: at least
// three times, then until a tenth of the run's budget is spent (at most 25
// times). setup_s is the median, so one slow repeat does not move it.
std::vector<double> repeat_setup(const Args& args,
                                 const std::function<void()>& set_up);

// The benchmark's own spans, recorded around calls into each layer's public
// functions (nothing inside the library is instrumented). Spans nest on the
// calling thread; a layer's self time is its span's duration minus the time
// its child spans cover.
class SpanTable {
 public:
  class Scope {
   public:
    Scope(SpanTable& table, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTable& table_;
    std::size_t index_;
  };

  // Total self time in ms of every span with this name.
  double self_ms(const std::string& name) const;
  // Total duration in ms of every span with this name.
  double total_ms(const std::string& name) const;
  i64 count(const std::string& name) const;
  // Sum of self times of every span below `root`-named spans, over the
  // root spans' total duration: the share of the root's wall time the layer
  // spans account for.
  double coverage(const std::string& root) const;

 private:
  struct Span {
    const char* name = nullptr;  // a string literal
    i64 start_ns = 0;
    i64 end_ns = 0;
    i64 child_ns = 0;
    std::size_t parent = kNone;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::vector<Span> spans_;
  std::size_t open_ = kNone;
};

}  // namespace perfbench
