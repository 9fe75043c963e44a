#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

void Result::fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  correct = false;
  ++failed;
}

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> kTable = {
      {"data.ms_per_step", "ms"},
      {"fwd.ms_per_step", "ms"},
      {"bwd.ms_per_step", "ms"},
      {"optim.ms_per_step", "ms"},
      {"core.pool_busy_frac", "frac"},
      {"core.pool_submissions_per_step", "count"},
      {"core.gemm_calls_per_step", "count"},
      {"core.lstm_cell_calls_per_step", "count"},
      {"mem.heap_allocs_per_step", "count"},
      {"mem.heap_peak_mb", "MB"},
      {"dist.backward_ms_per_step", "ms"},
      {"dist.shard_fwd_ms_max", "ms"},
      {"dist.shard_fwd_skew_ms", "ms"},
      {"dist.reduce_ms_per_step", "ms"},
      {"dist.wire_bytes_per_step", "bytes"},
      {"dist.dp_efficiency", "ratio"},
      {"ckpt.save_ms", "ms"},
      {"ckpt.bytes", "bytes"},
      {"ckpt.load_ms", "ms"},
      {"serve.deadline_batch_frac", "frac"},
      {"serve.avg_batch_rows", "count"},
      {"serve.pad_frac", "frac"},
      {"serve.run_batch_ms.len16", "ms"},
      {"serve.run_batch_ms.len32", "ms"},
      {"serve.run_batch_ms.len64", "ms"},
      {"serve.run_batch_ms.len128", "ms"},
      {"serve.submit_us_p99", "us"},
      {"serve.ladder_max_rps", "1/s"},
      {"loadgen.lag_ms_p99", "ms"},
      {"obs.trace_overhead_frac", "frac"},
      {"obs.layer_coverage", "frac"},
  };
  return kTable;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::vector<double> repeat_setup(const Args& args,
                                 const std::function<void()>& set_up) {
  std::vector<double> out;
  const auto start = Clock::now();
  while (out.size() < 3 ||
         (out.size() < 25 &&
          seconds_between(start, Clock::now()) < 0.1 * args.seconds)) {
    const auto t0 = Clock::now();
    set_up();
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

std::string work_dir(const char* tag) {
  return ".bench_work/" + std::string(tag) + "-" + std::to_string(steady_ns());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

SpanTable::Scope::Scope(SpanTable& table, const char* name)
    : table_(table), index_(table.spans_.size()) {
  Span s;
  s.name = name;
  s.parent = table.open_;
  table.spans_.push_back(std::move(s));
  table.open_ = index_;
  table.spans_[index_].start_ns = steady_ns();
}

SpanTable::Scope::~Scope() {
  Span& s = table_.spans_[index_];
  s.end_ns = steady_ns();
  if (s.parent != kNone) {
    table_.spans_[s.parent].child_ns += s.end_ns - s.start_ns;
  }
  table_.open_ = s.parent;
}

double SpanTable::self_ms(const std::string& name) const {
  i64 ns = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name.c_str()) == 0) {
      ns += s.end_ns - s.start_ns - s.child_ns;
    }
  }
  return static_cast<double>(ns) / 1e6;
}

double SpanTable::total_ms(const std::string& name) const {
  i64 ns = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name.c_str()) == 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

i64 SpanTable::count(const std::string& name) const {
  return static_cast<i64>(std::count_if(
      spans_.begin(), spans_.end(),
      [&](const Span& s) { return std::strcmp(s.name, name.c_str()) == 0; }));
}

double SpanTable::coverage(const std::string& root) const {
  i64 root_ns = 0;
  i64 covered_ns = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, root.c_str()) == 0) {
      root_ns += s.end_ns - s.start_ns;
    } else if (s.parent != kNone) {
      // Only spans nested (at any depth) under a root span count.
      std::size_t p = s.parent;
      while (p != kNone && std::strcmp(spans_[p].name, root.c_str()) != 0) {
        p = spans_[p].parent;
      }
      if (p != kNone) covered_ns += s.end_ns - s.start_ns - s.child_ns;
    }
  }
  return root_ns > 0 ? static_cast<double>(covered_ns) /
                           static_cast<double>(root_ns)
                     : 0.0;
}

}  // namespace perfbench
