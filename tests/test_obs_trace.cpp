// Tracing/telemetry layer tests: span structure, enable-flag semantics,
// exporter formats and — importantly — the failure paths (unwritable output
// paths must report, not abort). Also covers the Recorder hardening from the
// same PR: nullptr lookups and write_csv error statuses.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/counters.hpp"
#include "core/tensor.hpp"
#include "core/thread_pool.hpp"
#include "mem/alloc.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "train/recorder.hpp"

namespace legw {
namespace {

// Every test runs against the process-global recorder, so each starts from a
// cleared, enabled state and restores the disabled default on exit (other
// suites in this binary must keep paying only the disabled-flag branch).
class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing_enabled(true);
    obs::TraceRecorder::global().clear();
  }
  void TearDown() override {
    obs::TraceRecorder::global().clear();
    obs::set_tracing_enabled(false);
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Minimal structural JSON check: every brace/bracket closes in order and
// quotes balance outside escapes. Catches truncated or mis-nested output
// without needing a JSON library.
bool json_balanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return stack.empty() && !in_string;
}

TEST_F(ObsTraceTest, SpansRecordNamesDepthsAndNesting) {
  {
    obs::Span outer("step");
    {
      obs::Span inner("forward");
    }
    obs::Span inner2("backward");
  }
  const auto spans = obs::TraceRecorder::global().spans();
  ASSERT_EQ(spans.size(), 3u);
  // Spans complete innermost-first.
  EXPECT_EQ(spans[0].name, "forward");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[1].name, "backward");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "step");
  EXPECT_EQ(spans[2].depth, 0);
  for (const auto& s : spans) {
    EXPECT_GE(s.begin_ns, 0);
    EXPECT_GE(s.dur_ns, 0);
    EXPECT_EQ(s.tid, 0);  // all on the main thread
  }
  // The outer span encloses both inner spans in time.
  EXPECT_LE(spans[2].begin_ns, spans[0].begin_ns);
  EXPECT_GE(spans[2].begin_ns + spans[2].dur_ns,
            spans[1].begin_ns + spans[1].dur_ns);
}

TEST_F(ObsTraceTest, DisabledTracingRecordsNothing) {
  obs::set_tracing_enabled(false);
  {
    obs::Span span("step");
    core::count("steps", 1);
  }
  EXPECT_TRUE(obs::TraceRecorder::global().spans().empty());
  EXPECT_EQ(obs::TraceRecorder::global().span_counts().size(), 0u);
}

TEST_F(ObsTraceTest, CountersRecordWithTracingDisabled) {
  // Counters are always on; only spans are gated by the tracing flag.
  obs::set_tracing_enabled(false);
  core::count("steps", 2);
  core::count("steps", 3);
  const auto counters = obs::TraceRecorder::global().counters();
  ASSERT_NE(counters.find("steps"), counters.end());
  EXPECT_EQ(counters.at("steps"), 5);
}

TEST_F(ObsTraceTest, CountersSurviveTracingToggles) {
  // Flipping the tracing flag between counts neither drops nor resets them.
  obs::set_tracing_enabled(false);
  core::count("ckpt_writes", 1);
  obs::set_tracing_enabled(true);
  core::count("ckpt_writes", 1);
  obs::set_tracing_enabled(false);
  core::count("ckpt_writes", 1);
  const auto counters = obs::TraceRecorder::global().counters();
  ASSERT_NE(counters.find("ckpt_writes"), counters.end());
  EXPECT_EQ(counters.at("ckpt_writes"), 3);
}

TEST_F(ObsTraceTest, ClearDropsCountersRecordedWithTracingDisabled) {
  obs::set_tracing_enabled(false);
  core::count("guard.steps", 4);
  ASSERT_EQ(obs::TraceRecorder::global().counters().count("guard.steps"), 1u);
  obs::TraceRecorder::global().clear();
  EXPECT_EQ(obs::TraceRecorder::global().counters().count("guard.steps"), 0u);
}

TEST_F(ObsTraceTest, ConcurrentCountsWithTracingDisabledSumExactly) {
  obs::set_tracing_enabled(false);
  constexpr int kThreads = 4;
  constexpr int kCounts = 1000;
  core::ThreadPool pool(kThreads);
  pool.parallel_for(0, kThreads, 1, [](i64 begin, i64 end) {
    for (i64 t = begin; t < end; ++t) {
      for (int i = 0; i < kCounts; ++i) core::count("dist.algo.tree", 1);
    }
  });
  const auto counters = obs::TraceRecorder::global().counters();
  ASSERT_NE(counters.find("dist.algo.tree"), counters.end());
  EXPECT_EQ(counters.at("dist.algo.tree"), kThreads * kCounts);
  EXPECT_TRUE(obs::TraceRecorder::global().spans().empty());
}

TEST_F(ObsTraceTest, HeapCountersExportWithTracingDisabled) {
  obs::set_tracing_enabled(false);
  core::Tensor held = core::Tensor::zeros(core::Shape{256});
  const mem::MemStats ms = mem::mem_stats();
  const auto counters = obs::TraceRecorder::global().counters();
  ASSERT_NE(counters.find("mem.heap_live_bytes"), counters.end());
  ASSERT_NE(counters.find("mem.heap_peak_bytes"), counters.end());
  EXPECT_EQ(counters.at("mem.heap_live_bytes"), ms.heap_live_bytes);
  EXPECT_GE(counters.at("mem.heap_peak_bytes"),
            counters.at("mem.heap_live_bytes"));
  EXPECT_GE(counters.at("mem.heap_live_bytes"),
            held.numel() * static_cast<i64>(sizeof(float)));
}

TEST_F(ObsTraceTest, SpanLatchedAtConstructionClosesAfterDisable) {
  // A span that straddles a disable still closes cleanly (flag is latched).
  {
    obs::Span span("straddler");
    obs::set_tracing_enabled(false);
  }
  obs::set_tracing_enabled(true);
  const auto counts = obs::TraceRecorder::global().span_counts();
  EXPECT_EQ(counts.at("straddler"), 1);
}

TEST_F(ObsTraceTest, SpanCountsAreThreadTimingIndependent) {
  auto work = [] {
    for (int i = 0; i < 5; ++i) obs::Span span("worker_phase");
  };
  // lint-allow: raw-thread — exercises tracing from threads the pool
  // has never seen.
  std::thread a(work), b(work);
  a.join();
  b.join();
  const auto counts = obs::TraceRecorder::global().span_counts();
  EXPECT_EQ(counts.at("worker_phase"), 10);
  // Distinct threads received distinct small tids.
  int max_tid = 0;
  for (const auto& s : obs::TraceRecorder::global().spans()) {
    max_tid = std::max(max_tid, s.tid);
  }
  EXPECT_GE(max_tid, 1);
}

TEST_F(ObsTraceTest, CountersMergeRecorderAndDispatchSnapshots) {
  core::count("allreduce.bytes", 128);
  core::count("allreduce.bytes", 64);
  core::bump_dispatch(core::DispatchCounter::kGemmBlocked);
  const auto counters = obs::TraceRecorder::global().counters();
  EXPECT_EQ(counters.at("allreduce.bytes"), 192);
  EXPECT_GE(counters.at("dispatch.gemm.blocked"), 1);
}

TEST_F(ObsTraceTest, PhaseSummaryAggregates) {
  for (int i = 0; i < 4; ++i) obs::Span span("phase_a");
  const auto summary = obs::TraceRecorder::global().phase_summary();
  ASSERT_EQ(summary.count("phase_a"), 1u);
  const auto& st = summary.at("phase_a");
  EXPECT_EQ(st.count, 4);
  EXPECT_GE(st.total_ms, 0.0);
  EXPECT_LE(st.p50_ms, st.p95_ms);
  EXPECT_NEAR(st.mean_ms * st.count, st.total_ms, 1e-9);
  const std::string table = obs::TraceRecorder::global().summary_table();
  EXPECT_NE(table.find("phase_a"), std::string::npos);
}

TEST_F(ObsTraceTest, ChromeTraceExportIsStructurallyValidJson) {
  {
    obs::Span outer("step");
    obs::Span inner("forward \"quoted\"\x01");
  }
  core::count("steps", 1);
  const std::string path = ::testing::TempDir() + "legw_trace_test.json";
  std::string err;
  ASSERT_TRUE(obs::TraceRecorder::global().write_chrome_trace(path, &err))
      << err;
  const std::string body = read_file(path);
  EXPECT_TRUE(json_balanced(body)) << body;
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(body.find("\"step\""), std::string::npos);
  // Control chars and quotes in names must be escaped, never raw.
  EXPECT_EQ(body.find('\x01'), std::string::npos);
  EXPECT_NE(body.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(body.find("\"steps\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTraceTest, EmptyRecorderStillExportsValidTrace) {
  const std::string path = ::testing::TempDir() + "legw_trace_empty.json";
  ASSERT_TRUE(obs::TraceRecorder::global().write_chrome_trace(path));
  const std::string body = read_file(path);
  EXPECT_TRUE(json_balanced(body)) << body;
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTraceTest, ChromeTraceExportFailureReturnsError) {
  obs::Span span("x");
  std::string err;
  EXPECT_FALSE(obs::TraceRecorder::global().write_chrome_trace(
      "/nonexistent-dir/trace.json", &err));
  EXPECT_FALSE(err.empty());
  // And the nullptr-error overload must not crash.
  EXPECT_FALSE(obs::TraceRecorder::global().write_chrome_trace(
      "/nonexistent-dir/trace.json"));
}

TEST_F(ObsTraceTest, ClearDropsSpansCountersAndDispatchCounts) {
  {
    obs::Span span("x");
  }
  core::count("c", 3);
  core::bump_dispatch(core::DispatchCounter::kGemmRef);
  obs::TraceRecorder::global().clear();
  EXPECT_TRUE(obs::TraceRecorder::global().spans().empty());
  EXPECT_TRUE(obs::TraceRecorder::global().span_counts().empty());
  EXPECT_EQ(core::dispatch_count(core::DispatchCounter::kGemmRef), 0);
}

TEST_F(ObsTraceTest, JsonEscape) {
  EXPECT_EQ(obs::json_escape("plain"), "\"plain\"");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(obs::json_escape("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(obs::json_escape(std::string(1, '\x02')), "\"\\u0002\"");
}

TEST_F(ObsTraceTest, RunTelemetryRendersSingleLineJson) {
  {
    obs::Span span("forward");
  }
  core::count("steps", 2);
  obs::RunRecord rec;
  rec.run = "test.run";
  rec.config.emplace_back("batch_size", "64");
  rec.metrics.emplace_back("final_metric", 0.5);
  const std::string line =
      obs::render_run_telemetry(rec, obs::TraceRecorder::global());
  EXPECT_TRUE(json_balanced(line)) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"run\""), std::string::npos);
  EXPECT_NE(line.find("\"test.run\""), std::string::npos);
  EXPECT_NE(line.find("\"batch_size\""), std::string::npos);
  EXPECT_NE(line.find("\"final_metric\""), std::string::npos);
  EXPECT_NE(line.find("\"forward\""), std::string::npos);
  EXPECT_NE(line.find("\"steps\""), std::string::npos);
}

TEST_F(ObsTraceTest, RunTelemetryAppendsJsonl) {
  const std::string path = ::testing::TempDir() + "legw_telemetry.jsonl";
  std::remove(path.c_str());
  obs::RunRecord rec;
  rec.run = "r1";
  ASSERT_TRUE(
      obs::append_run_telemetry(path, rec, obs::TraceRecorder::global()));
  rec.run = "r2";
  ASSERT_TRUE(
      obs::append_run_telemetry(path, rec, obs::TraceRecorder::global()));
  const std::string body = read_file(path);
  std::istringstream lines(body);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(json_balanced(line)) << line;
    ++n;
  }
  EXPECT_EQ(n, 2);
  EXPECT_NE(body.find("\"r1\""), std::string::npos);
  EXPECT_NE(body.find("\"r2\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTraceTest, RunTelemetryAppendFailureReturnsError) {
  obs::RunRecord rec;
  rec.run = "r";
  std::string err;
  EXPECT_FALSE(obs::append_run_telemetry("/nonexistent-dir/t.jsonl", rec,
                                         obs::TraceRecorder::global(), &err));
  EXPECT_FALSE(err.empty());
}

// ---- Recorder hardening ------------------------------------------------------

TEST(RecorderFailurePaths, FindSeriesToleratesUnknownNames) {
  train::Recorder rec;
  EXPECT_EQ(rec.find_series("missing"), nullptr);
  rec.record("loss", 0, 1.5);
  const auto* series = rec.find_series("loss");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 1u);
  EXPECT_EQ((*series)[0].step, 0);
  EXPECT_DOUBLE_EQ((*series)[0].value, 1.5);
}

TEST(RecorderFailurePaths, EmptyRecorderExports) {
  train::Recorder rec;
  EXPECT_TRUE(rec.empty());
  const std::string csv = rec.to_csv();
  EXPECT_NE(csv.find("series,step,value"), std::string::npos);
  const std::string path = ::testing::TempDir() + "legw_rec_empty.csv";
  EXPECT_TRUE(rec.write_csv(path));
  std::remove(path.c_str());
}

TEST(RecorderFailurePaths, WriteCsvReportsIoErrorInsteadOfAborting) {
  train::Recorder rec;
  rec.record("loss", 0, 1.0);
  std::string err;
  EXPECT_FALSE(rec.write_csv("/nonexistent-dir/out.csv", &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(rec.write_csv("/nonexistent-dir/out.csv"));
}

}  // namespace
}  // namespace legw
