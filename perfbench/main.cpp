// Repository benchmark driver. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke 1]
//
// Runs one seeded workload, checks its outputs, and prints one JSON object
// as the last line of stdout: the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). Progress and gate failures
// go to stderr. See README.md.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

struct Workload {
  const char* name;
  int pool_threads;  // LEGW_NUM_THREADS for the run
  void (*run)(const Args&, Result&);
};

constexpr Workload kWorkloads[] = {
    {"resnet-b256-t4", 4, perfbench::run_resnet},
    {"ptb-b8-t1", 1, perfbench::run_ptb},
    {"mnist-dp4-b512", 1, perfbench::run_mnist_dp},
    {"serve-ptb-open", 1, perfbench::run_serve},
};

const std::pair<const char*, const char*> kEndToEnd[] = {
    {"samples_per_s", "1/s"}, {"loss", "nats"},  {"p50_ms", "ms"},
    {"tail_ms", "ms"},        {"setup_s", "s"},  {"peak_rss_mb", "MB"},
};

bool parse(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0 || kv.count("workload") == 0) return false;
  try {
    args->workload = kv["workload"];
    if (kv.count("seed")) args->seed = std::stoull(kv["seed"]);
    if (kv.count("seconds")) args->seconds = std::stod(kv["seconds"]);
    if (kv.count("trace")) args->trace = std::stoi(kv["trace"]) != 0;
    if (kv.count("smoke")) args->smoke = std::stoi(kv["smoke"]) != 0;
  } catch (const std::exception&) {
    return false;
  }
  for (const auto& [key, value] : kv) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "smoke") {
      return false;
    }
  }
  return args->seconds > 0.0 && args->seconds <= 60.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke 1]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // Pin the workload: bench shapes at scale 1, the default serve batching
  // policy, the pool size it names, and no trace or telemetry files written
  // outside the working directory.
  // NOLINTBEGIN(concurrency-mt-unsafe): single-threaded until the run starts
  unsetenv("LEGW_BENCH_SCALE");
  unsetenv("LEGW_SERVE_BATCH_CAP");
  unsetenv("LEGW_SERVE_DEADLINE_MS");
  unsetenv("LEGW_TRACE");
  unsetenv("LEGW_TELEMETRY");
  setenv("LEGW_NUM_THREADS", std::to_string(workload->pool_threads).c_str(), 1);
  // NOLINTEND(concurrency-mt-unsafe)

  Result result;
  workload->run(args, result);
  std::error_code ignored;
  std::filesystem::remove(".bench_work", ignored);  // only once it is empty

  // Every metric of the selected table, in table order. A per-layer metric
  // the workload does not exercise reads 0; a missing end-to-end metric is a
  // failed run.
  std::map<std::string, double> got;
  for (const perfbench::Metric& m : result.metrics) got[m.name] = m.value;
  got.emplace("peak_rss_mb", perfbench::peak_rss_mb());
  Result printed = result;
  printed.metrics.clear();
  if (args.trace) {
    for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
      printed.add(name, got.count(name) ? got[name] : 0.0, unit);
    }
  } else {
    for (const auto& [name, unit] : kEndToEnd) {
      if (got.count(name) == 0) {
        printed.fail(std::string("no value for ") + name);
        continue;
      }
      printed.add(name, got[name], unit);
    }
  }
  if (printed.attempted == 0) printed.attempted = 1;
  std::printf("%s\n", printed.to_json().c_str());
  return 0;
}
