#include "core/flags.hpp"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace legw::core {

namespace {

std::atomic<GemmKernel>& gemm_kernel_state() {
  static std::atomic<GemmKernel> state{[] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe, no setenv
    if (const char* env = std::getenv("LEGW_KERNEL")) {
      const std::string v(env);
      if (v == "ref") return GemmKernel::kRef;
      LEGW_CHECK(v == "blocked" || v.empty(),
                 "LEGW_KERNEL must be 'ref' or 'blocked', got '" + v + "'");
    }
    return GemmKernel::kBlocked;
  }()};
  return state;
}

std::atomic<DistAlgo>& dist_algo_state() {
  static std::atomic<DistAlgo> state{[] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe, no setenv
    if (const char* env = std::getenv("LEGW_DIST_ALGO")) {
      const std::string v(env);
      if (v == "tree") return DistAlgo::kTree;
      if (v == "ring") return DistAlgo::kRing;
      if (v == "hier") return DistAlgo::kHier;
      LEGW_CHECK(v == "auto" || v.empty(),
                 "LEGW_DIST_ALGO must be 'auto', 'tree', 'ring' or 'hier', "
                 "got '" + v + "'");
    }
    return DistAlgo::kAuto;
  }()};
  return state;
}

std::atomic<WireFormat>& dist_wire_state() {
  static std::atomic<WireFormat> state{[] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe, no setenv
    if (const char* env = std::getenv("LEGW_DIST_WIRE")) {
      const std::string v(env);
      if (v == "fp16") return WireFormat::kFp16;
      if (v == "int8") return WireFormat::kInt8;
      LEGW_CHECK(v == "fp32" || v.empty(),
                 "LEGW_DIST_WIRE must be 'fp32', 'fp16' or 'int8', got '" +
                     v + "'");
    }
    return WireFormat::kFp32;
  }()};
  return state;
}

std::atomic<GuardMode>& guard_mode_state() {
  static std::atomic<GuardMode> state{[] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe, no setenv
    if (const char* env = std::getenv("LEGW_GUARD")) {
      const std::string v(env);
      if (v == "on" || v == "observe" || v == "1") return GuardMode::kObserve;
      LEGW_CHECK(v == "off" || v == "0" || v.empty(),
                 "LEGW_GUARD must be 'on', 'observe', '1', 'off' or '0', "
                 "got '" + v + "'");
    }
    return GuardMode::kOff;
  }()};
  return state;
}

// Non-empty and not led by whitespace, which strtoll/strtod would skip.
bool starts_like_number(const std::string& v) {
  return !v.empty() && std::isspace(static_cast<unsigned char>(v[0])) == 0;
}

}  // namespace

GemmKernel gemm_kernel() {
  return gemm_kernel_state().load(std::memory_order_relaxed);
}

void set_gemm_kernel(GemmKernel k) {
  gemm_kernel_state().store(k, std::memory_order_relaxed);
}

bool set_gemm_kernel(const std::string& name) {
  if (name == "ref") {
    set_gemm_kernel(GemmKernel::kRef);
    return true;
  }
  if (name == "blocked") {
    set_gemm_kernel(GemmKernel::kBlocked);
    return true;
  }
  return false;
}

const char* gemm_kernel_name(GemmKernel k) {
  return k == GemmKernel::kRef ? "ref" : "blocked";
}

DistAlgo dist_algo() {
  return dist_algo_state().load(std::memory_order_relaxed);
}

void set_dist_algo(DistAlgo a) {
  dist_algo_state().store(a, std::memory_order_relaxed);
}

bool set_dist_algo(const std::string& name) {
  if (name == "auto") {
    set_dist_algo(DistAlgo::kAuto);
    return true;
  }
  if (name == "tree") {
    set_dist_algo(DistAlgo::kTree);
    return true;
  }
  if (name == "ring") {
    set_dist_algo(DistAlgo::kRing);
    return true;
  }
  if (name == "hier") {
    set_dist_algo(DistAlgo::kHier);
    return true;
  }
  return false;
}

const char* dist_algo_name(DistAlgo a) {
  switch (a) {
    case DistAlgo::kAuto: return "auto";
    case DistAlgo::kTree: return "tree";
    case DistAlgo::kRing: return "ring";
    case DistAlgo::kHier: return "hier";
  }
  return "auto";
}

WireFormat dist_wire() {
  return dist_wire_state().load(std::memory_order_relaxed);
}

void set_dist_wire(WireFormat w) {
  dist_wire_state().store(w, std::memory_order_relaxed);
}

bool set_dist_wire(const std::string& name) {
  if (name == "fp32") {
    set_dist_wire(WireFormat::kFp32);
    return true;
  }
  if (name == "fp16") {
    set_dist_wire(WireFormat::kFp16);
    return true;
  }
  if (name == "int8") {
    set_dist_wire(WireFormat::kInt8);
    return true;
  }
  return false;
}

const char* wire_format_name(WireFormat w) {
  switch (w) {
    case WireFormat::kFp32: return "fp32";
    case WireFormat::kFp16: return "fp16";
    case WireFormat::kInt8: return "int8";
  }
  return "fp32";
}

GuardMode guard_mode() {
  return guard_mode_state().load(std::memory_order_relaxed);
}

void set_guard_mode(GuardMode m) {
  guard_mode_state().store(m, std::memory_order_relaxed);
}

const char* guard_mode_name(GuardMode m) {
  return m == GuardMode::kObserve ? "observe" : "off";
}

Flags::Flags(int argc, char** argv) {
  LEGW_CHECK(argc >= 1, "Flags: empty argv");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      // Bare flag: boolean true.
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::get_string(const std::string& name, std::string def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

i64 Flags::get_int(const std::string& name, i64 def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  // Empty, space-padded and out-of-range values are malformed too: strtoll
  // reads "" as 0, skips leading whitespace, and saturates an overflow to
  // INT64_MAX/MIN.
  LEGW_CHECK(starts_like_number(it->second) && *end == '\0' &&
                 errno != ERANGE,
             "flag --" + name + " expects an integer, got '" + it->second + "'");
  return static_cast<i64>(v);
}

double Flags::get_double(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(it->second.c_str(), &end);
  // strtod also spells nan and inf; no flag means either.
  LEGW_CHECK(starts_like_number(it->second) && *end == '\0' &&
                 errno != ERANGE && std::isfinite(v),
             "flag --" + name + " expects a number, got '" + it->second + "'");
  return v;
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  LEGW_CHECK(false, "flag --" + name + " expects a boolean, got '" + v + "'");
  return def;
}

}  // namespace legw::core
