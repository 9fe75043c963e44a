// Minimal command-line flag parsing for the examples and benches:
// `--name value` and `--name=value` forms, typed getters with defaults,
// and an auto-generated usage string. No global state — except the
// process-wide kernel-dispatch switches below, which exist precisely so
// tests and benches can pin a specific numeric kernel.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/common.hpp"

namespace legw::core {

// ---- kernel dispatch -------------------------------------------------------
//
// core::gemm dispatches between two implementations that share one contract:
//   kRef      — the scalar row-kernel reference; always correct, never tuned.
//   kBlocked  — the cache-blocked, register-tiled fast path.
// The initial selection comes from the LEGW_KERNEL environment variable
// ("ref" or "blocked", default "blocked"), read once on first use. Tests and
// benches may override at runtime with set_gemm_kernel; parity suites run the
// same binary under both settings.
enum class GemmKernel { kRef, kBlocked };

// Current selection (lazily initialised from LEGW_KERNEL).
GemmKernel gemm_kernel();
// Programmatic override, e.g. for pinning one side of an A/B benchmark.
void set_gemm_kernel(GemmKernel k);
// Parses "ref" / "blocked" (the LEGW_KERNEL vocabulary); returns false on an
// unknown name and leaves the selection unchanged.
bool set_gemm_kernel(const std::string& name);
const char* gemm_kernel_name(GemmKernel k);

// Which all-reduce algorithm reduces a gradient bucket (dist/algorithms.hpp):
//   kAuto — size-based policy: tree for latency-bound small buckets, ring
//           for bandwidth-bound large ones, hierarchical at high replica
//           counts (dist::choose_algorithm resolves per bucket).
//   kTree — flat stride-doubling binary tree (the original engine).
//   kRing — chunked reduce-scatter + all-gather ring.
//   kHier — intra-group tree reduce, inter-group exchange, intra-group
//           broadcast (two-level topology, LBANN-style grouping).
// Initial selection comes from LEGW_DIST_ALGO ("auto" default, "tree",
// "ring", "hier"), read once on first use; same override pattern as
// LEGW_KERNEL.
enum class DistAlgo { kAuto, kTree, kRing, kHier };

DistAlgo dist_algo();
void set_dist_algo(DistAlgo a);
// Parses "auto" / "tree" / "ring" / "hier" (the LEGW_DIST_ALGO vocabulary);
// returns false on an unknown name and leaves the selection unchanged.
bool set_dist_algo(const std::string& name);
const char* dist_algo_name(DistAlgo a);

// What format gradients travel in on the (simulated) wire:
//   kFp32 — uncompressed (default).
//   kFp16 — IEEE binary16, 2 bytes/element (~2x fewer bytes on wire).
//   kInt8 — symmetric per-tensor int8, 1 byte/element (~4x fewer bytes);
//           pair with error-feedback residuals (dist::WireState) to keep
//           large-batch convergence intact.
// Initial selection comes from LEGW_DIST_WIRE ("fp32" default, "fp16",
// "int8"), read once on first use.
enum class WireFormat { kFp32, kFp16, kInt8 };

WireFormat dist_wire();
void set_dist_wire(WireFormat w);
// Parses "fp32" / "fp16" / "int8" (the LEGW_DIST_WIRE vocabulary); returns
// false on an unknown name and leaves the selection unchanged.
bool set_dist_wire(const std::string& name);
const char* wire_format_name(WireFormat w);

// Whether the stability sentinel (src/guard/) runs in observe-only mode:
//   kOff     — sentinel fully out of the loop (default).
//   kObserve — health signals are computed and guard.* counters emitted every
//              step, but nothing else changes: no rollbacks, no mitigation,
//              no checkpoint-schema change. Safe to flip on any existing run
//              without perturbing its trajectory — the CI leg relies on this.
// Full protect mode (rollback + mitigation) is NOT reachable from the
// environment; it requires an explicit RunConfig::sentinel opt-in because it
// changes what a run does. Initial selection comes from LEGW_GUARD ("off"/
// "0"/"" -> off, "on"/"observe"/"1" -> observe), read once on first use.
enum class GuardMode { kOff, kObserve };

GuardMode guard_mode();
void set_guard_mode(GuardMode m);
const char* guard_mode_name(GuardMode m);

class Flags {
 public:
  // Parses argv and never rejects it: `--name value` and `--name=value`
  // set a flag, a bare `--name` (last, or followed by another flag) sets it
  // to "true", and every other argument is kept as a positional. The typed
  // getters abort naming the flag when its value does not parse: a number
  // must be non-empty, not led by whitespace, fully consumed, in range and
  // (for get_double) finite.
  Flags(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name, std::string def) const;
  i64 get_int(const std::string& name, i64 def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  const std::string& program() const { return program_; }
  // Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace legw::core
