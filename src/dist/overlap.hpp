// The data-parallel engine: bucketed gradient all-reduce over in-process
// model replicas.
//
// This is the execution pattern behind every system in the paper's related
// work (Goyal et al.; You et al., LARS/LAMB on TPU pods): R replicas hold
// identical weights, each computes gradients on its shard of the global
// batch, an all-reduce averages the gradients, and every replica applies
// the identical optimizer update — so replicas stay bit-synchronised without
// ever shipping weights. Replicas are real threads in one process.
//
// Parameters are grouped into size-targeted buckets, fixed before backward
// starts. A bucket's all-reduce fires on a communication thread as soon as
// every replica has populated all of that bucket's gradients — signalled by
// ag::BackwardHooks::on_leaf_grad_ready — while the tail of backward is
// still executing on the replica threads.
//
// Determinism argument: bucket membership depends only on parameter order
// and the configured bucket size, never on arrival time. The algorithm
// (dist/algorithms.hpp) resolves once per bucket, and within a bucket
// gradients reduce parameter by parameter in replica-index order. Buckets
// are disjoint, so the order in which the communication thread happens to
// service them cannot change any value: the result is bitwise identical to
// reducing each replica's serial backward parameter by parameter
// (tests/test_dist_overlap.cpp asserts this at 1/2/4/8 replicas).
//
// Every replica contributes to every bucket: the replica set is fixed and
// the reduction waits for all of it. Spans `replica_backward`,
// `bucket_reduce` and `overlap_idle` make the overlap visible in Chrome
// traces.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ag/variable.hpp"
#include "core/flags.hpp"

namespace legw::dist {

class WireState;  // compression.hpp — error-feedback residuals

using core::DistAlgo;
using core::WireFormat;

// Simulated wire cost of shipping one bucket through the all-reduce: the
// communication thread sleeps the modelled critical-path time per bucket.
// Sleeping releases the core, so overlap genuinely hides this time under
// backward compute even on a single-core host. The default model is free.
//
// allreduce_us models the critical path per algorithm (`bytes` is the
// fp32-payload size; the wire format's element width scales the bandwidth
// term):
//   tree — 2*ceil(log2 n) hops, each carrying the full payload;
//   ring — 2*(n-1) hops, each carrying payload/n: latency grows with n but
//          the bandwidth term stays ~2*payload (bandwidth-optimal);
//   hier — intra-group hops at the (faster) intra latency/bandwidth,
//          inter-group hops over the leaders at fabric cost — the two-level
//          island topology (NVLink within a node, fabric between).
struct WireModel {
  double latency_us = 0.0;
  double gbytes_per_sec = 0.0;  // 0 = infinite bandwidth
  // Intra-group link for the hierarchical algorithm; unset (0) fall back to
  // the fabric numbers above.
  double intra_latency_us = 0.0;
  double intra_gbytes_per_sec = 0.0;
  double allreduce_us(DistAlgo resolved, int n_shards, i64 bytes,
                      WireFormat wire) const;
};

struct OverlapConfig {
  // Target bucket payload in bytes; a bucket closes once it reaches this.
  // Parameters larger than the target get a bucket of their own.
  i64 bucket_bytes = 256 * 1024;
  // false: skip the per-replica zero_grad so gradients accumulate onto
  // whatever the caller left in them (micro-batch accumulation composes with
  // train::GradientAccumulator; see tests/test_train_extras.cpp).
  bool zero_grads = true;
  // Simulated wire cost; it changes wall-clock time, never a value.
  WireModel wire;
  // Which all-reduce algorithm reduces each bucket; kAuto resolves per
  // bucket from its payload size (dist::choose_algorithm). Env default:
  // LEGW_DIST_ALGO.
  DistAlgo algo = DistAlgo::kAuto;
  // On-the-wire gradient format (env default: LEGW_DIST_WIRE). Non-fp32
  // formats quantize each replica's contribution at the sender edge, sum in
  // fp32, and re-quantize the mean for the broadcast.
  WireFormat wire_format = WireFormat::kFp32;
  // Error-feedback residual state for the quantized wire; not owned.
  // nullptr = plain quantization (no feedback). Must outlive the call and
  // be shaped like replica_params (WireState's constructor).
  WireState* wire_state = nullptr;
  // Communication threads servicing completed buckets. Buckets are disjoint
  // and each is reduced exactly once, so values are unchanged by the worker
  // count — only the wall-clock cost of the wire sleeps is.
  int comm_threads = 1;
};

struct OverlapStats {
  i64 n_buckets = 0;
  i64 buckets_reduced = 0;
  i64 idle_ns = 0;  // reducer time spent waiting for a completed bucket
  i64 wire_bytes = 0;      // simulated bytes on the wire (format-scaled)
  double wire_us = 0.0;    // modelled wire time slept, summed over buckets
  i64 buckets_tree = 0;    // buckets reduced per resolved algorithm
  i64 buckets_ring = 0;
  i64 buckets_hier = 0;
};

struct OverlapResult {
  // The engine reduces over every replica and has no failure mode: ok is
  // always true and error always empty.
  bool ok = true;
  std::string error;
  float mean_loss = 0.0f;  // over every replica, summed in index order
  OverlapStats stats;
};

// Fixed, deterministic bucket plan: walk parameters in declaration order,
// close a bucket once its payload reaches bucket_bytes. Every parameter
// lands in exactly one bucket; bucket contents are consecutive parameter
// indices. Exposed for tests and benches.
std::vector<std::vector<std::size_t>> plan_buckets(
    const std::vector<ag::Variable>& params, i64 bucket_bytes);

// Defaults plus the environment's algo (LEGW_DIST_ALGO) and wire_format
// (LEGW_DIST_WIRE).
OverlapConfig default_overlap_config();

// One data-parallel backward pass: replica_params[r] are replica r's
// parameters (aligned across r), loss_fn(r) builds replica r's shard loss
// from replica r's parameters only, and afterwards every replica's gradients
// hold the element-wise mean over all replicas (shard-mean losses over equal
// shards therefore yield the global-batch mean gradient). Gradients are
// zeroed first unless config.zero_grads is false. loss_fn runs concurrently,
// one thread per replica.
OverlapResult overlapped_backward(
    const std::vector<std::vector<ag::Variable>>& replica_params,
    const std::function<ag::Variable(int replica)>& loss_fn,
    const OverlapConfig& config = {});

// Per-step options the training loop threads through the dispatcher: the
// persistent error-feedback state for the quantized wire.
struct ReplicaStepOptions {
  WireState* wire_state = nullptr;
};

// overlapped_backward with default_overlap_config() and the per-step
// options.
OverlapResult replica_backward_ex(
    const std::vector<std::vector<ag::Variable>>& replica_params,
    const std::function<ag::Variable(int replica)>& loss_fn,
    const ReplicaStepOptions& options);

// replica_backward_ex with default options. Returns the mean shard loss.
float replica_backward(
    const std::vector<std::vector<ag::Variable>>& replica_params,
    const std::function<ag::Variable(int replica)>& loss_fn);

// Verifies the synchrony invariant: all replicas hold bitwise-identical
// parameter values. Returns the index of the first mismatching parameter,
// or -1 if synchronised.
i64 first_divergent_param(
    const std::vector<std::vector<ag::Variable>>& replica_params);

}  // namespace legw::dist
