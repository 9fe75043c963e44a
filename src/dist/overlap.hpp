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
// Fault injection: a seeded FaultPlan makes chosen replicas slow (straggler
// delay before their backward starts) or dead (never launched, never
// reports). A per-bucket timeout plus policy governs degradation: kFailFast
// returns a clean error naming the stuck bucket and replicas;
// kDegradeToSurvivors excludes the blocking replicas and reduces the mean
// over the survivors, counting the event in OverlapStats and the
// `replica_timeout` obs counter. Spans `replica_backward`, `bucket_reduce`
// and `overlap_idle` make the overlap visible in Chrome traces.
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

// A deterministic, seeded set of injected replica faults.
struct FaultPlan {
  enum class Kind {
    kSlow,  // replica sleeps delay_ms before starting its backward
    kDead   // replica never runs and never reports
  };
  struct Fault {
    int replica = 0;
    Kind kind = Kind::kSlow;
    double delay_ms = 0.0;
  };
  std::vector<Fault> faults;

  // Picks `count` distinct straggler replicas out of [0, n_replicas) with a
  // seeded core::Rng, each delayed by delay_ms. Same seed, same plan.
  static FaultPlan stragglers(u64 seed, int n_replicas, int count,
                              double delay_ms);
  static FaultPlan dead_replica(int replica);

  bool is_dead(int replica) const;
  // Total straggler delay for this replica (0 when unaffected).
  double delay_ms_for(int replica) const;
};

enum class TimeoutPolicy {
  kFailFast,           // return ok=false naming the stuck bucket/replicas
  kDegradeToSurvivors  // exclude blockers, mean over surviving replicas
};

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
  // Max time the reducer waits with no completed bucket available before the
  // timeout policy triggers. 0 = wait forever (required to be > 0 when the
  // fault plan contains dead replicas, else the engine would hang).
  double bucket_timeout_ms = 0.0;
  TimeoutPolicy timeout_policy = TimeoutPolicy::kFailFast;
  // Simulated wire cost; it changes wall-clock time, never a value.
  WireModel wire;
  const FaultPlan* faults = nullptr;  // not owned; nullptr = fault-free
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
  // Global replica ids aligned with replica_params, for runs over a subset
  // of an elastic membership (dist/membership.hpp): fault-plan lookups and
  // error-feedback residuals are indexed by these ids. nullptr = identity.
  const std::vector<int>* replica_ids = nullptr;
};

struct OverlapStats {
  i64 n_buckets = 0;
  i64 buckets_reduced = 0;
  i64 timeout_episodes = 0;
  std::vector<int> dead_replicas;      // from the plan: never launched
  std::vector<int> excluded_replicas;  // dead + degraded-away stragglers
  i64 idle_ns = 0;  // reducer time spent waiting for a completed bucket
  i64 wire_bytes = 0;      // simulated bytes on the wire (format-scaled)
  double wire_us = 0.0;    // modelled wire time slept, summed over buckets
  i64 buckets_tree = 0;    // buckets reduced per resolved algorithm
  i64 buckets_ring = 0;
  i64 buckets_hier = 0;
};

struct OverlapResult {
  bool ok = false;
  std::string error;       // empty when ok
  float mean_loss = 0.0f;  // over the replicas that ran, in index order
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
// from replica r's parameters only, and on success every non-excluded
// replica's gradients hold the element-wise mean over the participating
// replicas (shard-mean losses over equal shards therefore yield the
// global-batch mean gradient). Gradients are zeroed first unless
// config.zero_grads is false. loss_fn runs concurrently, one thread per live
// replica.
OverlapResult overlapped_backward(
    const std::vector<std::vector<ag::Variable>>& replica_params,
    const std::function<ag::Variable(int replica)>& loss_fn,
    const OverlapConfig& config = {});

// Per-step options the training loop threads through the dispatcher when it
// runs an elastic membership: injected faults for replicas dying this step,
// global replica ids for a participant subset, and the persistent
// error-feedback state for the quantized wire.
struct ReplicaStepOptions {
  WireState* wire_state = nullptr;
  const FaultPlan* faults = nullptr;
  const std::vector<int>* replica_ids = nullptr;
  double bucket_timeout_ms = 0.0;
  TimeoutPolicy timeout_policy = TimeoutPolicy::kFailFast;
};

// overlapped_backward with default_overlap_config() and the per-step
// options.
OverlapResult replica_backward_ex(
    const std::vector<std::vector<ag::Variable>>& replica_params,
    const std::function<ag::Variable(int replica)>& loss_fn,
    const ReplicaStepOptions& options);

// replica_backward_ex with default options. Returns the mean shard loss;
// aborts if the engine reports failure (no fault plan is installed here, so
// a failure is a programming error, not an injected fault).
float replica_backward(
    const std::vector<std::vector<ag::Variable>>& replica_params,
    const std::function<ag::Variable(int replica)>& loss_fn);

// Verifies the synchrony invariant: all replicas hold bitwise-identical
// parameter values. Returns the index of the first mismatching parameter,
// or -1 if synchronised.
i64 first_divergent_param(
    const std::vector<std::vector<ag::Variable>>& replica_params);

}  // namespace legw::dist
