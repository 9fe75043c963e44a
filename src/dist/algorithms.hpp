// All-reduce algorithms.
//
// Every algorithm below leaves the element-wise mean of all shards in every
// shard, executed by the calling thread in a fixed order. The three differ
// in how the (simulated) cost scales with shard count and payload, and this
// file also holds the size-based policy that picks one per bucket:
//
//   kTree — flat stride-doubling binary tree; critical path 2*ceil(log2 n)
//           hops, each carrying the full payload. Best for latency-bound
//           small buckets.
//   kRing — chunked reduce-scatter + all-gather; 2*(n-1) hops but each
//           carries only payload/n, so the bandwidth term is ~2*payload
//           regardless of n (the classic bandwidth-optimal schedule).
//   kHier — two-level: intra-group tree reduce, inter-group tree exchange
//           over the group leaders, intra-group broadcast — LBANN's grouped
//           communicator shape. Wins when intra-group links are faster than
//           inter-group links (NVLink island vs. fabric), which WireModel
//           models with a separate intra bandwidth/latency.
//
// Because the order is fixed, every algorithm is bitwise deterministic run
// to run for a given shard count (floating-point addition is not
// associative, so a "whoever finishes first" reduction would not be).
// Different algorithms sum in different orders, so *across* algorithms
// results agree only to floating-point tolerance (the property suite checks
// each against a double-precision mean reference). Each algorithm bumps its
// own dist.algo.<name> counter once per call.
#pragma once

#include <vector>

#include "core/flags.hpp"
#include "core/tensor.hpp"

namespace legw::dist {

using core::DistAlgo;
using core::WireFormat;

// Resolves kAuto for one bucket: tree for small payloads or <= 2 shards
// (latency-bound), hierarchical at >= 8 shards (two-level topology pays off
// once there is more than one "island"), ring otherwise (bandwidth-bound).
// Non-auto requests pass through unchanged.
DistAlgo choose_algorithm(DistAlgo requested, i64 payload_bytes, int n_shards);

// Group size the hierarchical algorithm uses when none is given: roughly
// sqrt(n), clamped to [2, n] (n itself for n <= 3, where one group — i.e.
// plain tree — is the whole topology).
int hier_group_size(int n_shards);

// Stride-doubling tree all-reduce with averaging: shard[i] += shard[i +
// stride] for stride = 1, 2, 4, ..., the mean is taken at shard 0 and
// broadcast. The summation order is fixed by n alone.
void tree_allreduce_mean(std::vector<core::Tensor*>& shards);

// Chunked ring all-reduce with averaging: the payload is split into n chunks
// (sizes differing by at most one element, so non-divisible payloads work);
// chunk c accumulates around the ring starting at shard c, is averaged, and
// is gathered back to every shard. After the call every shard holds the
// element-wise mean.
void ring_allreduce_mean(std::vector<core::Tensor*>& shards);

// Two-level all-reduce with averaging: shards are grouped into consecutive
// groups of `group_size` (0 = hier_group_size(n)); each group tree-reduces
// into its leader, leaders tree-reduce into shard 0 where the mean is taken,
// then the result is broadcast leader-wise and group-wise.
void hier_allreduce_mean(std::vector<core::Tensor*>& shards,
                         int group_size = 0);

// Dispatcher: resolves kAuto from the payload size via choose_algorithm and
// runs the selected algorithm (kHier with hier_group_size groups).
void allreduce_mean(std::vector<core::Tensor*>& shards, DistAlgo algo);

// Bytes one element occupies on the wire in `format` (int8 payloads also
// carry one fp32 scale per tensor; see allreduce_wire_bytes).
i64 wire_elem_bytes(WireFormat format);

// Total simulated bytes on the wire for one all-reduce of `payload_elems`
// elements over `n_shards` shards: every algorithm above moves the payload
// 2*(n-1) times in aggregate (the all-reduce volume lower bound — they
// differ in critical-path *time*, not volume), so this is
// 2*(n-1)*payload_elems*wire_elem_bytes (+ per-hop scale words for int8).
i64 allreduce_wire_bytes(int n_shards, i64 payload_elems, WireFormat format);

}  // namespace legw::dist
