#include "dist/algorithms.hpp"

#include <cmath>

#include "core/counters.hpp"
#include "obs/trace.hpp"

namespace legw::dist {

namespace {

void check_shards(const std::vector<core::Tensor*>& shards, const char* who) {
  LEGW_CHECK(!shards.empty(), std::string(who) + ": no shards");
  for (std::size_t i = 0; i < shards.size(); ++i) {
    LEGW_CHECK(shards[i] != nullptr, std::string(who) + ": null shard");
    LEGW_CHECK(shards[i]->same_shape(*shards[0]),
               std::string(who) + ": shard shape mismatch");
  }
}

}  // namespace

DistAlgo choose_algorithm(DistAlgo requested, i64 payload_bytes,
                          int n_shards) {
  if (requested != DistAlgo::kAuto) return requested;
  if (n_shards <= 2) return DistAlgo::kTree;
  if (payload_bytes < 64 * 1024) return DistAlgo::kTree;
  if (n_shards >= 8) return DistAlgo::kHier;
  return DistAlgo::kRing;
}

int hier_group_size(int n_shards) {
  LEGW_CHECK(n_shards >= 1, "hier_group_size: need >= 1 shard");
  if (n_shards <= 3) return n_shards;
  int g = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(n_shards))));
  if (g < 2) g = 2;
  if (g > n_shards) g = n_shards;
  return g;
}

void tree_allreduce_mean(std::vector<core::Tensor*>& shards) {
  check_shards(shards, "tree_allreduce_mean");
  const std::size_t n = shards.size();
  obs::Span span("allreduce");
  core::count("dist.algo.tree", 1);
  for (std::size_t stride = 1; stride < n; stride *= 2) {
    for (std::size_t i = 0; i + stride < n; i += 2 * stride) {
      shards[i]->add_(*shards[i + stride]);
    }
  }
  shards[0]->scale_(1.0f / static_cast<float>(n));
  for (std::size_t i = 1; i < n; ++i) {
    *shards[i] = *shards[0];
  }
}

void ring_allreduce_mean(std::vector<core::Tensor*>& shards) {
  check_shards(shards, "ring_allreduce_mean");
  const std::size_t n = shards.size();
  const i64 numel = shards[0]->numel();
  obs::Span span("allreduce");
  core::count("dist.algo.ring", 1);
  if (n == 1 || numel == 0) return;
  // Chunk boundaries: n chunks whose sizes differ by at most one element,
  // so payloads not divisible by n (including numel < n) ring correctly.
  const i64 base = numel / static_cast<i64>(n);
  const i64 rem = numel % static_cast<i64>(n);
  std::vector<i64> off(n + 1, 0);
  for (std::size_t c = 0; c < n; ++c) {
    off[c + 1] = off[c] + base + (static_cast<i64>(c) < rem ? 1 : 0);
  }
  // Reduce-scatter then all-gather, chunk by chunk: chunk c accumulates
  // around the ring starting at shard c — the summation order of a real
  // ring, fixed by (c, n) alone, never by timing.
  std::vector<float> acc;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t c = 0; c < n; ++c) {
    const i64 lo = off[c];
    const i64 len = off[c + 1] - lo;
    if (len == 0) continue;
    acc.assign(shards[c]->data() + lo, shards[c]->data() + lo + len);
    for (std::size_t k = 1; k < n; ++k) {
      const float* src = shards[(c + k) % n]->data() + lo;
      for (i64 j = 0; j < len; ++j) {
        acc[static_cast<std::size_t>(j)] += src[j];
      }
    }
    for (i64 j = 0; j < len; ++j) {
      acc[static_cast<std::size_t>(j)] *= inv_n;
    }
    for (std::size_t r = 0; r < n; ++r) {
      float* dst = shards[r]->data() + lo;
      for (i64 j = 0; j < len; ++j) {
        dst[j] = acc[static_cast<std::size_t>(j)];
      }
    }
  }
}

void hier_allreduce_mean(std::vector<core::Tensor*>& shards, int group_size) {
  check_shards(shards, "hier_allreduce_mean");
  const std::size_t n = shards.size();
  obs::Span span("allreduce");
  core::count("dist.algo.hier", 1);
  if (n == 1 || shards[0]->numel() == 0) return;
  const std::size_t g = static_cast<std::size_t>(
      group_size > 0 ? std::min(group_size, static_cast<int>(n))
                     : hier_group_size(static_cast<int>(n)));
  // Phase 1: intra-group tree reduce (sum) into each group's leader — the
  // group's first shard. Stride doubling within the group, so the order is
  // fixed by (n, g).
  std::vector<std::size_t> leaders;
  for (std::size_t lo = 0; lo < n; lo += g) {
    leaders.push_back(lo);
    const std::size_t end = std::min(n, lo + g);
    for (std::size_t stride = 1; lo + stride < end; stride *= 2) {
      for (std::size_t i = lo; i + stride < end; i += 2 * stride) {
        shards[i]->add_(*shards[i + stride]);
      }
    }
  }
  // Phase 2: inter-group tree reduce over the leaders into shard 0, average
  // there, and hand the result back to every leader.
  const std::size_t m = leaders.size();
  for (std::size_t stride = 1; stride < m; stride *= 2) {
    for (std::size_t i = 0; i + stride < m; i += 2 * stride) {
      shards[leaders[i]]->add_(*shards[leaders[i + stride]]);
    }
  }
  shards[0]->scale_(1.0f / static_cast<float>(n));
  for (std::size_t j = 1; j < m; ++j) {
    *shards[leaders[j]] = *shards[0];
  }
  // Phase 3: intra-group broadcast from each leader.
  for (std::size_t lo = 0; lo < n; lo += g) {
    const std::size_t end = std::min(n, lo + g);
    for (std::size_t i = lo + 1; i < end; ++i) {
      *shards[i] = *shards[lo];
    }
  }
}

void allreduce_mean(std::vector<core::Tensor*>& shards, DistAlgo algo) {
  check_shards(shards, "allreduce_mean");
  const i64 payload_bytes =
      shards[0]->numel() * static_cast<i64>(sizeof(float));
  const DistAlgo resolved =
      choose_algorithm(algo, payload_bytes, static_cast<int>(shards.size()));
  switch (resolved) {
    case DistAlgo::kTree:
      tree_allreduce_mean(shards);
      return;
    case DistAlgo::kRing:
      ring_allreduce_mean(shards);
      return;
    case DistAlgo::kHier:
      hier_allreduce_mean(shards);
      return;
    case DistAlgo::kAuto:
      break;  // unreachable: choose_algorithm never returns kAuto
  }
  LEGW_CHECK(false, "allreduce_mean: unresolved algorithm");
}

i64 wire_elem_bytes(WireFormat format) {
  switch (format) {
    case WireFormat::kFp32: return 4;
    case WireFormat::kFp16: return 2;
    case WireFormat::kInt8: return 1;
  }
  return 4;
}

i64 allreduce_wire_bytes(int n_shards, i64 payload_elems, WireFormat format) {
  if (n_shards <= 1) return 0;
  const i64 hops = 2 * (static_cast<i64>(n_shards) - 1);
  i64 per_hop = payload_elems * wire_elem_bytes(format);
  if (format == WireFormat::kInt8) {
    per_hop += static_cast<i64>(sizeof(float));  // the per-tensor scale
  }
  return hops * per_hop;
}

}  // namespace legw::dist
