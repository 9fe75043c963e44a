// Quantized on-the-wire gradient compression.
//
// Two formats ride the simulated wire (env LEGW_DIST_WIRE, core/flags.hpp):
//
//   fp16 — IEEE-754 binary16 round-tripping, the core of mixed-precision
//          large-batch systems (Jia et al. 2018, the paper's ref [11],
//          combined LARS with fp16 gradients). Software emulation —
//          correctness-exact rounding to the nearest half,
//          round-half-to-even, with proper subnormal/overflow handling.
//   int8 — symmetric per-tensor quantization: scale = max|x| / 127 over the
//          finite elements, q = round(x / scale) clamped to [-127, 127].
//          Non-finite elements decode as NaN (keeping the Inf for +/-inf),
//          so the check/ tripwires still catch a diverging replica after the
//          wire — compression never launders an exploded gradient.
//
// Error-feedback residuals (WireState) make the lossy wire safe for LEGW
// convergence: each replica adds the previous step's quantization error back
// into its gradient before compressing, so the error is compensated over
// steps instead of accumulating (Seide et al. 2014; Karimireddy et al.
// 2019). The residual update is
//     v      = grad + residual
//     grad   = Q(v)            (what the wire carries)
//     residual = v - Q(v)      (carried to the next step)
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "ag/variable.hpp"
#include "core/flags.hpp"
#include "core/tensor.hpp"

namespace legw::dist {

using core::WireFormat;

// Scalar conversions (exposed for tests).
u16 float_to_half(float f);
float half_to_float(u16 h);

// Lossy round-trip of a whole tensor through binary16.
void compress_fp16(const core::Tensor& src, std::vector<u16>& out);
void decompress_fp16(const std::vector<u16>& src, core::Tensor& out);

// Symmetric per-tensor int8 quantization (exposed for tests). `scale_out`
// receives max|finite x| / 127 (0 when every element is 0 or non-finite);
// non-finite elements encode as 0 — use wire_roundtrip for the NaN/Inf
// preserving in-place path.
void quantize_int8(const core::Tensor& src, std::vector<i8>& out,
                   float* scale_out);
// Decode: out[i] = src[i] * scale.
void dequantize_int8(const std::vector<i8>& src, float scale,
                     core::Tensor& out);

// Lossy in-place round-trip of `t` through `format` (kFp32 is the identity).
// Non-finite elements pass through unchanged (NaN stays NaN, +-Inf stays
// +-Inf), so the check/ tripwires still fire after the wire. Every call is
// one re-quantization event: bumps the dist.requantize counter (except for
// kFp32).
void wire_roundtrip(WireFormat format, core::Tensor& t);

// Per-(replica, parameter) error-feedback residuals, owned by the caller
// and carried across steps. Thread-safety: entries for different parameters
// are independent; the engine's reducer threads touch disjoint parameter
// sets (buckets are disjoint), so no locking is needed.
class WireState {
 public:
  // Zero residuals shaped like the replica parameters.
  explicit WireState(
      const std::vector<std::vector<ag::Variable>>& replica_params);

  core::Tensor& residual(int replica, std::size_t param);
  int n_replicas() const { return static_cast<int>(residual_.size()); }
  std::size_t n_params() const {
    return residual_.empty() ? 0 : residual_[0].size();
  }
  // L-inf norm over every residual — the property suites assert this stays
  // bounded over long runs (error feedback compensates, never accumulates).
  float max_abs_residual() const;
  // Named views ("dist.ef.r<replica>.p<param>") for TrainState::extra, so
  // quantized-wire runs resume bit-identically from a checkpoint.
  std::vector<std::pair<std::string, core::Tensor*>> named_residuals();

 private:
  std::vector<std::vector<core::Tensor>> residual_;
};

// Sender-edge compression for one parameter's shard set: for each shard i
// (belonging to global replica ids[i]),
//     grad := Q(grad [+ residual]);  residual := pre - Q(...)
// with residuals looked up in `state` (nullptr = plain quantization, no
// feedback). kFp32 is a no-op. The quantized contributions are then summed
// in fp32 by the all-reduce algorithms — the fp32-accumulate wire model of
// modern collectives.
void quantize_contributions(std::vector<core::Tensor*>& shards,
                            WireFormat format, WireState* state,
                            const std::vector<int>* global_ids,
                            std::size_t param);

// Broadcast-edge compression: the reduced mean (already identical in every
// shard) is round-tripped once and copied back, so every replica decodes the
// identical bytes and stays bit-synchronised.
void quantize_broadcast(std::vector<core::Tensor*>& shards, WireFormat format);

}  // namespace legw::dist
