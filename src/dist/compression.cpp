#include "dist/compression.hpp"

#include <cmath>
#include <cstring>

#include "core/counters.hpp"

namespace legw::dist {

u16 float_to_half(float f) {
  u32 bits;
  std::memcpy(&bits, &f, sizeof bits);
  const u32 sign = (bits >> 16) & 0x8000u;
  const u32 exponent = (bits >> 23) & 0xFFu;
  u32 mantissa = bits & 0x7FFFFFu;

  if (exponent == 0xFFu) {
    // Inf / NaN: preserve class (quiet any NaN payload into the msb).
    return static_cast<u16>(sign | 0x7C00u | (mantissa != 0 ? 0x200u : 0));
  }
  // Unbiased exponent; half bias is 15, float bias is 127.
  const int e = static_cast<int>(exponent) - 127 + 15;
  if (e >= 0x1F) {
    return static_cast<u16>(sign | 0x7C00u);  // overflow -> inf
  }
  if (e <= 0) {
    // Subnormal half (or underflow to zero). Shift in the implicit bit.
    if (e < -10) return static_cast<u16>(sign);  // too small: signed zero
    mantissa |= 0x800000u;
    const int shift = 14 - e;  // 14..24
    const u32 half_mant = mantissa >> shift;
    // Round to nearest, ties to even.
    const u32 remainder = mantissa & ((1u << shift) - 1);
    const u32 halfway = 1u << (shift - 1);
    u32 rounded = half_mant;
    if (remainder > halfway || (remainder == halfway && (half_mant & 1u))) {
      ++rounded;
    }
    return static_cast<u16>(sign | rounded);
  }
  // Normal half. Mantissa 23 -> 10 bits with round-to-nearest-even.
  u32 half_mant = mantissa >> 13;
  const u32 remainder = mantissa & 0x1FFFu;
  if (remainder > 0x1000u || (remainder == 0x1000u && (half_mant & 1u))) {
    ++half_mant;
    if (half_mant == 0x400u) {  // mantissa overflow: bump exponent
      half_mant = 0;
      if (e + 1 >= 0x1F) return static_cast<u16>(sign | 0x7C00u);
      return static_cast<u16>(sign | (static_cast<u32>(e + 1) << 10));
    }
  }
  return static_cast<u16>(sign | (static_cast<u32>(e) << 10) | half_mant);
}

float half_to_float(u16 h) {
  const u32 sign = (static_cast<u32>(h) & 0x8000u) << 16;
  const u32 exponent = (h >> 10) & 0x1Fu;
  u32 mantissa = h & 0x3FFu;
  u32 bits;
  if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // signed zero
    } else {
      // Subnormal half: normalise.
      int e = -1;
      do {
        mantissa <<= 1;
        ++e;
      } while ((mantissa & 0x400u) == 0);
      mantissa &= 0x3FFu;
      bits = sign | (static_cast<u32>(127 - 15 - e) << 23) | (mantissa << 13);
    }
  } else if (exponent == 0x1Fu) {
    bits = sign | 0x7F800000u | (mantissa << 13);  // inf / nan
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

void wire_roundtrip(WireFormat format, core::Tensor& t) {
  switch (format) {
    case WireFormat::kFp32:
      return;
    case WireFormat::kFp16: {
      for (i64 i = 0; i < t.numel(); ++i) {
        t[i] = half_to_float(float_to_half(t[i]));
      }
      break;
    }
    case WireFormat::kInt8: {
      const i64 n = t.numel();
      float amax = 0.0f;
      for (i64 i = 0; i < n; ++i) {
        if (std::isfinite(t[i])) amax = std::max(amax, std::fabs(t[i]));
      }
      const float scale = amax / 127.0f;
      const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
      for (i64 i = 0; i < n; ++i) {
        const float v = t[i];
        if (!std::isfinite(v)) {
          // NaN stays NaN, +-Inf stays +-Inf: the tripwires must still see
          // a diverged gradient on the far side of the wire.
          t[i] = v;
          continue;
        }
        float q = std::nearbyint(v * inv);
        if (q > 127.0f) q = 127.0f;
        if (q < -127.0f) q = -127.0f;
        t[i] = q * scale;
      }
      break;
    }
  }
  core::count("dist.requantize", 1);
}

WireState::WireState(
    const std::vector<std::vector<ag::Variable>>& replica_params) {
  residual_.reserve(replica_params.size());
  for (const auto& params : replica_params) {
    std::vector<core::Tensor> row;
    row.reserve(params.size());
    for (const ag::Variable& p : params) {
      row.push_back(core::Tensor::zeros(p.value().shape()));
    }
    residual_.push_back(std::move(row));
  }
}

core::Tensor& WireState::residual(int replica, std::size_t param) {
  LEGW_CHECK(replica >= 0 && replica < n_replicas() && param < n_params(),
             "WireState::residual: index out of range");
  return residual_[static_cast<std::size_t>(replica)][param];
}

float WireState::max_abs_residual() const {
  float amax = 0.0f;
  for (const auto& row : residual_) {
    for (const core::Tensor& t : row) {
      for (i64 i = 0; i < t.numel(); ++i) {
        amax = std::max(amax, std::fabs(t[i]));
      }
    }
  }
  return amax;
}

std::vector<std::pair<std::string, core::Tensor*>>
WireState::named_residuals() {
  std::vector<std::pair<std::string, core::Tensor*>> out;
  for (std::size_t r = 0; r < residual_.size(); ++r) {
    for (std::size_t p = 0; p < residual_[r].size(); ++p) {
      out.emplace_back("dist.ef.r" + std::to_string(r) + ".p" +
                           std::to_string(p),
                       &residual_[r][p]);
    }
  }
  return out;
}

void quantize_contributions(std::vector<core::Tensor*>& shards,
                            WireFormat format, WireState* state,
                            const std::vector<int>* global_ids,
                            std::size_t param) {
  if (format == WireFormat::kFp32) return;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    core::Tensor& grad = *shards[i];
    if (state == nullptr) {
      wire_roundtrip(format, grad);
      continue;
    }
    const int gid = global_ids != nullptr
                        ? (*global_ids)[i]
                        : static_cast<int>(i);
    core::Tensor& res = state->residual(gid, param);
    LEGW_CHECK(res.same_shape(grad),
               "quantize_contributions: residual shape mismatch");
    // v = grad + residual; grad = Q(v); residual = v - Q(v).
    for (i64 j = 0; j < grad.numel(); ++j) grad[j] += res[j];
    for (i64 j = 0; j < grad.numel(); ++j) res[j] = grad[j];
    wire_roundtrip(format, grad);
    for (i64 j = 0; j < grad.numel(); ++j) res[j] -= grad[j];
  }
}

void quantize_broadcast(std::vector<core::Tensor*>& shards,
                        WireFormat format) {
  if (format == WireFormat::kFp32 || shards.empty()) return;
  wire_roundtrip(format, *shards[0]);
  for (std::size_t i = 1; i < shards.size(); ++i) {
    *shards[i] = *shards[0];
  }
}

}  // namespace legw::dist
