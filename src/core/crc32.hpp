// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte ranges —
// the per-section integrity check of the checkpoint container. Table-driven,
// byte-at-a-time: checkpoint payloads are megabytes at most and written once
// per cadence, so simplicity beats a slice-by-8 variant here.
#pragma once

#include <array>
#include <cstddef>

#include "core/common.hpp"

namespace legw::core {

namespace detail {
constexpr std::array<u32, 256> make_crc32_table() {
  std::array<u32, 256> table{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}
inline constexpr std::array<u32, 256> kCrc32Table = make_crc32_table();
}  // namespace detail

// One-shot CRC of a buffer. For incremental use, pass the previous return
// value as `seed` (the pre/post-conditioning composes correctly).
inline u32 crc32(const void* data, std::size_t n, u32 seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  u32 c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c = detail::kCrc32Table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace legw::core
