// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for WAL, checkpoint
// and MANIFEST framing. Self-contained so the storage layer carries no
// external dependency; the table is computed at compile time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace qcnt::storage {

namespace detail {
constexpr std::array<std::uint32_t, 256> MakeCrc32Table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kCrc32Table = MakeCrc32Table();
}  // namespace detail

/// One-shot CRC-32 of a byte range. `seed` allows incremental use:
/// Crc32(b, n2, Crc32(a, n1)) == CRC of a||b.
inline std::uint32_t Crc32(const void* data, std::size_t size,
                           std::uint32_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    c = detail::kCrc32Table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

}  // namespace qcnt::storage
