// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for the wire codec
// and for WAL, checkpoint and MANIFEST framing. Self-contained so the
// storage layer carries no external dependency; the tables are computed
// at compile time.
//
// Slicing-by-8: eight 256-entry tables let one step fold eight input
// bytes with eight independent lookups instead of eight dependent ones.
// The result is bit-for-bit the byte-at-a-time CRC, so no on-disk or
// on-wire byte depends on which one computed it (tests/storage_test.cpp
// checks both against each other).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace qcnt::storage {

namespace detail {
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte table; tables[k][b] is the CRC state
/// after byte b is followed by k zero bytes.
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return t;
}
inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

inline std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace detail

/// One-shot CRC-32 of a byte range. `seed` allows incremental use:
/// Crc32(b, n2, Crc32(a, n1)) == CRC of a||b.
inline std::uint32_t Crc32(const void* data, std::size_t size,
                           std::uint32_t seed = 0) {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = detail::LoadLe32(p) ^ c;
    const std::uint32_t hi = detail::LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

}  // namespace qcnt::storage
