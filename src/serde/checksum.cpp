#include "serde/checksum.hpp"

#include <array>
#include <cstddef>

namespace asyncmr::serde {

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

// Slice-by-8 tables: kCrc[0] is the classic bytewise table; kCrc[s][b] is
// the CRC contribution of byte b followed by s zero bytes, so eight table
// lookups fold in eight input bytes at once.
constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t s = 1; s < 8; ++s) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrc = MakeCrcTables();

// Little-endian 32-bit load from any alignment (one mov on x86/arm64).
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> bytes, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = kCrc[7][lo & 0xFF] ^ kCrc[6][(lo >> 8) & 0xFF] ^
        kCrc[5][(lo >> 16) & 0xFF] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFF] ^ kCrc[2][(hi >> 8) & 0xFF] ^
        kCrc[1][(hi >> 16) & 0xFF] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kCrc[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace asyncmr::serde
