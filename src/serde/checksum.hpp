// CRC32 (IEEE, slice-by-8 table-driven) for DFS block and checkpoint
// integrity. The simulated DFS checksums every block on write and verifies
// on read so injected corruption surfaces as kDataLoss, mirroring HDFS
// behaviour; the async engine checksums every checkpoint image it writes.
#pragma once

#include <cstdint>
#include <span>

namespace asyncmr::serde {

/// CRC-32 (IEEE 802.3 polynomial, reflected).
uint32_t Crc32(std::span<const uint8_t> bytes, uint32_t seed = 0);

}  // namespace asyncmr::serde
