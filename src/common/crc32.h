// CRC-32C (Castagnoli) used to validate spare-area metadata and on-flash
// structures during recovery scans.

#ifndef FLASHDB_COMMON_CRC32_H_
#define FLASHDB_COMMON_CRC32_H_

#include <cstdint>

#include "common/bytes.h"

namespace flashdb {

/// Computes CRC-32C over `data`, continuing from `seed` (0 to start). Uses
/// the SSE4.2 crc32 instruction when the host CPU has it (checked once at run
/// time) and Crc32cPortable otherwise; both give identical results.
uint32_t Crc32c(ConstBytes data, uint32_t seed = 0);

/// Byte-at-a-time table-driven CRC-32C for any host. Crc32c falls back to
/// it; exposed so tests and micro-benchmarks can pin it on hosts that never
/// take the fallback.
uint32_t Crc32cPortable(ConstBytes data, uint32_t seed = 0);

}  // namespace flashdb

#endif  // FLASHDB_COMMON_CRC32_H_
