#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace flashdb {

namespace {
constexpr uint32_t kPoly = 0x82F63B78;  // reversed CRC-32C polynomial

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

#if defined(__x86_64__)
// SSE4.2's crc32 instruction computes exactly CRC-32C (same polynomial, same
// reflected bit order), so the result matches the portable path bit for bit.
// The target attribute keeps the rest of the build free of -msse4.2; the
// caller only reaches this after a run-time CPU check.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p,
                                                        size_t n, uint32_t c) {
  uint64_t c64 = c;
  for (; n >= sizeof(uint64_t); n -= sizeof(uint64_t), p += sizeof(uint64_t)) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    c64 = _mm_crc32_u64(c64, w);
  }
  c = static_cast<uint32_t>(c64);
  for (; n > 0; --n, ++p) c = _mm_crc32_u8(c, *p);
  return c;
}
#endif
}  // namespace

uint32_t Crc32cPortable(ConstBytes data, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = BuildTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (uint8_t b : data) c = kTable[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32c(ConstBytes data, uint32_t seed) {
#if defined(__x86_64__)
  static const bool kHasSse42 = __builtin_cpu_supports("sse4.2");
  if (kHasSse42) {
    return Crc32cSse42(data.data(), data.size(), seed ^ 0xFFFFFFFFu) ^
           0xFFFFFFFFu;
  }
#endif
  return Crc32cPortable(data, seed);
}

}  // namespace flashdb
