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
__attribute__((target("sse4.2"))) uint32_t Crc32cSerial(const uint8_t* p,
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

// One crc32 chain retires a word per ~3 cycles (the instruction's latency),
// though the unit accepts one per cycle. Three chains over three adjacent
// lanes keep it busy; a 2048-byte page is one round plus an 8-byte tail.
constexpr size_t kLane = 680;
static_assert(kLane % sizeof(uint64_t) == 0);

// The raw CRC register is linear: feeding bytes B from state s equals
// Shift(s) ^ (feeding B from 0), where Shift feeds kLane zero bytes. Shift is
// a 32x32 bit matrix, stored as one 256-entry table per state byte and
// filled by running the hardware loop over zeros.
struct LaneShift {
  std::array<std::array<uint32_t, 256>, 4> table;

  __attribute__((target("sse4.2"))) LaneShift() {
    static const uint8_t kZeros[kLane] = {};
    for (int k = 0; k < 4; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        table[k][i] = Crc32cSerial(kZeros, kLane, i << (8 * k));
      }
    }
  }

  uint32_t operator()(uint32_t c) const {
    return table[0][c & 0xFF] ^ table[1][(c >> 8) & 0xFF] ^
           table[2][(c >> 16) & 0xFF] ^ table[3][c >> 24];
  }
};

// Runs `rounds` three-lane rounds from `p`. Kept out of line so the short
// spare-metadata spans do not pay its register saves.
__attribute__((target("sse4.2"), noinline)) uint32_t Crc32cRounds(
    const uint8_t* p, size_t rounds, uint32_t c) {
  static const LaneShift kShift;
  for (; rounds > 0; --rounds, p += 3 * kLane) {
    uint64_t a = c, b = 0, d = 0;
    for (size_t i = 0; i < kLane; i += sizeof(uint64_t)) {
      uint64_t wa, wb, wd;
      std::memcpy(&wa, p + i, sizeof(wa));
      std::memcpy(&wb, p + kLane + i, sizeof(wb));
      std::memcpy(&wd, p + 2 * kLane + i, sizeof(wd));
      a = _mm_crc32_u64(a, wa);
      b = _mm_crc32_u64(b, wb);
      d = _mm_crc32_u64(d, wd);
    }
    c = kShift(kShift(static_cast<uint32_t>(a)) ^ static_cast<uint32_t>(b)) ^
        static_cast<uint32_t>(d);
  }
  return c;
}

__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p,
                                                        size_t n, uint32_t c) {
  const size_t rounds = n / (3 * kLane);
  if (rounds > 0) {
    c = Crc32cRounds(p, rounds, c);
    p += rounds * 3 * kLane;
    n -= rounds * 3 * kLane;
  }
  return Crc32cSerial(p, n, c);
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
