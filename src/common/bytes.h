// Byte-span aliases and small helpers shared across the code base.

#ifndef FLASHDB_COMMON_BYTES_H_
#define FLASHDB_COMMON_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace flashdb {

/// Immutable view of raw bytes.
using ConstBytes = std::span<const uint8_t>;
/// Mutable view of raw bytes.
using MutBytes = std::span<uint8_t>;
/// Owned byte buffer.
using ByteBuffer = std::vector<uint8_t>;

/// Returns true when the two spans have equal length and contents.
inline bool BytesEqual(ConstBytes a, ConstBytes b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// Copies `src` into `dst`; requires dst.size() >= src.size().
inline void CopyBytes(MutBytes dst, ConstBytes src) {
  if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
}

/// First index in [i, n) where `a` and `b` differ, or n. Compares a uint64
/// word at a time; inside a mismatching word the differing byte is located
/// from the XOR's zero count on the side that holds the lowest address.
inline size_t FirstMismatch(const uint8_t* a, const uint8_t* b, size_t i,
                            size_t n) {
  for (; i + sizeof(uint64_t) <= n; i += sizeof(uint64_t)) {
    uint64_t wa, wb;
    std::memcpy(&wa, a + i, sizeof(wa));
    std::memcpy(&wb, b + i, sizeof(wb));
    if (wa != wb) {
      const int zeros = std::endian::native == std::endian::little
                            ? std::countr_zero(wa ^ wb)
                            : std::countl_zero(wa ^ wb);
      return i + static_cast<size_t>(zeros) / 8;
    }
  }
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// One past the last index in [i, n) where `a` and `b` differ, or i when
/// they agree on all of it. The mirror image of FirstMismatch.
inline size_t LastMismatch(const uint8_t* a, const uint8_t* b, size_t i,
                           size_t n) {
  for (; n >= i + sizeof(uint64_t); n -= sizeof(uint64_t)) {
    uint64_t wa, wb;
    std::memcpy(&wa, a + n - sizeof(uint64_t), sizeof(wa));
    std::memcpy(&wb, b + n - sizeof(uint64_t), sizeof(wb));
    if (wa != wb) {
      const int zeros = std::endian::native == std::endian::little
                            ? std::countl_zero(wa ^ wb)
                            : std::countr_zero(wa ^ wb);
      return n - static_cast<size_t>(zeros) / 8;
    }
  }
  while (n > i && a[n - 1] == b[n - 1]) --n;
  return n;
}

/// Renders bytes as lowercase hex, capped at `max_bytes` (for diagnostics).
std::string HexDump(ConstBytes bytes, size_t max_bytes = 64);

}  // namespace flashdb

#endif  // FLASHDB_COMMON_BYTES_H_
