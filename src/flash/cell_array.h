// Backing memory for an emulated chip's cell arrays.
//
// A chip's data and spare cells are one large array each (hundreds of MiB on
// a bench rig). CellArray maps them directly from the kernel instead of the
// heap:
//   * the array starts on a 2 MiB boundary and is advised MADV_HUGEPAGE, so
//     with transparent huge pages in `madvise` or `always` mode the first
//     touch of each 2 MiB costs one fault instead of 512. The advice is only
//     a hint; when it is refused the array behaves identically, just with
//     4 KiB pages;
//   * a PROT_NONE guard page sits on each side, and the array ends flush
//     against the trailing one, so an out-of-range cell access faults in
//     every build (what the heap vector's ASan redzones caught before). The
//     leading guard is flush too whenever the length is a multiple of the
//     page size, as it is on every page-aligned geometry;
//   * nothing is written at construction: the pages are zero-filled by the
//     kernel on first touch. The device never reads a cell it has not
//     programmed since the last erase (see FlashDevice), so the initial
//     contents are never observed.

#ifndef FLASHDB_FLASH_CELL_ARRAY_H_
#define FLASHDB_FLASH_CELL_ARRAY_H_

#include <cstddef>
#include <cstdint>

namespace flashdb::flash {

class CellArray {
 public:
  /// Maps `size` bytes (plus the two guard pages). Throws std::bad_alloc
  /// when the kernel refuses the mapping.
  explicit CellArray(size_t size);
  ~CellArray();

  CellArray(const CellArray&) = delete;
  CellArray& operator=(const CellArray&) = delete;

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  void* map_ = nullptr;  ///< whole mapping, guards included
  size_t map_len_ = 0;
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace flashdb::flash

#endif  // FLASHDB_FLASH_CELL_ARRAY_H_
