#include "flash/cell_array.h"

#include <sys/mman.h>
#include <unistd.h>

#include <new>

namespace flashdb::flash {

namespace {

constexpr uintptr_t kHugePage = uintptr_t{2} << 20;

}  // namespace

CellArray::CellArray(size_t size) : size_(size) {
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t span = (size + page - 1) / page * page;
  // Reserve room for a 2 MiB-aligned span with a guard page on each side,
  // then return the slack around [guard, span, guard] to the kernel.
  const uintptr_t reserve = span + 2 * page + kHugePage;
  void* base = mmap(nullptr, reserve, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS,
                    -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  const uintptr_t b = reinterpret_cast<uintptr_t>(base);
  const uintptr_t start = (b + page + kHugePage - 1) & ~(kHugePage - 1);
  const uintptr_t lo = start - page;
  const uintptr_t hi = start + span + page;
  if (lo > b) munmap(base, lo - b);
  if (b + reserve > hi) munmap(reinterpret_cast<void*>(hi), b + reserve - hi);
  map_ = reinterpret_cast<void*>(lo);
  map_len_ = hi - lo;
  void* cells = reinterpret_cast<void*>(start);
  if (span != 0 && mprotect(cells, span, PROT_READ | PROT_WRITE) != 0) {
    munmap(map_, map_len_);
    throw std::bad_alloc();
  }
#ifdef MADV_HUGEPAGE
  // A hint only: refused (THP `never`, no kernel support) it changes nothing
  // but the fault count.
  (void)madvise(cells, span, MADV_HUGEPAGE);
#endif
  data_ = static_cast<uint8_t*>(cells) + (span - size);
}

CellArray::~CellArray() { munmap(map_, map_len_); }

}  // namespace flashdb::flash
