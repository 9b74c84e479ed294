// In-memory emulator of a NAND flash chip.
//
// The emulator enforces the physical programming model of NAND flash:
//   * reads and programs are page-granular; erases are block-granular;
//   * programming can only clear bits (1 -> 0); an erase resets a whole block
//     to all-ones (by resetting its program counts, see below);
//   * pages within a block must be first-programmed in ascending order;
//   * a page's data / spare area can only be programmed a limited number of
//     times between erases (partial programming budget).
//
// Every operation charges its datasheet latency (FlashTiming) to a virtual
// SimClock and updates FlashStats, so "I/O time" in experiments is the exact
// deterministic sum of operation costs — the same accounting the paper's
// emulator used.
//
// The chip is subdivided into dies and planes (FlashGeometry); operations on
// distinct planes overlap in virtual time while same-plane operations
// serialize. Each plane keeps a ready time; an op occupies its plane from
// that ready time and the chip clock is the completion time of the
// latest-finishing plane. On the default 1-die x 1-plane geometry this
// reduces exactly to the historical serial clock.

#ifndef FLASHDB_FLASH_FLASH_DEVICE_H_
#define FLASHDB_FLASH_FLASH_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/cell_array.h"
#include "flash/fault_injector.h"
#include "flash/flash_config.h"
#include "flash/flash_stats.h"

namespace flashdb::obs {
class TraceShard;
}  // namespace flashdb::obs

namespace flashdb::flash {

/// Physical page address: a linear page index over the whole chip.
using PhysAddr = uint32_t;

/// Sentinel for "no physical page".
inline constexpr PhysAddr kNullAddr = 0xFFFFFFFFu;

/// Byte offset inside a page's spare area holding the bad-block mark: 0xFF
/// on a good block, any cleared bit marks the block bad. The mark lives in
/// page 0's spare, past the ftl::spare_codec encoded region, mirroring the
/// OOB convention of real NAND (vendors mark factory bad blocks in the OOB
/// of the first page). Owned by the flash layer so the device can program it
/// without depending on the FTL's codec.
inline constexpr uint32_t kBadBlockOobOffset = 20;

/// The emulated chip. NOT internally synchronized: the storage stack relies
/// on *shard confinement* for thread safety -- a device (and the PageStore
/// above it) is only ever driven from one thread at a time, either the
/// owning thread of a single-chip setup or the one ShardExecutor worker its
/// shard is pinned to. Confinement hand-off (e.g. main thread formats, a
/// worker then runs the workload) is legal as long as the hand-off itself is
/// synchronized (ShardExecutor's submit / future-or-callback completion
/// edges provide this). Every
/// mutating operation asserts that no second thread is inside the device
/// concurrently, so a violated contract aborts deterministically instead of
/// corrupting the emulated cells.
class FlashDevice {
 public:
  explicit FlashDevice(const FlashConfig& config);

  const FlashConfig& config() const { return config_; }
  const FlashGeometry& geometry() const { return config_.geometry; }

  /// Block index that owns `addr`.
  uint32_t BlockOf(PhysAddr addr) const {
    return addr / config_.geometry.pages_per_block;
  }
  /// Page index of `addr` within its block.
  uint32_t PageInBlock(PhysAddr addr) const {
    return addr % config_.geometry.pages_per_block;
  }
  /// Linear address of page `page` in block `block`.
  PhysAddr AddrOf(uint32_t block, uint32_t page) const {
    return block * config_.geometry.pages_per_block + page;
  }

  /// Reads the page's data area (and spare area when `spare` is non-empty)
  /// into the caller buffers. `data` may be empty for a spare-only read.
  /// Charges one Tread regardless of which areas are requested.
  ///
  /// Read-error model: when a fault injector reports raw bit errors for an
  /// attempt (FaultInjector::CorruptRead), the device re-senses up to
  /// config().max_read_retries times, charging effective_read_retry_us() per
  /// pass to the page's plane. A read that stays bad through the ladder
  /// still returns OK but the delivered buffers carry deterministic bit
  /// flips -- silent at the device level, exactly like real NAND past its
  /// ECC budget; the FTL's spare-area data CRC is the detection layer.
  /// Retry/corrected/uncorrectable classification lands in
  /// stats().integrity; pages that needed retries (or crossed
  /// config().read_disturb_limit reads since erase) are flagged as scrub
  /// candidates.
  Status ReadPage(PhysAddr addr, MutBytes data, MutBytes spare);

  /// Convenience: spare-area-only read (used by recovery scans).
  Status ReadSpare(PhysAddr addr, MutBytes spare) {
    return ReadPage(addr, {}, spare);
  }

  /// Programs the page's data and spare areas with *fresh-write* intent:
  /// under strict_bit_semantics it is an error if any bit set to 1 in the
  /// image is already 0 in the cells (the stored result would silently differ
  /// from the image). Buffers must be exactly data_size / spare_size long
  /// (either may be empty to leave the area untouched). Charges one Twrite.
  Status ProgramPage(PhysAddr addr, ConstBytes data, ConstBytes spare) {
    return ProgramImpl(addr, data, spare, /*strict=*/true);
  }

  /// Partial program of the data area with NAND AND-semantics: a 1 bit in the
  /// image leaves the cell unchanged, a 0 bit clears it. Used by IPL to fill
  /// log slots of an already-programmed log page. Charges one Twrite and
  /// consumes one data program slot.
  Status PartialProgramPage(PhysAddr addr, ConstBytes data) {
    return ProgramImpl(addr, data, {}, /*strict=*/false);
  }

  /// Partial program of the spare area only (e.g. setting the obsolete bit);
  /// AND-semantics like PartialProgramPage. Charges one Twrite, consumes one
  /// spare program slot.
  Status ProgramSpare(PhysAddr addr, ConstBytes spare) {
    return ProgramImpl(addr, {}, spare, /*strict=*/false);
  }

  /// Erases a whole block (all pages back to 0xFF). Charges one Terase.
  /// Fails with IOError -- cells untouched, block not counted as erased --
  /// when the fault injector reports a grown bad block (the chip still
  /// charges the erase latency before reporting the failure).
  Status EraseBlock(uint32_t block);

  /// Erases up to planes_per_die blocks with one multi-plane command. All
  /// blocks must sit on the same die, on pairwise-distinct planes (the
  /// same-block-offset restriction of early multi-plane chips is relaxed, as
  /// on modern parts). Charges effective_multiplane_erase_us() once; the
  /// involved planes go busy in lockstep from the latest of their ready
  /// times. Each block's wear counter still increments individually. If any
  /// block's erase would fail (grown bad block), the whole command fails
  /// with IOError and no block is erased -- callers then retry individually
  /// to isolate the bad block, mirroring real FTL practice.
  Status EraseBlocksMultiPlane(const std::vector<uint32_t>& blocks);

  /// Programs the bad-block mark byte (ftl::kBadBlockOobOffset) in the spare
  /// area of the block's page 0, bypassing partial-program budgets and the
  /// sequential rule: marking must succeed even on a worn-out block that no
  /// longer erases. Charges one spare program. Never fails for in-range
  /// blocks (the fault injector may still cut power around it).
  Status MarkBadBlockOob(uint32_t block);

  /// True if the page has never been programmed since its last erase.
  bool IsErased(PhysAddr addr) const;

  /// Number of data-area programs since the last erase of the page.
  uint32_t DataProgramCount(PhysAddr addr) const;
  /// Number of spare-area programs since the last erase of the page.
  uint32_t SpareProgramCount(PhysAddr addr) const;

  /// Read attempts (including retry passes) against this page since its
  /// block's last erase -- the read-disturb stress input of the error model.
  uint32_t ReadsSinceErase(PhysAddr addr) const {
    return reads_since_erase_[addr];
  }

  /// Drains the scrub-candidate list: data-region pages that needed a read
  /// retry, or whose reads-since-erase counter crossed
  /// config().read_disturb_limit, since the last drain. Deduplicated; order
  /// is flag order (deterministic for a fixed operation sequence). An erase
  /// of the block clears a pending flag (the page's content is gone).
  std::vector<PhysAddr> TakeScrubCandidates();

  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }

  FlashStats& stats() { return stats_; }
  const FlashStats& stats() const { return stats_; }

  /// Current accounting category for subsequent operations.
  OpCategory category() const { return category_; }
  void set_category(OpCategory c) { category_ = c; }

  /// Installs (or clears, with nullptr) the fault injector. Not owned.
  void set_fault_injector(FaultInjector* fi) { fault_injector_ = fi; }

  /// Installs (or clears, with nullptr) the trace sink for this chip's flash
  /// command spans. Not owned; must be the owning shard's lane (the device is
  /// thread-confined, so the single-writer ring contract holds by
  /// construction). Emission only reads values the operation already
  /// computed -- attaching a sink never changes clocks, stats, or cells.
  void set_trace(obs::TraceShard* sink) { trace_ = sink; }
  obs::TraceShard* trace() const { return trace_; }

  /// Zeroes statistics and the virtual clock (flash contents untouched).
  void ResetAccounting();

  /// Direct, cost-free access to a page's data area for test assertions. An
  /// erased area (program count 0) is presented as all-ones; the span stays
  /// valid until the next device operation.
  ConstBytes RawData(PhysAddr addr) const;
  /// Direct, cost-free access to a page's spare area, like RawData.
  ConstBytes RawSpare(PhysAddr addr) const;
  /// Cost-free check of the bad-block OOB mark (test assertions; the FTL
  /// pays for real reads when it scans).
  bool HasBadBlockOob(uint32_t block) const {
    return RawSpare(AddrOf(block, 0))[kBadBlockOobOffset] != 0xFF;
  }

 private:
  /// Enforces the shard-confinement contract: entered by every device
  /// operation; aborts when a second thread enters concurrently. One relaxed
  /// RMW per operation -- noise next to the page-sized memcpy it guards.
  class ConfinementScope {
   public:
    explicit ConfinementScope(const FlashDevice* dev);
    ~ConfinementScope() { dev_->in_operation_.store(false, std::memory_order_release); }
    ConfinementScope(const ConfinementScope&) = delete;
    ConfinementScope& operator=(const ConfinementScope&) = delete;

   private:
    const FlashDevice* dev_;
  };

  Status CheckAddr(PhysAddr addr) const;
  Status ProgramImpl(PhysAddr addr, ConstBytes data, ConstBytes spare,
                     bool strict);
  /// ANDs `src` into the cell range at `dst`; when `strict`, rejects images
  /// whose stored result would differ from `src` (lost 1-bits). An `erased`
  /// area is logically all-ones, so `src` is copied over whatever the cells
  /// still hold from before the erase.
  Status ProgramCells(uint8_t* dst, ConstBytes src, bool erased, PhysAddr addr,
                      const char* area, bool strict);
  uint8_t* DataCells(PhysAddr addr) {
    return data_.data() + static_cast<size_t>(addr) * config_.geometry.data_size;
  }
  uint8_t* SpareCells(PhysAddr addr) {
    return spare_.data() +
           static_cast<size_t>(addr) * config_.geometry.spare_size;
  }
  /// Updates op counts and work-time totals: `count` operations summing to
  /// `us` of array time (multi-plane commands pass count > 1, us once).
  void ChargeCounters(OpKind kind, uint64_t us, uint64_t count);
  /// Advances the per-plane virtual-time model: the op starts at the plane's
  /// ready time and the chip clock moves to the latest plane completion.
  /// Returns the op's start time (the plane's prior ready time) -- the span
  /// timestamp the trace layer records.
  uint64_t OccupyPlane(uint32_t plane, uint64_t us);
  /// Counters + single-plane occupancy for the plane owning `addr`, plus the
  /// trace span when a sink is attached. `cache_chain` marks a program that
  /// hit the plane's cache-program chain (traced as its own category).
  void Charge(OpKind kind, PhysAddr addr, uint64_t us,
              bool cache_chain = false);
  /// Re-floors plane ready times after an external clock Advance()/Reset().
  void SyncPlanesToClock();
  /// Erases one block: zeroes its program counts (the erased state), read
  /// counters, scrub flags and frontier. The cells are not touched.
  void ApplyErase(uint32_t block);
  /// Marks a data-region page as a scrub candidate (idempotent until the
  /// next TakeScrubCandidates or block erase).
  void FlagForScrub(PhysAddr addr);
  /// Deterministically flips a few bits of a delivered buffer -- the payload
  /// of an uncorrectable read.
  static void CorruptBuffer(MutBytes buf, uint64_t salt);

  FlashConfig config_;
  CellArray data_;   ///< num pages * data_size; meaningful where count > 0
  CellArray spare_;  ///< num pages * spare_size; likewise
  /// max(data_size, spare_size) bytes of 0xFF: what an erased area reads as.
  ByteBuffer erased_;
  /// Per-page data / spare program counts since the last erase; 0 = erased.
  std::vector<uint8_t> data_programs_;
  std::vector<uint8_t> spare_programs_;
  std::vector<int32_t> block_frontier_;    ///< highest first-programmed page
  /// Read attempts per page since its block's last erase (read disturb).
  /// Device *physical* state like the cells, not accounting: survives
  /// ResetAccounting, cleared per block by erases.
  std::vector<uint32_t> reads_since_erase_;
  std::vector<uint8_t> scrub_flagged_;     ///< page in scrub_candidates_
  std::vector<PhysAddr> scrub_candidates_; ///< pending scrub flags, flag order
  /// Virtual time at which each plane finishes its queued work. The chip
  /// clock is always max(plane_ready_us_) after an operation; with one plane
  /// the model degenerates to plain SimClock::Advance, bit for bit.
  std::vector<uint64_t> plane_ready_us_;
  /// Last full-page program per plane (cache-program chain head), kNullAddr
  /// when the chain is broken (erase / partial program on the plane).
  std::vector<PhysAddr> plane_last_prog_;
  /// clock_.now_us() as of the last device op; detects external advances.
  uint64_t clock_seen_us_ = 0;
  SimClock clock_;
  FlashStats stats_;
  OpCategory category_ = OpCategory::kDefault;
  FaultInjector* fault_injector_ = nullptr;
  /// Trace sink for flash command spans; null = recording off (zero cost).
  obs::TraceShard* trace_ = nullptr;
  /// True while a device operation is in flight (see ConfinementScope).
  mutable std::atomic<bool> in_operation_{false};
};

/// RAII switch of the device accounting category.
class CategoryScope {
 public:
  CategoryScope(FlashDevice* dev, OpCategory c)
      : dev_(dev), saved_(dev->category()) {
    dev_->set_category(c);
  }
  ~CategoryScope() { dev_->set_category(saved_); }

  CategoryScope(const CategoryScope&) = delete;
  CategoryScope& operator=(const CategoryScope&) = delete;

 private:
  FlashDevice* dev_;
  OpCategory saved_;
};

}  // namespace flashdb::flash

#endif  // FLASHDB_FLASH_FLASH_DEVICE_H_
