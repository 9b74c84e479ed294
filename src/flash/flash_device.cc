#include "flash/flash_device.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/trace_recorder.h"

namespace flashdb::flash {

namespace {

/// Trace category of one array command.
obs::TraceCat TraceCatOf(OpKind kind, bool cache_chain) {
  switch (kind) {
    case OpKind::kRead:
      return obs::TraceCat::kFlashRead;
    case OpKind::kProgram:
      return cache_chain ? obs::TraceCat::kFlashCacheProgram
                         : obs::TraceCat::kFlashProgram;
    case OpKind::kProgramSpare:
      return obs::TraceCat::kFlashProgramSpare;
    case OpKind::kErase:
      return obs::TraceCat::kFlashErase;
  }
  return obs::TraceCat::kFlashRead;
}

}  // namespace

FlashDevice::ConfinementScope::ConfinementScope(const FlashDevice* dev)
    : dev_(dev) {
  if (dev_->in_operation_.exchange(true, std::memory_order_acquire)) {
    std::fprintf(stderr,
                 "FlashDevice: concurrent operations on one chip -- the "
                 "shard-confinement contract is violated (drive each shard "
                 "from its own ShardExecutor worker)\n");
    std::abort();
  }
}

FlashDevice::FlashDevice(const FlashConfig& config)
    : config_(config),
      data_(static_cast<size_t>(config.geometry.total_pages()) *
            config.geometry.data_size),
      spare_(static_cast<size_t>(config.geometry.total_pages()) *
             config.geometry.spare_size),
      erased_(std::max(config.geometry.data_size, config.geometry.spare_size),
              0xFF) {
  const auto& g = config_.geometry;
  if (g.meta_blocks >= g.num_blocks) {
    std::fprintf(stderr,
                 "FlashDevice: meta_blocks (%u) must leave at least one data "
                 "block (num_blocks %u)\n",
                 g.meta_blocks, g.num_blocks);
    std::abort();
  }
  if (g.dies_per_chip == 0 || g.planes_per_die == 0) {
    std::fprintf(stderr,
                 "FlashDevice: dies_per_chip and planes_per_die must be >= 1\n");
    std::abort();
  }
  if (g.meta_blocks % g.planes_per_chip() != 0) {
    std::fprintf(stderr,
                 "FlashDevice: meta_blocks (%u) must be a whole plane stripe "
                 "(multiple of %u) -- use FlashConfig::WithMetaBlocks\n",
                 g.meta_blocks, g.planes_per_chip());
    std::abort();
  }
  if (config_.max_data_programs > 0xFF || config_.max_spare_programs > 0xFF) {
    // The per-page counts are bytes, and a count of 0 means "erased": a
    // budget past 255 would wrap a programmed page back to erased.
    std::fprintf(stderr,
                 "FlashDevice: max_data_programs (%u) and max_spare_programs "
                 "(%u) must be <= 255\n",
                 config_.max_data_programs, config_.max_spare_programs);
    std::abort();
  }
  data_programs_.assign(g.total_pages(), 0);
  spare_programs_.assign(g.total_pages(), 0);
  reads_since_erase_.assign(g.total_pages(), 0);
  scrub_flagged_.assign(g.total_pages(), 0);
  block_frontier_.assign(g.num_blocks, -1);
  plane_ready_us_.assign(g.planes_per_chip(), 0);
  plane_last_prog_.assign(g.planes_per_chip(), kNullAddr);
  stats_.block_erase_counts.assign(g.num_blocks, 0);
  stats_.plane.assign(g.planes_per_chip(), PlaneCounters{});
}

Status FlashDevice::CheckAddr(PhysAddr addr) const {
  if (addr >= config_.geometry.total_pages()) {
    return Status::InvalidArgument("physical address out of range: " +
                                   std::to_string(addr));
  }
  return Status::OK();
}

void FlashDevice::ChargeCounters(OpKind kind, uint64_t us, uint64_t count) {
  OpCounters& total = stats_.total;
  OpCounters& cat = stats_.by_category[static_cast<int>(category_)];
  switch (kind) {
    case OpKind::kRead:
      total.reads += count;
      total.read_us += us;
      cat.reads += count;
      cat.read_us += us;
      break;
    case OpKind::kProgram:
    case OpKind::kProgramSpare:
      total.writes += count;
      total.write_us += us;
      cat.writes += count;
      cat.write_us += us;
      break;
    case OpKind::kErase:
      total.erases += count;
      total.erase_us += us;
      cat.erases += count;
      cat.erase_us += us;
      break;
  }
}

void FlashDevice::SyncPlanesToClock() {
  const uint64_t now = clock_.now_us();
  if (now == clock_seen_us_) return;
  // The clock moved outside the device (an explicit Advance by harness code,
  // or a Reset). Host time passes with every plane idle, so ready floors
  // move up to now; a backwards move (Reset) rebases every plane.
  for (auto& r : plane_ready_us_) {
    if (now < clock_seen_us_ || now > r) r = now;
  }
  clock_seen_us_ = now;
}

uint64_t FlashDevice::OccupyPlane(uint32_t plane, uint64_t us) {
  SyncPlanesToClock();
  uint64_t min_ready = plane_ready_us_[0];
  for (uint64_t r : plane_ready_us_) min_ready = r < min_ready ? r : min_ready;
  const uint64_t start = plane_ready_us_[plane];
  const uint64_t end = start + us;
  plane_ready_us_[plane] = end;
  PlaneCounters& pc = stats_.plane[plane];
  pc.ops++;
  pc.busy_us += us;
  pc.stall_us += start - min_ready;
  clock_.AdvanceTo(end);
  clock_seen_us_ = clock_.now_us();
  return start;
}

void FlashDevice::Charge(OpKind kind, PhysAddr addr, uint64_t us,
                         bool cache_chain) {
  ChargeCounters(kind, us, 1);
  const uint32_t plane = config_.geometry.plane_of_block(BlockOf(addr));
  const uint64_t start = OccupyPlane(plane, us);
  if (trace_ != nullptr) {
    const uint64_t what =
        kind == OpKind::kErase ? BlockOf(addr) : static_cast<uint64_t>(addr);
    trace_->Emit(TraceCatOf(kind, cache_chain), start, us, plane, what,
                 static_cast<uint64_t>(category_));
  }
}

Status FlashDevice::ReadPage(PhysAddr addr, MutBytes data, MutBytes spare) {
  ConfinementScope confined(this);
  FLASHDB_RETURN_IF_ERROR(CheckAddr(addr));
  const auto& g = config_.geometry;
  if (!data.empty() && data.size() != g.data_size) {
    return Status::InvalidArgument("data buffer must be exactly one page");
  }
  if (!spare.empty() && spare.size() != g.spare_size) {
    return Status::InvalidArgument("spare buffer must be exactly spare_size");
  }
  Charge(OpKind::kRead, addr, config_.timing.read_us);

  // Read-error model: each attempt disturbs the page again (the counter
  // advances per pass), and the injector decides per attempt whether the raw
  // bit errors exceeded the on-chip ECC budget. Without an injector the
  // ladder never engages and the charge above is the whole story.
  uint32_t rse = ++reads_since_erase_[addr];
  bool corrupt = false;
  if (fault_injector_ != nullptr) {
    const uint32_t wear = stats_.block_erase_counts[BlockOf(addr)];
    corrupt = fault_injector_->CorruptRead(addr, 0, wear, rse);
    uint32_t attempt = 0;
    while (corrupt && attempt < config_.max_read_retries) {
      ++attempt;
      const uint64_t retry_us = config_.timing.effective_read_retry_us();
      Charge(OpKind::kRead, addr, retry_us);
      stats_.integrity.read_retries++;
      stats_.integrity.retry_us += retry_us;
      rse = ++reads_since_erase_[addr];
      corrupt = fault_injector_->CorruptRead(addr, attempt, wear, rse);
    }
    if (attempt > 0) {
      if (corrupt) {
        stats_.integrity.reads_uncorrectable++;
      } else {
        stats_.integrity.reads_corrected++;
      }
      FlagForScrub(addr);
    }
  }
  if (config_.read_disturb_limit != 0 && rse >= config_.read_disturb_limit) {
    FlagForScrub(addr);
  }

  if (!data.empty()) CopyBytes(data, RawData(addr));
  if (!spare.empty()) CopyBytes(spare, RawSpare(addr));
  if (corrupt) {
    // The cells are intact; only this delivery is wrong. Flip bits in the
    // data area when it was requested (the common case the FTL's data CRC
    // guards), otherwise in the spare (caught by the metadata CRC).
    const uint64_t salt = (static_cast<uint64_t>(addr) << 32) | rse;
    if (!data.empty()) {
      CorruptBuffer(data, salt);
    } else {
      CorruptBuffer(spare, salt);
    }
  }
  return Status::OK();
}

void FlashDevice::CorruptBuffer(MutBytes buf, uint64_t salt) {
  if (buf.empty()) return;
  uint64_t h = MixBits64(salt ^ 0xC0FFEEULL);
  const uint32_t flips = 1 + static_cast<uint32_t>(h & 3);
  for (uint32_t i = 0; i < flips; ++i) {
    h = MixBits64(h);
    const uint64_t bit = h % (static_cast<uint64_t>(buf.size()) * 8);
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

void FlashDevice::FlagForScrub(PhysAddr addr) {
  // Only data-region pages are scrub candidates: the meta region's journal
  // frames carry their own CRCs and are rewritten wholesale by the journal's
  // ping-pong, not relocated page by page.
  if (addr >= config_.geometry.data_pages()) return;
  if (scrub_flagged_[addr]) return;
  scrub_flagged_[addr] = 1;
  scrub_candidates_.push_back(addr);
}

std::vector<PhysAddr> FlashDevice::TakeScrubCandidates() {
  std::vector<PhysAddr> out;
  out.reserve(scrub_candidates_.size());
  for (PhysAddr addr : scrub_candidates_) {
    // An erase since flagging cleared the flag: the content is gone and the
    // entry is stale.
    if (!scrub_flagged_[addr]) continue;
    scrub_flagged_[addr] = 0;
    out.push_back(addr);
  }
  scrub_candidates_.clear();
  return out;
}

Status FlashDevice::ProgramCells(uint8_t* dst, ConstBytes src, bool erased,
                                 PhysAddr addr, const char* area,
                                 bool strict) {
  const uint8_t* s = src.data();
  const size_t n = src.size();
  if (erased) {
    // Erased cells are all ones, so the 0->1 check passes and the AND yields
    // the image itself. The array may still hold the pre-erase image: copy,
    // never AND.
    std::memcpy(dst, s, n);
    return Status::OK();
  }
  constexpr size_t kWord = sizeof(uint64_t);
  const size_t words_end = n - n % kWord;
  if (strict && config_.strict_bit_semantics) {
    // A program may only clear bits: every bit set in src must already be
    // set in the cells, i.e. src & ~dst must be all zero. Accumulate over
    // whole words, then the tail bytes, and check once -- a rejected program
    // leaves the cells untouched.
    uint64_t raised = 0;
    for (size_t i = 0; i < words_end; i += kWord) {
      uint64_t ws, wd;
      std::memcpy(&ws, s + i, kWord);
      std::memcpy(&wd, dst + i, kWord);
      raised |= ws & ~wd;
    }
    for (size_t i = words_end; i < n; ++i) raised |= s[i] & ~dst[i];
    if (raised != 0) {
      return Status::FlashConstraint(
          std::string("program attempts 0->1 transition in ") + area +
          " area of page " + std::to_string(addr));
    }
  }
  for (size_t i = 0; i < words_end; i += kWord) {
    uint64_t ws, wd;
    std::memcpy(&ws, s + i, kWord);
    std::memcpy(&wd, dst + i, kWord);
    wd &= ws;
    std::memcpy(dst + i, &wd, kWord);
  }
  for (size_t i = words_end; i < n; ++i) dst[i] &= s[i];
  return Status::OK();
}

Status FlashDevice::ProgramImpl(PhysAddr addr, ConstBytes data,
                                ConstBytes spare, bool strict) {
  ConfinementScope confined(this);
  FLASHDB_RETURN_IF_ERROR(CheckAddr(addr));
  const auto& g = config_.geometry;
  if (data.empty() && spare.empty()) {
    return Status::InvalidArgument("nothing to program");
  }
  if (!data.empty() && data.size() != g.data_size) {
    return Status::InvalidArgument("data image must be exactly one page");
  }
  if (!spare.empty() && spare.size() != g.spare_size) {
    return Status::InvalidArgument("spare image must be exactly spare_size");
  }
  if (!data.empty() &&
      data_programs_[addr] >= config_.max_data_programs) {
    return Status::FlashConstraint("data partial-program budget exhausted at " +
                                   std::to_string(addr));
  }
  if (!spare.empty() &&
      spare_programs_[addr] >= config_.max_spare_programs) {
    return Status::FlashConstraint(
        "spare partial-program budget exhausted at " + std::to_string(addr));
  }
  const uint32_t block = BlockOf(addr);
  const int32_t page = static_cast<int32_t>(PageInBlock(addr));
  const bool first_program = (data_programs_[addr] == 0 && spare_programs_[addr] == 0);
  if (config_.enforce_sequential_program && first_program &&
      page < block_frontier_[block]) {
    return Status::FlashConstraint(
        "non-sequential first program: page " + std::to_string(page) +
        " behind frontier " + std::to_string(block_frontier_[block]) +
        " in block " + std::to_string(block));
  }

  const OpKind kind = data.empty() ? OpKind::kProgramSpare : OpKind::kProgram;
  if (fault_injector_ != nullptr) {
    fault_injector_->BeforeMutation(kind, addr);
    if (fault_injector_->FailMutation(kind, addr)) {
      return Status::IOError("program failed (grown bad block) at page " +
                             std::to_string(addr));
    }
  }

  if (!data.empty()) {
    FLASHDB_RETURN_IF_ERROR(ProgramCells(DataCells(addr), data,
                                         data_programs_[addr] == 0, addr,
                                         "data", strict));
    data_programs_[addr]++;
  }
  if (!spare.empty()) {
    FLASHDB_RETURN_IF_ERROR(ProgramCells(SpareCells(addr), spare,
                                         spare_programs_[addr] == 0, addr,
                                         "spare", strict));
    spare_programs_[addr]++;
  }
  if (first_program && page > block_frontier_[block]) {
    block_frontier_[block] = page;
  }

  // Cache-program: a full-page first program that directly extends the
  // previous program chain on its plane (next page of the same block) hides
  // the data load behind the array busy time and charges the cheaper
  // latency. Any other program breaks the plane's chain. With the default
  // cache_write_us == 0 the charge is identical either way.
  const uint32_t plane = g.plane_of_block(block);
  uint64_t us = config_.timing.write_us;
  bool cache_chain = false;
  if (kind == OpKind::kProgram && first_program) {
    const PhysAddr prev = plane_last_prog_[plane];
    if (prev != kNullAddr && addr == prev + 1 && BlockOf(prev) == block) {
      us = config_.timing.effective_cache_write_us();
      cache_chain = true;
    }
    plane_last_prog_[plane] = addr;
  } else {
    plane_last_prog_[plane] = kNullAddr;
  }
  Charge(kind, addr, us, cache_chain);

  if (fault_injector_ != nullptr) {
    fault_injector_->AfterMutation(kind, addr);
  }
  return Status::OK();
}

void FlashDevice::ApplyErase(uint32_t block) {
  const auto& g = config_.geometry;
  const PhysAddr first = AddrOf(block, 0);
  // Zero program counts are the erased state; the cells are left as they are
  // (see RawData and ProgramCells).
  for (uint32_t p = 0; p < g.pages_per_block; ++p) {
    data_programs_[first + p] = 0;
    spare_programs_[first + p] = 0;
    reads_since_erase_[first + p] = 0;
    scrub_flagged_[first + p] = 0;  // content gone; pending flag is stale
  }
  block_frontier_[block] = -1;
  // Any array operation other than the next sequential program ends a
  // cache-program sequence, so an erase breaks its whole plane's chain, not
  // just the chain of the erased block.
  plane_last_prog_[g.plane_of_block(block)] = kNullAddr;
  stats_.block_erase_counts[block]++;
}

Status FlashDevice::EraseBlock(uint32_t block) {
  ConfinementScope confined(this);
  const auto& g = config_.geometry;
  if (block >= g.num_blocks) {
    return Status::InvalidArgument("block out of range: " +
                                   std::to_string(block));
  }
  const PhysAddr first = AddrOf(block, 0);
  if (fault_injector_ != nullptr) {
    fault_injector_->BeforeMutation(OpKind::kErase, first);
    if (fault_injector_->FailMutation(OpKind::kErase, first)) {
      // The chip spends the erase latency before reporting failure; the
      // cells keep their pre-erase contents and the block's wear counter
      // does not advance (nothing was erased).
      ChargeCounters(OpKind::kErase, config_.timing.erase_us, 1);
      const uint32_t plane = g.plane_of_block(block);
      const uint64_t start = OccupyPlane(plane, config_.timing.erase_us);
      if (trace_ != nullptr) {
        trace_->Emit(obs::TraceCat::kFlashErase, start,
                     config_.timing.erase_us, plane, block,
                     static_cast<uint64_t>(category_));
      }
      return Status::IOError("erase failed (grown bad block) at block " +
                             std::to_string(block));
    }
  }
  ApplyErase(block);
  Charge(OpKind::kErase, first, config_.timing.erase_us);
  if (fault_injector_ != nullptr) {
    fault_injector_->AfterMutation(OpKind::kErase, first);
  }
  return Status::OK();
}

Status FlashDevice::EraseBlocksMultiPlane(const std::vector<uint32_t>& blocks) {
  ConfinementScope confined(this);
  const auto& g = config_.geometry;
  if (blocks.empty() || blocks.size() > g.planes_per_die) {
    return Status::InvalidArgument(
        "multi-plane erase takes 1.." + std::to_string(g.planes_per_die) +
        " blocks, got " + std::to_string(blocks.size()));
  }
  uint32_t die = 0;
  uint32_t seen_planes = 0;  // bitmask; planes_per_chip is small
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i] >= g.num_blocks) {
      return Status::InvalidArgument("block out of range: " +
                                     std::to_string(blocks[i]));
    }
    const uint32_t d = g.die_of_block(blocks[i]);
    if (i == 0) {
      die = d;
    } else if (d != die) {
      return Status::InvalidArgument(
          "multi-plane erase spans dies " + std::to_string(die) + " and " +
          std::to_string(d));
    }
    const uint32_t bit = 1u << g.plane_of_block(blocks[i]);
    if (seen_planes & bit) {
      return Status::InvalidArgument(
          "multi-plane erase repeats plane " +
          std::to_string(g.plane_of_block(blocks[i])));
    }
    seen_planes |= bit;
  }
  if (fault_injector_ != nullptr) {
    for (uint32_t b : blocks) {
      fault_injector_->BeforeMutation(OpKind::kErase, AddrOf(b, 0));
    }
    for (uint32_t b : blocks) {
      if (fault_injector_->FailMutation(OpKind::kErase, AddrOf(b, 0))) {
        // One plane failing fails the whole command with nothing erased;
        // the FTL retries per block to isolate the grown bad block.
        return Status::IOError("multi-plane erase failed at block " +
                               std::to_string(b));
      }
    }
  }
  for (uint32_t b : blocks) ApplyErase(b);

  // One command's worth of array time, all involved planes in lockstep from
  // the latest of their ready times; the op still counts as |blocks| block
  // erases for wear/throughput accounting.
  const uint64_t us = config_.timing.effective_multiplane_erase_us();
  ChargeCounters(OpKind::kErase, us, blocks.size());
  SyncPlanesToClock();
  uint64_t min_ready = plane_ready_us_[0];
  for (uint64_t r : plane_ready_us_) min_ready = r < min_ready ? r : min_ready;
  uint64_t start = 0;
  for (uint32_t b : blocks) {
    const uint64_t r = plane_ready_us_[g.plane_of_block(b)];
    start = r > start ? r : start;
  }
  const uint64_t end = start + us;
  for (uint32_t b : blocks) {
    const uint32_t plane = g.plane_of_block(b);
    plane_ready_us_[plane] = end;
    PlaneCounters& pc = stats_.plane[plane];
    pc.ops++;
    pc.busy_us += us;
    pc.stall_us += start - min_ready;
  }
  clock_.AdvanceTo(end);
  clock_seen_us_ = clock_.now_us();
  if (trace_ != nullptr) {
    // One event per command: a0 = plane bitmask, a1 = lead block.
    trace_->Emit(obs::TraceCat::kFlashEraseMulti, start, us, seen_planes,
                 blocks[0], static_cast<uint64_t>(category_));
  }

  if (fault_injector_ != nullptr) {
    for (uint32_t b : blocks) {
      fault_injector_->AfterMutation(OpKind::kErase, AddrOf(b, 0));
    }
  }
  return Status::OK();
}

Status FlashDevice::MarkBadBlockOob(uint32_t block) {
  ConfinementScope confined(this);
  const auto& g = config_.geometry;
  if (block >= g.num_blocks) {
    return Status::InvalidArgument("block out of range: " +
                                   std::to_string(block));
  }
  const PhysAddr addr = AddrOf(block, 0);
  if (fault_injector_ != nullptr) {
    fault_injector_->BeforeMutation(OpKind::kProgramSpare, addr);
  }
  // Clear the mark byte directly: budgets and the sequential rule do not
  // apply to bad-block marking (the block is leaving service regardless).
  uint8_t* cells = SpareCells(addr);
  if (spare_programs_[addr] == 0) std::memset(cells, 0xFF, g.spare_size);
  cells[kBadBlockOobOffset] = 0x00;
  if (spare_programs_[addr] < 0xFF) spare_programs_[addr]++;
  const uint32_t plane = g.plane_of_block(block);
  plane_last_prog_[plane] = kNullAddr;
  Charge(OpKind::kProgramSpare, addr, config_.timing.write_us);
  if (fault_injector_ != nullptr) {
    fault_injector_->AfterMutation(OpKind::kProgramSpare, addr);
  }
  return Status::OK();
}

bool FlashDevice::IsErased(PhysAddr addr) const {
  return data_programs_[addr] == 0 && spare_programs_[addr] == 0;
}

uint32_t FlashDevice::DataProgramCount(PhysAddr addr) const {
  return data_programs_[addr];
}

uint32_t FlashDevice::SpareProgramCount(PhysAddr addr) const {
  return spare_programs_[addr];
}

void FlashDevice::ResetAccounting() {
  stats_.Reset();
  clock_.Reset();
  // Plane ready times rebase with the clock; the cache-program chain is a
  // timing artifact, so phases start with it broken for independence.
  plane_ready_us_.assign(plane_ready_us_.size(), 0);
  plane_last_prog_.assign(plane_last_prog_.size(), kNullAddr);
  clock_seen_us_ = 0;
}

ConstBytes FlashDevice::RawData(PhysAddr addr) const {
  const uint32_t n = config_.geometry.data_size;
  if (data_programs_[addr] == 0) return ConstBytes(erased_.data(), n);
  return ConstBytes(data_.data() + static_cast<size_t>(addr) * n, n);
}

ConstBytes FlashDevice::RawSpare(PhysAddr addr) const {
  const uint32_t n = config_.geometry.spare_size;
  if (spare_programs_[addr] == 0) return ConstBytes(erased_.data(), n);
  return ConstBytes(spare_.data() + static_cast<size_t>(addr) * n, n);
}

}  // namespace flashdb::flash
