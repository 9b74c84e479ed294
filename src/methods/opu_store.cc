#include "methods/opu_store.h"

#include <algorithm>
#include <string>

#include "obs/trace_recorder.h"

namespace flashdb::methods {

using flash::kNullAddr;
using flash::PhysAddr;

OpuStore::OpuStore(flash::FlashDevice* dev, const OpuConfig& config)
    : dev_(dev),
      config_(config),
      data_size_(dev->geometry().data_size),
      spare_size_(dev->geometry().spare_size),
      // Clamp the reserve on tiny chips (see PdlStore::EffectiveReserve).
      bm_(dev, std::min(config.gc_reserve_blocks,
                        std::max(2u, dev->geometry().num_data_blocks() / 8))),
      map_(/*track_diffs=*/false),
      gc_policy_(ftl::MakeGcPolicy(config.gc_policy)),
      spare_scratch_(spare_size_) {}

Status OpuStore::Format(uint32_t num_logical_pages, PageInitializer initial,
                        void* initial_arg) {
  if (num_logical_pages >= kNullAddr) {
    return Status::InvalidArgument(
        "num_logical_pages collides with the reserved pid sentinel");
  }
  const auto& g = dev_->geometry();
  // Factory bad blocks (opt-in OOB scan) are excluded before the erase sweep
  // so their marks are neither erased away nor their blocks put in service.
  std::vector<uint32_t> factory_bad;
  if (dev_->config().scan_bad_blocks) {
    FLASHDB_ASSIGN_OR_RETURN(factory_bad, ftl::ScanFactoryBadBlocks(dev_));
  }
  auto is_bad = [&](uint32_t b) {
    return std::binary_search(factory_bad.begin(), factory_bad.end(), b);
  };
  for (uint32_t b = 0; b < g.num_data_blocks(); ++b) {
    if (is_bad(b)) continue;
    bool dirty = false;
    for (uint32_t p = 0; p < g.pages_per_block && !dirty; ++p) {
      dirty = !dev_->IsErased(dev_->AddrOf(b, p));
    }
    if (dirty) FLASHDB_RETURN_IF_ERROR(dev_->EraseBlock(b));
  }
  bm_.Reset();
  for (uint32_t b : factory_bad) bm_.MarkBadForRecovery(b);
  clock_.Reset();
  num_pages_ = num_logical_pages;
  map_.Reset(num_logical_pages, g.total_pages());

  ByteBuffer page(data_size_, 0);
  ByteBuffer spare(spare_size_, 0xFF);
  for (PageId pid = 0; pid < num_logical_pages; ++pid) {
    std::fill(page.begin(), page.end(), 0);
    if (initial != nullptr) initial(pid, page, initial_arg);
    FLASHDB_ASSIGN_OR_RETURN(PhysAddr q, bm_.AllocatePage(false));
    std::fill(spare.begin(), spare.end(), 0xFF);
    ftl::EncodeSpare(spare, ftl::PageType::kData, pid, clock_.Next(), page);
    FLASHDB_RETURN_IF_ERROR(dev_->ProgramPage(q, page, spare));
    map_.SetBase(pid, q);
  }
  formatted_ = true;
  return Status::OK();
}

Status OpuStore::ReadPage(PageId pid, MutBytes out) {
  if (!formatted_) return Status::InvalidArgument("store not formatted");
  if (pid >= num_pages_) {
    return Status::NotFound("pid out of range: " + std::to_string(pid));
  }
  if (out.size() != data_size_) {
    return Status::InvalidArgument("output buffer must be one page");
  }
  return ftl::ReadVerifiedPage(dev_, map_.base(pid), out);
}

Status OpuStore::WriteBack(PageId pid, ConstBytes page) {
  if (!formatted_) return Status::InvalidArgument("store not formatted");
  if (pid >= num_pages_) {
    return Status::NotFound("pid out of range: " + std::to_string(pid));
  }
  if (page.size() != data_size_) {
    return Status::InvalidArgument("page image must be one page");
  }
  // Program the up-to-date page into a new physical page first, then set the
  // old copy obsolete (crash between the two leaves duplicates, arbitrated by
  // timestamp during recovery).
  FLASHDB_ASSIGN_OR_RETURN(PhysAddr q, AllocatePage(false));
  std::fill(spare_scratch_.begin(), spare_scratch_.end(), 0xFF);
  ftl::EncodeSpare(spare_scratch_, ftl::PageType::kData, pid, clock_.Next(),
                   page);
  FLASHDB_RETURN_IF_ERROR(dev_->ProgramPage(q, page, spare_scratch_));
  const PhysAddr old = map_.base(pid);  // resolve after GC may have moved it
  FLASHDB_RETURN_IF_ERROR(bm_.MarkObsolete(old));
  map_.SetBase(pid, q);
  return Status::OK();
}

Status OpuStore::ScrubPhysPage(PhysAddr addr, bool* relocated) {
  *relocated = false;
  if (!formatted_) return Status::InvalidArgument("store not formatted");
  if (addr >= dev_->geometry().data_pages() ||
      bm_.state(addr) != ftl::PageState::kValid) {
    return Status::OK();  // obsolete/erased: the block erase clears the wear
  }
  ByteBuffer spare(spare_size_);
  FLASHDB_RETURN_IF_ERROR(dev_->ReadSpare(addr, spare));
  const ftl::SpareInfo tag = ftl::DecodeSpare(spare);
  if (!tag.programmed || tag.obsolete || tag.type != ftl::PageType::kData ||
      tag.pid >= num_pages_ || map_.base(tag.pid) != addr) {
    return Status::OK();  // stale duplicate; GC will reclaim it
  }
  ByteBuffer image(data_size_);
  FLASHDB_RETURN_IF_ERROR(ReadPage(tag.pid, image));
  FLASHDB_RETURN_IF_ERROR(WriteBack(tag.pid, image));
  *relocated = true;
  return Status::OK();
}

Result<PhysAddr> OpuStore::AllocatePage(bool for_gc) {
  while (true) {
    Result<PhysAddr> r = bm_.AllocatePage(for_gc);
    if (r.ok() || for_gc || !r.status().IsNoSpace()) return r;
    FLASHDB_RETURN_IF_ERROR(RunGcOnce());
  }
}

Status OpuStore::RunGcOnce() {
  flash::CategoryScope cat(dev_, flash::OpCategory::kGc);
  const ftl::GcScoreContext score_ctx;  // whole pages only; defaults suffice
  // On multi-plane chips the group carries one victim per plane of the lead
  // victim's die (when their scores justify it) so the final erase collapses
  // into one multi-plane command; single-plane chips get exactly one victim.
  std::vector<uint32_t> victims =
      ftl::PickVictimGroup(*gc_policy_, bm_, score_ctx);
  if (victims.empty()) {
    // All reclaimable space may sit in the open blocks; close them and retry.
    bm_.CloseOpenBlocks();
    victims = ftl::PickVictimGroup(*gc_policy_, bm_, score_ctx);
  }
  if (victims.empty()) {
    return Status::NoSpace("garbage collection found no reclaimable block");
  }
  ++gc_runs_;
  if (dev_->trace() != nullptr) {
    dev_->trace()->Emit(obs::TraceCat::kGcVictim, dev_->clock().now_us(), 0,
                        victims[0], victims.size());
  }
  const uint32_t ppb = dev_->geometry().pages_per_block;
  ByteBuffer data(data_size_);
  ByteBuffer spare(spare_size_);
  ByteBuffer new_spare(spare_size_);
  for (uint32_t block : victims) {
    for (uint32_t p = 0; p < ppb; ++p) {
      const PhysAddr addr = dev_->AddrOf(block, p);
      if (bm_.state(addr) != ftl::PageState::kValid) continue;
      FLASHDB_RETURN_IF_ERROR(dev_->ReadPage(addr, data, spare));
      const ftl::SpareInfo info = ftl::DecodeSpare(spare);
      if (info.type != ftl::PageType::kData || info.pid >= num_pages_ ||
          map_.base(info.pid) != addr) {
        continue;  // stale duplicate; dropped by the erase
      }
      // Corrupt live data must not be relocated as if it were good.
      FLASHDB_RETURN_IF_ERROR(ftl::VerifyPageRead(info, data, addr));
      FLASHDB_ASSIGN_OR_RETURN(PhysAddr q, bm_.AllocatePage(true));
      std::fill(new_spare.begin(), new_spare.end(), 0xFF);
      ftl::EncodeSpare(new_spare, ftl::PageType::kData, info.pid,
                       info.timestamp, data);
      FLASHDB_RETURN_IF_ERROR(dev_->ProgramPage(q, data, new_spare));
      map_.SetBase(info.pid, q);
    }
  }
  return bm_.EraseAndFreeGroup(victims);
}

Status OpuStore::Recover() {
  flash::CategoryScope cat(dev_, flash::OpCategory::kRecovery);
  const auto& g = dev_->geometry();
  const uint32_t total = g.data_pages();
  bm_.Reset();
  // Journaled bad blocks first (a crash may have cut power before the OOB
  // mark hit flash); the scan below rediscovers on-flash marks on its own.
  for (uint32_t b : pending_bad_) bm_.MarkBadForRecovery(b);
  pending_bad_.clear();
  clock_.Reset();
  map_.Reset(total, total);
  map_.BeginReplay();
  ByteBuffer obsolete_mark(spare_size_);
  ftl::EncodeObsoleteMark(obsolete_mark);

  auto obsolete_on_flash = [&](PhysAddr a) -> Status {
    FLASHDB_RETURN_IF_ERROR(dev_->ProgramSpare(a, obsolete_mark));
    bm_.SetObsoleteForRecovery(a);
    return Status::OK();
  };

  Status scan = ftl::ForEachProgrammedSpare(
      dev_, [&](PhysAddr addr, const ftl::SpareInfo& info) -> Status {
        if (info.bad_block && dev_->PageInBlock(addr) == 0) {
          bm_.MarkBadForRecovery(dev_->BlockOf(addr));
          if (!info.programmed) return Status::OK();
        }
        if (info.obsolete || !info.crc_ok ||
            info.type != ftl::PageType::kData || info.pid >= total) {
          bm_.SetObsoleteForRecovery(addr);
          if (!info.obsolete) {
            FLASHDB_RETURN_IF_ERROR(dev_->ProgramSpare(addr, obsolete_mark));
          }
          return Status::OK();
        }
        clock_.Observe(info.timestamp);
        const ftl::MappingTable::BaseReplay r =
            map_.ReplayBase(info.pid, addr, info.timestamp);
        if (!r.accepted) return obsolete_on_flash(addr);
        if (r.displaced_base != kNullAddr) {
          FLASHDB_RETURN_IF_ERROR(obsolete_on_flash(r.displaced_base));
        }
        bm_.SetValidForRecovery(addr);
        return Status::OK();
      });
  FLASHDB_RETURN_IF_ERROR(scan);
  bm_.FinalizeRecovery();
  num_pages_ = map_.replayed_num_pids();
  map_.EndReplay(num_pages_);
  formatted_ = true;
  return Status::OK();
}

}  // namespace flashdb::methods
