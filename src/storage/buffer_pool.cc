#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "flash/flash_device.h"
#include "obs/trace_recorder.h"

namespace flashdb::storage {

BufferPool::ConfinementScope::ConfinementScope(BufferPool* pool)
    : pool_(pool) {
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id expected{};
  if (!pool_->owner_.compare_exchange_strong(expected, self,
                                             std::memory_order_acquire) &&
      expected != self) {
    std::fprintf(stderr,
                 "BufferPool: concurrent access from two threads -- the pool "
                 "is thread-confined (drive each shard's pool from its own "
                 "ShardExecutor worker)\n");
    std::abort();
  }
  pool_->depth_++;
}

BufferPool::ConfinementScope::~ConfinementScope() {
  if (--pool_->depth_ == 0) {
    pool_->owner_.store(std::thread::id{}, std::memory_order_release);
  }
}

BufferPool::BufferPool(PageStore* store, uint32_t num_frames)
    : store_(store),
      num_frames_(num_frames == 0 ? 1 : num_frames),
      data_size_(store->device()->geometry().data_size) {
  frames_.resize(num_frames_);
  for (uint32_t i = 0; i < num_frames_; ++i) {
    frames_[i].data.resize(data_size_);
    free_frames_.push_back(num_frames_ - 1 - i);
  }
}

void BufferPool::LruAppend(uint32_t idx) {
  Frame& f = frames_[idx];
  f.lru_prev = lru_tail_;
  f.lru_next = kNoFrame;
  if (lru_tail_ != kNoFrame) {
    frames_[lru_tail_].lru_next = idx;
  } else {
    lru_head_ = idx;
  }
  lru_tail_ = idx;
}

void BufferPool::LruRemove(uint32_t idx) {
  Frame& f = frames_[idx];
  if (f.lru_prev != kNoFrame) {
    frames_[f.lru_prev].lru_next = f.lru_next;
  } else {
    lru_head_ = f.lru_next;
  }
  if (f.lru_next != kNoFrame) {
    frames_[f.lru_next].lru_prev = f.lru_prev;
  } else {
    lru_tail_ = f.lru_prev;
  }
}

Result<uint32_t> BufferPool::Evict() {
  // Every frame on the list is unpinned, so the head is the victim.
  const uint32_t idx = lru_head_;
  if (idx == kNoFrame) return Status::Busy("all buffer frames are pinned");
  Frame& f = frames_[idx];
  flash::FlashDevice* dev = store_->device();
  const bool was_dirty = f.dirty;
  const uint64_t start = dev->clock().now_us();
  if (f.dirty) {
    FLASHDB_RETURN_IF_ERROR(store_->WriteBack(f.pid, f.data));
    stats_.dirty_writebacks++;
    f.dirty = false;
  }
  if (dev->trace() != nullptr) {
    dev->trace()->Emit(obs::TraceCat::kBufEvict, start,
                       dev->clock().now_us() - start, f.pid,
                       was_dirty ? 1 : 0);
  }
  LruRemove(idx);
  table_[f.pid] = kNoFrame;
  stats_.evictions++;
  return idx;
}

Result<uint32_t> BufferPool::Pin(PageId pid) {
  const uint32_t hit = Lookup(pid);
  if (hit != kNoFrame) {
    stats_.hits++;
    Frame& f = frames_[hit];
    if (f.pins++ == 0) LruRemove(hit);
    return hit;
  }
  stats_.misses++;
  uint32_t idx;
  if (!free_frames_.empty()) {
    idx = free_frames_.back();
    free_frames_.pop_back();
  } else {
    FLASHDB_ASSIGN_OR_RETURN(idx, Evict());
  }
  Frame& f = frames_[idx];
  flash::FlashDevice* dev = store_->device();
  const uint64_t start = dev->clock().now_us();
  if (Status st = store_->ReadPage(pid, f.data); !st.ok()) {
    // Return the frame before propagating (a corrupt or failed read must not
    // leak the frame, or the pool shrinks to a permanent Busy).
    free_frames_.push_back(idx);
    return st;
  }
  if (dev->trace() != nullptr) {
    dev->trace()->Emit(obs::TraceCat::kBufMiss, start,
                       dev->clock().now_us() - start, pid);
  }
  f.pid = pid;
  f.dirty = false;
  f.pins = 1;
  if (pid >= table_.size()) {
    // One allocation for the whole store: the store's page count is only
    // known once it is formatted, which may be after the pool is built.
    table_.resize(std::max<size_t>(pid + 1, store_->num_logical_pages()),
                  kNoFrame);
  }
  table_[pid] = idx;
  return idx;
}

void BufferPool::Unpin(uint32_t frame_idx) {
  if (--frames_[frame_idx].pins == 0) LruAppend(frame_idx);
}

Status BufferPool::ReadPage(PageId pid, FunctionRef<Status(ConstBytes)> fn) {
  ConfinementScope confined(this);
  FLASHDB_ASSIGN_OR_RETURN(uint32_t idx, Pin(pid));
  Status st = fn(frames_[idx].data);
  Unpin(idx);
  return st;
}

Status BufferPool::WithPage(PageId pid, FunctionRef<Status(MutBytes)> fn) {
  ConfinementScope confined(this);
  FLASHDB_ASSIGN_OR_RETURN(uint32_t idx, Pin(pid));
  Frame& f = frames_[idx];
  // Per-depth snapshot: `fn` may reenter WithPage (a B-tree split mutates the
  // new right sibling while the parent call's frame is mid-mutation), and the
  // nested call must not overwrite this call's pre-image. Index the scratch
  // list afresh after `fn` returns -- a nested call may have grown it and
  // moved the buffers.
  const size_t depth = depth_ - 1;
  if (scratch_.size() <= depth) scratch_.resize(depth + 1);
  if (scratch_[depth].snapshot.size() != data_size_) {
    scratch_[depth].snapshot.resize(data_size_);
  }
  std::memcpy(scratch_[depth].snapshot.data(), f.data.data(), data_size_);
  Status st = fn(f.data);
  DepthScratch& scratch = scratch_[depth];
  const uint8_t* before = scratch.snapshot.data();
  if (st.ok()) {
    // Minimal changed range -> update log for tightly-coupled methods.
    const size_t lo = FirstMismatch(before, f.data.data(), 0, data_size_);
    if (lo < data_size_) {
      const size_t hi = LastMismatch(before, f.data.data(), lo, data_size_);
      scratch.log.offset = static_cast<uint32_t>(lo);
      scratch.log.data.assign(f.data.begin() + lo, f.data.begin() + hi);
      st = store_->OnUpdate(pid, f.data, scratch.log);
      if (st.ok()) f.dirty = true;
    }
  }
  // Roll the frame back so a failed mutation leaves no trace.
  if (!st.ok()) std::memcpy(f.data.data(), before, data_size_);
  Unpin(idx);
  return st;
}

Status BufferPool::FlushPage(PageId pid) {
  ConfinementScope confined(this);
  const uint32_t idx = Lookup(pid);
  if (idx == kNoFrame) return Status::OK();
  Frame& f = frames_[idx];
  if (f.dirty) {
    FLASHDB_RETURN_IF_ERROR(store_->WriteBack(f.pid, f.data));
    stats_.dirty_writebacks++;
    f.dirty = false;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  ConfinementScope confined(this);
  // Collect every dirty frame (only resident frames are ever dirty) in
  // frame-index order, so the batch is deterministic, then hand the store
  // one WriteBatch -- over a ShardedStore this partitions per shard instead
  // of ping-ponging chips.
  flush_batch_.clear();
  for (const Frame& f : frames_) {
    if (!f.dirty) continue;
    if (f.pins != 0) {
      return Status::Busy("dirty frame pinned during FlushAll");
    }
    flush_batch_.push_back(
        PageWrite{f.pid, ConstBytes(f.data.data(), data_size_)});
  }
  if (!flush_batch_.empty()) {
    FLASHDB_RETURN_IF_ERROR(store_->WriteBatch(flush_batch_));
    stats_.dirty_writebacks += flush_batch_.size();
    for (Frame& f : frames_) f.dirty = false;
  }
  return store_->Flush();
}

Status BufferPool::Reset() {
  ConfinementScope confined(this);
  for (Frame& f : frames_) {
    if (f.pins != 0) return Status::Busy("frame pinned during Reset");
  }
  FLASHDB_RETURN_IF_ERROR(FlushAll());
  std::fill(table_.begin(), table_.end(), kNoFrame);
  lru_head_ = lru_tail_ = kNoFrame;
  free_frames_.clear();
  for (uint32_t i = 0; i < num_frames_; ++i) {
    frames_[i].dirty = false;
    free_frames_.push_back(num_frames_ - 1 - i);
  }
  return Status::OK();
}

}  // namespace flashdb::storage
