// Unit tests for the DBMS buffer pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <list>
#include <map>
#include <new>
#include <set>
#include <vector>

#include "common/random.h"
#include "methods/method_factory.h"
#include "methods/opu_store.h"
#include "obs/trace_recorder.h"
#include "storage/buffer_pool.h"

// Counting replacement of the global scalar operator new (and the matching
// deletes), so a test can assert that a code path allocates nothing. It only
// counts while g_count_allocs is set.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// GCC cannot tell that these deletes pair with the replacement new above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace flashdb::storage {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : dev_(FlashConfig::Small(8)), store_(&dev_) {
    EXPECT_TRUE(store_.Format(100, nullptr, nullptr).ok());
  }

  FlashDevice dev_;
  methods::OpuStore store_;
};

TEST_F(BufferPoolTest, DeviceWearSurfacesStoreWear) {
  BufferPool pool(&store_, 4);
  // Dirty every page repeatedly so the small chip must erase.
  for (int round = 0; round < 60; ++round) {
    for (PageId pid = 0; pid < 100; ++pid) {
      ASSERT_TRUE(pool.WithPage(pid, [round](MutBytes page) {
                        page[0] = static_cast<uint8_t>(round);
                        return Status::OK();
                      })
                      .ok());
    }
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  const flash::WearSummary wear = pool.device_wear();
  EXPECT_EQ(wear.total, dev_.stats().total.erases);
  EXPECT_GT(wear.total, 0u);
  EXPECT_GE(wear.max, wear.min);
  EXPECT_GT(wear.mean, 0.0);
}

TEST_F(BufferPoolTest, HitAvoidsDeviceRead) {
  BufferPool pool(&store_, 4);
  auto noop = [](ConstBytes) { return Status::OK(); };
  ASSERT_TRUE(pool.ReadPage(5, noop).ok());
  const uint64_t reads = dev_.stats().total.reads;
  ASSERT_TRUE(pool.ReadPage(5, noop).ok());
  EXPECT_EQ(dev_.stats().total.reads, reads);  // served from the frame
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST_F(BufferPoolTest, WithPageWritesThroughOnEvict) {
  BufferPool pool(&store_, 2);
  ASSERT_TRUE(pool.WithPage(1, [](MutBytes page) {
                    page[0] = 0xAB;
                    return Status::OK();
                  })
                  .ok());
  // Fill the pool with other pages to force eviction of page 1.
  auto noop = [](ConstBytes) { return Status::OK(); };
  ASSERT_TRUE(pool.ReadPage(2, noop).ok());
  ASSERT_TRUE(pool.ReadPage(3, noop).ok());
  EXPECT_GE(pool.stats().dirty_writebacks, 1u);
  // The store has the new content.
  ByteBuffer page(dev_.geometry().data_size);
  ASSERT_TRUE(store_.ReadPage(1, page).ok());
  EXPECT_EQ(page[0], 0xAB);
}

TEST_F(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  BufferPool pool(&store_, 2);
  auto noop = [](ConstBytes) { return Status::OK(); };
  ASSERT_TRUE(pool.ReadPage(1, noop).ok());
  ASSERT_TRUE(pool.ReadPage(2, noop).ok());
  ASSERT_TRUE(pool.ReadPage(1, noop).ok());  // 1 becomes most recent
  ASSERT_TRUE(pool.ReadPage(3, noop).ok());  // must evict 2
  const uint64_t reads = dev_.stats().total.reads;
  ASSERT_TRUE(pool.ReadPage(1, noop).ok());  // still cached
  EXPECT_EQ(dev_.stats().total.reads, reads);
  ASSERT_TRUE(pool.ReadPage(2, noop).ok());  // was evicted, re-read
  EXPECT_EQ(dev_.stats().total.reads, reads + 1);
}

TEST_F(BufferPoolTest, FailedMutationRollsBack) {
  BufferPool pool(&store_, 4);
  Status st = pool.WithPage(7, [](MutBytes page) {
    page[0] = 0x55;
    return Status::Aborted("changed my mind");
  });
  EXPECT_FALSE(st.ok());
  ASSERT_TRUE(pool
                  .ReadPage(7,
                            [](ConstBytes page) {
                              EXPECT_EQ(page[0], 0x00);
                              return Status::OK();
                            })
                  .ok());
  // Not dirty: flushing does nothing.
  const uint64_t writes = dev_.stats().total.writes;
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dev_.stats().total.writes, writes);
}

TEST_F(BufferPoolTest, OnUpdateReportsMinimalRange) {
  // Use IPL (tightly coupled) to observe the update logs the pool reports.
  FlashDevice dev(FlashConfig::Small(16));
  auto spec = methods::ParseMethodSpec("IPL(18KB)");
  ASSERT_TRUE(spec.ok());
  auto store = methods::CreateStore(&dev, *spec);
  ASSERT_TRUE(store->Format(60, nullptr, nullptr).ok());
  BufferPool pool(store.get(), 4);
  ASSERT_TRUE(pool.WithPage(3, [](MutBytes page) {
                    page[100] = 1;
                    page[101] = 2;
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  // Verify through a fresh read that the log round-tripped.
  ByteBuffer page(dev.geometry().data_size);
  ASSERT_TRUE(store->ReadPage(3, page).ok());
  EXPECT_EQ(page[100], 1);
  EXPECT_EQ(page[101], 2);
}

// Records every update log the pool reports.
class LogRecordingStore : public methods::OpuStore {
 public:
  using OpuStore::OpuStore;
  Status OnUpdate(PageId pid, ConstBytes page_after,
                  const UpdateLog& log) override {
    (void)pid;
    (void)page_after;
    logs.push_back(log);
    return Status::OK();
  }
  std::vector<UpdateLog> logs;
};

TEST(BufferPoolUpdateLogTest, RangeIsExactAtPageEdgesAndWordBoundaries) {
  FlashDevice dev(FlashConfig::Small(8));
  LogRecordingStore store(&dev);
  ASSERT_TRUE(store.Format(10, nullptr, nullptr).ok());
  BufferPool pool(&store, 4);
  const uint32_t n = dev.geometry().data_size;
  struct Edit {
    uint32_t first, last;  // inclusive byte range rewritten
  };
  // The first byte, the last byte, a range across the 8-byte boundary at
  // 16, a range whose interior bytes keep their value, and the whole page.
  const Edit edits[] = {
      {0, 0}, {n - 1, n - 1}, {15, 16}, {5, 27}, {0, n - 1}};
  uint8_t value = 1;
  for (const Edit& e : edits) {
    store.logs.clear();
    ASSERT_TRUE(pool.WithPage(2, [&](MutBytes page) {
                      page[e.first] = value;
                      page[e.last] = value;
                      return Status::OK();
                    })
                    .ok());
    ASSERT_EQ(store.logs.size(), 1u);
    EXPECT_EQ(store.logs[0].offset, e.first);
    EXPECT_EQ(store.logs[0].data.size(), e.last - e.first + 1);
    EXPECT_EQ(store.logs[0].data.front(), value);
    EXPECT_EQ(store.logs[0].data.back(), value);
    ++value;
  }
}

TEST_F(BufferPoolTest, NoopMutationDoesNotDirty) {
  BufferPool pool(&store_, 4);
  ASSERT_TRUE(
      pool.WithPage(9, [](MutBytes) { return Status::OK(); }).ok());
  const uint64_t writes = dev_.stats().total.writes;
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dev_.stats().total.writes, writes);
}

TEST_F(BufferPoolTest, FlushPageTargetsOnePage) {
  BufferPool pool(&store_, 4);
  ASSERT_TRUE(pool.WithPage(1, [](MutBytes p) {
                    p[0] = 1;
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(pool.WithPage(2, [](MutBytes p) {
                    p[0] = 2;
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(pool.FlushPage(1).ok());
  ByteBuffer page(dev_.geometry().data_size);
  ASSERT_TRUE(store_.ReadPage(1, page).ok());
  EXPECT_EQ(page[0], 1);
  ASSERT_TRUE(store_.ReadPage(2, page).ok());
  EXPECT_EQ(page[0], 0);  // page 2 still only dirty in the pool
}

TEST_F(BufferPoolTest, ResetDropsCleanState) {
  BufferPool pool(&store_, 4);
  ASSERT_TRUE(pool.WithPage(1, [](MutBytes p) {
                    p[0] = 9;
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(pool.Reset().ok());
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 1u);
  // Dirty data was flushed by Reset.
  ByteBuffer page(dev_.geometry().data_size);
  ASSERT_TRUE(store_.ReadPage(1, page).ok());
  EXPECT_EQ(page[0], 9);
}

TEST_F(BufferPoolTest, SingleFramePoolStillWorks) {
  BufferPool pool(&store_, 1);
  for (PageId pid = 0; pid < 10; ++pid) {
    ASSERT_TRUE(pool.WithPage(pid, [&](MutBytes p) {
                      p[0] = static_cast<uint8_t>(pid);
                      return Status::OK();
                    })
                    .ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ByteBuffer page(dev_.geometry().data_size);
  for (PageId pid = 0; pid < 10; ++pid) {
    ASSERT_TRUE(store_.ReadPage(pid, page).ok());
    EXPECT_EQ(page[0], pid);
  }
}

// OPU store whose OnUpdate fails on demand (a tightly-coupled method that
// rejects an update log, e.g. for lack of log space).
class FailingUpdateStore : public methods::OpuStore {
 public:
  using OpuStore::OpuStore;
  Status OnUpdate(PageId, ConstBytes, const UpdateLog&) override {
    return fail ? Status::IOError("update log rejected") : Status::OK();
  }
  bool fail = false;
};

TEST(BufferPoolOnUpdateTest, FailedOnUpdateLeavesNoTrace) {
  FlashDevice dev(FlashConfig::Small(8));
  FailingUpdateStore store(&dev);
  ASSERT_TRUE(store.Format(20, nullptr, nullptr).ok());
  BufferPool pool(&store, 4);
  // Page 4 carries an earlier accepted change; page 3 is clean.
  ASSERT_TRUE(pool.WithPage(4, [](MutBytes p) {
                    p[0] = 1;
                    return Status::OK();
                  })
                  .ok());
  auto noop = [](ConstBytes) { return Status::OK(); };
  ASSERT_TRUE(pool.ReadPage(3, noop).ok());
  store.fail = true;
  for (PageId pid : {3u, 4u}) {
    EXPECT_TRUE(pool.WithPage(pid, [](MutBytes p) {
                      p[0] = 0x77;
                      p[9] = 0x77;
                      return Status::OK();
                    })
                    .code() == StatusCode::kIOError);
  }
  store.fail = false;
  const BufferPoolStats before = pool.stats();
  // Hits serve the pre-images: the rejected bytes are gone from the frames.
  for (PageId pid : {3u, 4u}) {
    ASSERT_TRUE(pool.ReadPage(pid, [&](ConstBytes p) {
                      EXPECT_EQ(p[0], pid == 4 ? 1 : 0) << pid;
                      EXPECT_EQ(p[9], 0) << pid;
                      return Status::OK();
                    })
                    .ok());
  }
  EXPECT_EQ(pool.stats().hits, before.hits + 2);
  EXPECT_EQ(pool.stats().misses, before.misses);
  // Only page 4's earlier change is dirty; page 3 stays clean.
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.stats().dirty_writebacks, before.dirty_writebacks + 1);
  ByteBuffer page(dev.geometry().data_size);
  ASSERT_TRUE(store.ReadPage(4, page).ok());
  EXPECT_EQ(page[0], 1);
  EXPECT_EQ(page[9], 0);
}

TEST_F(BufferPoolTest, NestedFailureRollsBackOnlyItsDepth) {
  BufferPool pool(&store_, 4);
  // Outer and inner WithPage on different pages, then on the same page: the
  // inner failure restores the inner pre-image, which keeps the outer
  // call's uncommitted edit.
  ASSERT_TRUE(pool.WithPage(1, [&](MutBytes outer) {
                    outer[0] = 0x11;
                    EXPECT_TRUE(pool.WithPage(2, [](MutBytes inner) {
                                      inner[0] = 0x22;
                                      return Status::Aborted("inner");
                                    })
                                    .code() == StatusCode::kAborted);
                    EXPECT_TRUE(pool.WithPage(1, [](MutBytes inner) {
                                      inner[1] = 0x33;
                                      return Status::Aborted("inner");
                                    })
                                    .code() == StatusCode::kAborted);
                    EXPECT_EQ(outer[0], 0x11);
                    EXPECT_EQ(outer[1], 0x00);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(pool.ReadPage(1, [](ConstBytes p) {
                    EXPECT_EQ(p[0], 0x11);
                    EXPECT_EQ(p[1], 0x00);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(pool.ReadPage(2, [](ConstBytes p) {
                    EXPECT_EQ(p[0], 0x00);
                    return Status::OK();
                  })
                  .ok());
  // Only page 1 is dirty.
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.stats().dirty_writebacks, 1u);
}

TEST_F(BufferPoolTest, AllFramesPinnedIsBusy) {
  BufferPool pool(&store_, 2);
  Status innermost;
  ASSERT_TRUE(pool.ReadPage(1, [&](ConstBytes) {
                    return pool.ReadPage(2, [&](ConstBytes) {
                      innermost =
                          pool.ReadPage(3, [](ConstBytes) {
                            return Status::OK();
                          });
                      return Status::OK();
                    });
                  })
                  .ok());
  EXPECT_TRUE(innermost.IsBusy());
  // Once unpinned, the same miss succeeds by evicting the LRU page. Recency
  // is unpin order, so the inner page 2, released first, goes.
  auto noop = [](ConstBytes) { return Status::OK(); };
  ASSERT_TRUE(pool.ReadPage(3, noop).ok());
  EXPECT_EQ(pool.stats().evictions, 1u);
  const uint64_t misses = pool.stats().misses;
  ASSERT_TRUE(pool.ReadPage(1, noop).ok());
  EXPECT_EQ(pool.stats().misses, misses);  // 1 stayed resident
}

TEST_F(BufferPoolTest, FailedReadReturnsItsFrame) {
  BufferPool pool(&store_, 1);
  auto noop = [](ConstBytes) { return Status::OK(); };
  ASSERT_TRUE(pool.ReadPage(3, noop).ok());
  // Out of range: the store read fails after page 3 was evicted for it.
  EXPECT_FALSE(pool.ReadPage(1000, noop).ok());
  EXPECT_FALSE(pool.ReadPage(1001, noop).ok());
  // The only frame went back to the pool: these still succeed.
  ASSERT_TRUE(pool.ReadPage(4, noop).ok());
  ASSERT_TRUE(pool.ReadPage(3, noop).ok());
  EXPECT_EQ(pool.stats().misses, 5u);
  EXPECT_EQ(pool.stats().evictions, 2u);  // 3 for 1000, then 4 for 3
}

TEST_F(BufferPoolTest, FlushAllWithPinnedDirtyFrameWritesNothing) {
  BufferPool pool(&store_, 4);
  for (PageId pid : {2u, 1u}) {
    ASSERT_TRUE(pool.WithPage(pid, [](MutBytes p) {
                      p[0] = 0x5A;
                      return Status::OK();
                    })
                    .ok());
  }
  const uint64_t writes = dev_.stats().total.writes;
  ASSERT_TRUE(pool.ReadPage(1, [&](ConstBytes) {
                    EXPECT_TRUE(pool.FlushAll().IsBusy());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(dev_.stats().total.writes, writes);  // not even page 2
  EXPECT_EQ(pool.stats().dirty_writebacks, 0u);
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.stats().dirty_writebacks, 2u);
}

// Reference model of the pool's replacement bookkeeping, kept with a
// std::list LRU: resident pages, pins, dirty bits, counters and the victim
// sequence.
class PoolModel {
 public:
  explicit PoolModel(uint32_t frames) : frames_(frames) {}

  // Mirrors BufferPool::Pin; returns false for Busy.
  bool Pin(PageId pid) {
    auto it = pins_.find(pid);
    if (it != pins_.end()) {
      stats.hits++;
      if (it->second++ == 0) lru_.remove(pid);
      return true;
    }
    stats.misses++;
    if (pins_.size() == frames_) {
      if (lru_.empty()) return false;
      const PageId victim = lru_.front();
      lru_.pop_front();
      if (dirty_.erase(victim) != 0) stats.dirty_writebacks++;
      pins_.erase(victim);
      stats.evictions++;
      victims.push_back(victim);
    }
    pins_[pid] = 1;
    return true;
  }
  void Unpin(PageId pid) {
    if (--pins_[pid] == 0) lru_.push_back(pid);
  }
  void MarkDirty(PageId pid) { dirty_.insert(pid); }
  void FlushPage(PageId pid) {
    if (dirty_.erase(pid) != 0) stats.dirty_writebacks++;
  }
  bool FlushAll() {
    for (PageId pid : dirty_) {
      if (pins_[pid] != 0) return false;
    }
    stats.dirty_writebacks += dirty_.size();
    dirty_.clear();
    return true;
  }
  bool Reset() {
    for (const auto& [pid, pins] : pins_) {
      if (pins != 0) return false;
    }
    FlushAll();
    pins_.clear();
    lru_.clear();
    return true;
  }

  BufferPoolStats stats;
  std::vector<PageId> victims;

 private:
  uint32_t frames_;
  std::map<PageId, uint32_t> pins_;  ///< Resident pages.
  std::set<PageId> dirty_;
  std::list<PageId> lru_;  ///< Unpinned resident pages; front = least recent.
};

// Drives one random operation against both the pool and the model, nesting
// further operations inside page callbacks up to `depth` levels.
void RandomOp(BufferPool* pool, PoolModel* model, Random* rng,
              uint32_t depth) {
  const PageId pid = static_cast<PageId>(rng->Uniform(12));
  const uint64_t kind = rng->Uniform(100);
  const bool nest = depth > 0 && rng->Uniform(3) == 0;
  if (kind < 45) {
    const bool ok = model->Pin(pid);
    Status st = pool->ReadPage(pid, [&](ConstBytes) {
      if (nest) RandomOp(pool, model, rng, depth - 1);
      return Status::OK();
    });
    ASSERT_EQ(st.ok(), ok) << st.ToString();
    if (!ok) {
      ASSERT_TRUE(st.IsBusy());
      return;
    }
    model->Unpin(pid);
  } else if (kind < 85) {
    // Change the page, leave it unchanged, or fail after changing it.
    const uint64_t outcome = rng->Uniform(4);
    const bool ok = model->Pin(pid);
    Status st = pool->WithPage(pid, [&](MutBytes p) {
      if (outcome != 1) p[pid % 64]++;
      if (nest) RandomOp(pool, model, rng, depth - 1);
      return outcome == 3 ? Status::Aborted("rolled back") : Status::OK();
    });
    if (!ok) {
      ASSERT_TRUE(st.IsBusy()) << st.ToString();
      return;
    }
    ASSERT_EQ(st.ok(), outcome != 3) << st.ToString();
    if (outcome == 0 || outcome == 2) model->MarkDirty(pid);
    model->Unpin(pid);
  } else if (kind < 93) {
    model->FlushPage(pid);
    ASSERT_TRUE(pool->FlushPage(pid).ok());
  } else if (kind < 98) {
    const bool ok = model->FlushAll();
    Status st = pool->FlushAll();
    ASSERT_EQ(st.ok(), ok) << st.ToString();
    if (!ok) {
      ASSERT_TRUE(st.IsBusy());
    }
  } else {
    const bool ok = model->Reset();
    Status st = pool->Reset();
    ASSERT_EQ(st.ok(), ok) << st.ToString();
    if (!ok) {
      ASSERT_TRUE(st.IsBusy());
    }
  }
}

TEST_F(BufferPoolTest, EvictionOrderMatchesListLruModel) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (uint32_t frames : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " frames "
                                      << frames);
      obs::TraceShard lane(/*shard=*/0, /*capacity=*/1 << 20);
      dev_.set_trace(&lane);
      BufferPool pool(&store_, frames);
      PoolModel model(frames);
      Random rng(seed);
      for (int op = 0; op < 1500; ++op) {
        RandomOp(&pool, &model, &rng, /*depth=*/3);
        if (HasFatalFailure()) break;
      }
      dev_.set_trace(nullptr);
      ASSERT_EQ(lane.dropped(), 0u);
      std::vector<PageId> victims;
      for (const obs::TraceEvent& e : lane.Snapshot()) {
        if (e.cat == obs::TraceCat::kBufEvict) {
          victims.push_back(static_cast<PageId>(e.a0));
        }
      }
      EXPECT_GT(victims.size(), 100u);
      EXPECT_EQ(victims, model.victims);
      EXPECT_EQ(pool.stats().hits, model.stats.hits);
      EXPECT_EQ(pool.stats().misses, model.stats.misses);
      EXPECT_EQ(pool.stats().evictions, model.stats.evictions);
      EXPECT_EQ(pool.stats().dirty_writebacks, model.stats.dirty_writebacks);
      ASSERT_TRUE(pool.Reset().ok());
    }
  }
}

TEST_F(BufferPoolTest, HitsDoNotAllocate) {
  BufferPool pool(&store_, 4);
  // A capture set larger than std::function's small-buffer slot.
  uint64_t a = 1, b = 2, c = 3, d = 4, sum = 0;
  auto read = [&](ConstBytes p) {
    sum += p[0] + a + b + c + d;
    return Status::OK();
  };
  auto write = [&](MutBytes p) {
    p[8] = static_cast<uint8_t>(p[8] + a);
    return pool.WithPage(2, [&](MutBytes q) {
      q[16] = static_cast<uint8_t>(q[16] + b + c + d);
      return Status::OK();
    });
  };
  // Warm up: both pages resident, per-depth scratch grown.
  ASSERT_TRUE(pool.ReadPage(1, read).ok());
  ASSERT_TRUE(pool.WithPage(1, write).ok());
  g_allocs.store(0);
  g_count_allocs.store(true);
  const Status read_st = pool.ReadPage(1, read);
  const uint64_t read_allocs = g_allocs.exchange(0);
  const Status write_st = pool.WithPage(1, write);
  const uint64_t write_allocs = g_allocs.load();
  g_count_allocs.store(false);
  ASSERT_TRUE(read_st.ok());
  ASSERT_TRUE(write_st.ok());
  EXPECT_EQ(read_allocs, 0u);
  EXPECT_EQ(write_allocs, 0u);
  EXPECT_EQ(pool.stats().misses, 2u);  // the counted calls were all hits
}

}  // namespace
}  // namespace flashdb::storage
