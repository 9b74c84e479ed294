// Unit tests for the DBMS buffer pool.

#include <gtest/gtest.h>

#include <vector>

#include "methods/method_factory.h"
#include "methods/opu_store.h"
#include "storage/buffer_pool.h"

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

}  // namespace
}  // namespace flashdb::storage
