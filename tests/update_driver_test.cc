// Unit tests for the synthetic workload driver (Section 5.1 semantics).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "methods/method_factory.h"
#include "obs/metrics_import.h"
#include "obs/metrics_registry.h"
#include "pdl/pdl_store.h"
#include "workload/update_driver.h"

namespace flashdb::workload {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

std::unique_ptr<PageStore> MakeStore(FlashDevice* dev, const char* name) {
  auto spec = methods::ParseMethodSpec(name);
  EXPECT_TRUE(spec.ok());
  return methods::CreateStore(dev, *spec);
}

TEST(UpdateDriverTest, VerifiedUpdateStream) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "PDL(256B)");
  WorkloadParams params;
  params.verify = true;
  params.pct_changed_by_one_op = 2.0;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(200).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(500, &stats).ok());
  EXPECT_EQ(stats.operations, 500u);
  EXPECT_EQ(stats.update_ops, 500u);  // pct_update_ops defaults to 100
}

TEST(UpdateDriverTest, ReadOnlyMixDoesNoWrites) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "OPU");
  WorkloadParams params;
  params.pct_update_ops = 0.0;
  params.verify = true;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(200).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(300, &stats).ok());
  EXPECT_EQ(stats.update_ops, 0u);
  EXPECT_EQ(stats.write_step.total_ops(), 0u);
  EXPECT_EQ(stats.read_step.reads, 300u);  // one read per op for OPU
}

TEST(UpdateDriverTest, MixedRatioApproximatelyHolds) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "OPU");
  WorkloadParams params;
  params.pct_update_ops = 30.0;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(2000, &stats).ok());
  EXPECT_NEAR(static_cast<double>(stats.update_ops) / 2000.0, 0.30, 0.05);
}

TEST(UpdateDriverTest, NUpdatesTillWriteAppliesMultipleCommands) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "IPL(18KB)");
  WorkloadParams params;
  params.updates_till_write = 5;
  params.verify = true;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(100, &stats).ok());
  // The tightly-coupled IPL saw every individual update command: with
  // %changed=2 (41 B logs) and N=5 the logs overflow one 128 B buffer,
  // so > 1 slot write per operation on average.
  EXPECT_GT(static_cast<double>(stats.write_step.writes) /
                static_cast<double>(stats.operations),
            1.0);
}

TEST(UpdateDriverTest, WarmupReachesEraseTarget) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "OPU");
  WorkloadParams params;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(dev.geometry().total_pages() / 2).ok());
  ASSERT_TRUE(driver.Warmup(1.0, 1000000).ok());
  EXPECT_GE(dev.stats().total.erases, dev.geometry().num_blocks);
}

TEST(UpdateDriverTest, WarmupHonorsOpCap) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "PDL(256B)");
  WorkloadParams params;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  ASSERT_TRUE(driver.Warmup(1000.0, 50).ok());  // cap dominates
  // 50 ops cannot trigger 8000 erases; the cap must have stopped it.
  EXPECT_LT(dev.stats().total.erases, 8000u);
}

TEST(UpdateDriverTest, StatsAccumulateAcrossRuns) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "OPU");
  WorkloadParams params;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(100, &stats).ok());
  ASSERT_TRUE(driver.Run(100, &stats).ok());
  EXPECT_EQ(stats.operations, 200u);
  EXPECT_EQ(stats.read_step.reads, 200u);
}

TEST(UpdateDriverTest, PerOpMetricsAreConsistent) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "OPU");
  WorkloadParams params;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(200, &stats).ok());
  // OPU: 1 read per op (110us), 2 writes per op (2020us) + occasional GC.
  EXPECT_NEAR(stats.read_us_per_op(), 110.0, 1.0);
  EXPECT_GE(stats.write_us_per_op(), 2020.0 - 1.0);
  EXPECT_NEAR(stats.overall_us_per_op(),
              stats.read_us_per_op() + stats.write_us_per_op(), 0.001);
}

TEST(UpdateDriverTest, PctChangedControlsDifferentialSize) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "PDL(2048B)");
  auto* pdl = static_cast<pdl::PdlStore*>(store.get());
  WorkloadParams params;
  params.pct_changed_by_one_op = 10.0;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  RunStats stats;
  ASSERT_TRUE(driver.Run(50, &stats).ok());
  // ~10% of 2048 = 205 payload bytes per diff, plus headers.
  const double avg_diff =
      static_cast<double>(pdl->counters().diff_bytes_written) /
      static_cast<double>(pdl->counters().diffs_buffered +
                          pdl->counters().new_base_pages);
  EXPECT_GT(avg_diff, 180.0);
  EXPECT_LT(avg_diff, 280.0);
}

TEST(UpdateDriverScheduleTest, MakeScheduleMatchesRunDistributions) {
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "OPU");
  WorkloadParams params;
  params.pct_update_ops = 40.0;
  params.updates_till_write = 3;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(100).ok());
  Schedule schedule = driver.MakeSchedule(2000);
  ASSERT_EQ(schedule.size(), 2000u);
  uint64_t updates = 0;
  for (const PlannedOp& op : schedule) {
    EXPECT_LT(op.pid, 100u);
    if (op.is_update) {
      ++updates;
      EXPECT_EQ(op.updates.size(), 3u);
      for (const PlannedUpdate& u : op.updates) {
        EXPECT_FALSE(u.data.empty());
        EXPECT_LE(u.offset + u.data.size(), dev.geometry().data_size);
      }
    } else {
      EXPECT_TRUE(op.updates.empty());
    }
  }
  EXPECT_NEAR(static_cast<double>(updates) / 2000.0, 0.40, 0.05);
}

TEST(UpdateDriverExecuteTest, VerifiedInlineStreamWithReadAfterWrite) {
  // Small database + large windows force same-pid repeats inside a window,
  // exercising the queued-image read path under verification.
  FlashDevice dev(FlashConfig::Small(8));
  auto store = MakeStore(&dev, "PDL(256B)");
  WorkloadParams params;
  params.verify = true;
  params.pct_update_ops = 80.0;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(20).ok());
  Schedule schedule = driver.MakeSchedule(600);
  RunStats stats;
  ASSERT_TRUE(driver.Execute(schedule, 32, 0, nullptr, &stats).ok());
  EXPECT_EQ(stats.operations, 600u);
  EXPECT_GT(stats.update_ops, 0u);
}

TEST(UpdateDriverExecuteTest, BatchSizeOneMatchesUnbatchedFlashState) {
  // Two identical stores, same seed: Run() vs MakeSchedule + inline
  // Execute(batch 1) must produce the same device clock (the schedules are
  // draw-for-draw identical and windows of one op interleave reads/writes
  // identically).
  WorkloadParams params;
  params.pct_update_ops = 100.0;
  FlashDevice dev_a(FlashConfig::Small(8));
  auto store_a = MakeStore(&dev_a, "PDL(256B)");
  UpdateDriver driver_a(store_a.get(), params);
  ASSERT_TRUE(driver_a.LoadDatabase(100).ok());
  RunStats stats_a;
  ASSERT_TRUE(driver_a.Run(400, &stats_a).ok());

  FlashDevice dev_b(FlashConfig::Small(8));
  auto store_b = MakeStore(&dev_b, "PDL(256B)");
  UpdateDriver driver_b(store_b.get(), params);
  ASSERT_TRUE(driver_b.LoadDatabase(100).ok());
  Schedule schedule = driver_b.MakeSchedule(400);
  RunStats stats_b;
  ASSERT_TRUE(driver_b.Execute(schedule, 1, 0, nullptr, &stats_b).ok());

  EXPECT_EQ(dev_a.clock().now_us(), dev_b.clock().now_us());
  EXPECT_EQ(stats_a.read_step.total_us(), stats_b.read_step.total_us());
  EXPECT_EQ(stats_a.write_step.total_us(), stats_b.write_step.total_us());
  EXPECT_EQ(stats_a.gc.total_us(), stats_b.gc.total_us());
}

/// Runs one 800-op schedule over a fresh 4-shard PDL store, inline or
/// threaded, for the inline-vs-threaded comparisons below.
struct ShardedExecution {
  std::unique_ptr<ftl::ShardedStore> store;
  std::unique_ptr<UpdateDriver> driver;
  RunStats stats;

  ShardedExecution(const WorkloadParams& params, uint32_t batch,
                   uint32_t depth, ftl::ShardExecutor* executor) {
    auto spec = methods::ParseMethodSpec("PDL(256B)");
    EXPECT_TRUE(spec.ok());
    store = methods::CreateShardedStore(FlashConfig::Small(8), 4, *spec);
    driver = std::make_unique<UpdateDriver>(store.get(), params);
    EXPECT_TRUE(driver->LoadDatabase(150).ok());
    const Schedule schedule = driver->MakeSchedule(800);
    EXPECT_TRUE(
        driver->Execute(schedule, batch, depth, executor, &stats).ok());
  }
};

/// Every chip's clock, the stats' device time, and every page's contents
/// agree between the two executions (checked in that order: the content
/// reads advance the clocks).
void ExpectSameExecution(const ShardedExecution& a, const ShardedExecution& b,
                         const std::string& label) {
  for (uint32_t s = 0; s < a.store->num_shards(); ++s) {
    EXPECT_EQ(a.store->shard_device(s)->clock().now_us(),
              b.store->shard_device(s)->clock().now_us())
        << label << " shard " << s;
  }
  EXPECT_EQ(a.stats.operations, b.stats.operations) << label;
  EXPECT_EQ(a.stats.read_step.total_us(), b.stats.read_step.total_us())
      << label;
  EXPECT_EQ(a.stats.write_step.total_us(), b.stats.write_step.total_us())
      << label;
  EXPECT_EQ(a.stats.gc.total_us(), b.stats.gc.total_us()) << label;
  EXPECT_EQ(a.stats.erases, b.stats.erases) << label;
  ByteBuffer x(a.store->device()->geometry().data_size);
  ByteBuffer y(x.size());
  for (PageId pid = 0; pid < 150; ++pid) {
    ASSERT_TRUE(a.store->ReadPage(pid, x).ok());
    ASSERT_TRUE(b.store->ReadPage(pid, y).ok());
    EXPECT_TRUE(BytesEqual(x, y)) << label << " pid " << pid;
  }
}

TEST(UpdateDriverExecuteTest, ThreadedMatchesInlinePerShardClocks) {
  // Uniform pids, every window queued up front (depth = ring capacity).
  WorkloadParams params;
  params.verify = true;
  params.pct_update_ops = 75.0;
  const ShardedExecution inline_run(params, 8, 0, nullptr);
  ftl::ShardExecutor executor(4);
  const ShardedExecution threaded(params, 8, 1024, &executor);
  EXPECT_EQ(threaded.stats.operations, 800u);
  ExpectSameExecution(inline_run, threaded, "uniform");
}

TEST(UpdateDriverExecuteTest, CreditGatedMatchesInlineUnderSkew) {
  // Continuous credit-gated submission must leave every chip's device state
  // exactly where the inline execution leaves it -- for shallow and deep
  // in-flight windows alike, on a skewed pid distribution.
  WorkloadParams params;
  params.verify = true;
  params.pct_update_ops = 75.0;
  params.hot_shard_pct = 50.0;  // shard 0 is the deliberate hotspot
  for (uint32_t depth : {1u, 2u, 8u}) {
    // A fresh reference each time: the content comparison reads pages,
    // which advances the clocks.
    const ShardedExecution inline_run(params, 8, 0, nullptr);
    // Ring capacity == depth: credits, not blocking pushes, are the
    // backpressure.
    ftl::ShardExecutor executor(4, depth);
    const ShardedExecution threaded(params, 8, depth, &executor);
    ExpectSameExecution(inline_run, threaded,
                        "depth " + std::to_string(depth));
  }
}

TEST(UpdateDriverExecuteTest, ThreadedRunsAreReproducibleAndDrained) {
  // Two identical threaded runs leave identical chips and identical
  // executor counters: Execute returns only after every worker has bumped
  // its completed counter, so nothing is left in flight and the metrics
  // import is final.
  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  constexpr uint32_t kShards = 3;
  uint64_t clocks[2][kShards];
  std::string executor_metrics[2];
  for (int round = 0; round < 2; ++round) {
    auto store =
        methods::CreateShardedStore(FlashConfig::Small(8), kShards, *spec);
    WorkloadParams params;
    params.hot_shard_pct = 50.0;
    UpdateDriver driver(store.get(), params);
    ASSERT_TRUE(driver.LoadDatabase(120).ok());
    Schedule schedule = driver.MakeSchedule(500);
    ftl::ShardExecutor executor(kShards);
    RunStats stats;
    ASSERT_TRUE(driver.Execute(schedule, 4, 2, &executor, &stats).ok());
    for (uint32_t s = 0; s < kShards; ++s) {
      clocks[round][s] = store->shard_device(s)->clock().now_us();
      EXPECT_EQ(executor.in_flight(s), 0u) << "round " << round;
      EXPECT_GT(executor.completed_count(s), 0u) << "round " << round;
    }
    obs::MetricsRegistry metrics;
    obs::ImportExecutorStats(&metrics, "executor", executor);
    executor_metrics[round] = metrics.ToJson();
  }
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(clocks[0][s], clocks[1][s]) << "shard " << s;
  }
  EXPECT_EQ(executor_metrics[0], executor_metrics[1]);
}

TEST(UpdateDriverExecuteTest, HotShardSkewLandsOnShardZero) {
  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  constexpr uint32_t kShards = 4;
  auto store =
      methods::CreateShardedStore(FlashConfig::Small(8), kShards, *spec);
  WorkloadParams params;
  params.hot_shard_pct = 60.0;
  UpdateDriver driver(store.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(160).ok());
  Schedule schedule = driver.MakeSchedule(4000);
  uint64_t on_hot = 0;
  for (const PlannedOp& op : schedule) {
    ASSERT_LT(op.pid, 160u);
    if (store->shard_of(op.pid) == 0) ++on_hot;
  }
  // 60% pinned + 1/4 of the uniform remainder = 70% expected on shard 0.
  EXPECT_NEAR(static_cast<double>(on_hot) / 4000.0, 0.70, 0.04);

  // Executing the skewed schedule must make the hotspot observable through
  // the per-shard progress counters: shard 0's clock and write count pull
  // ahead of every sibling, and the clock spread is exactly shard_lag_us.
  RunStats stats;
  ASSERT_TRUE(driver.Execute(schedule, 8, 0, nullptr, &stats).ok());
  std::vector<ftl::ShardedStore::ShardProgress> progress =
      store->shard_progress();
  ASSERT_EQ(progress.size(), kShards);
  uint64_t min_clock = progress[0].clock_us;
  uint64_t max_clock = progress[0].clock_us;
  for (uint32_t s = 1; s < kShards; ++s) {
    EXPECT_GT(progress[0].clock_us, progress[s].clock_us) << "shard " << s;
    EXPECT_GT(progress[0].writes, progress[s].writes) << "shard " << s;
    min_clock = std::min(min_clock, progress[s].clock_us);
    max_clock = std::max(max_clock, progress[s].clock_us);
  }
  EXPECT_EQ(store->shard_lag_us(), max_clock - min_clock);
}

TEST(UpdateDriverExecuteTest, ZeroSkewKeepsUniformDrawIdentical) {
  // hot_shard_pct = 0 must not change the RNG stream: schedules drawn with
  // and without the field present are bit-identical.
  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto store_a =
      methods::CreateShardedStore(FlashConfig::Small(8), 4, *spec);
  auto store_b =
      methods::CreateShardedStore(FlashConfig::Small(8), 4, *spec);
  WorkloadParams params;  // hot_shard_pct defaults to 0
  UpdateDriver driver_a(store_a.get(), params);
  UpdateDriver driver_b(store_b.get(), params);
  ASSERT_TRUE(driver_a.LoadDatabase(120).ok());
  ASSERT_TRUE(driver_b.LoadDatabase(120).ok());
  Schedule sa = driver_a.MakeSchedule(300);
  Schedule sb = driver_b.MakeSchedule(300);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].pid, sb[i].pid) << "op " << i;
  }
}

TEST(UpdateDriverExecuteTest, RejectsBadArguments) {
  auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto sharded =
      methods::CreateShardedStore(FlashConfig::Small(8), 4, *spec);
  WorkloadParams params;
  UpdateDriver driver(sharded.get(), params);
  ASSERT_TRUE(driver.LoadDatabase(50).ok());
  Schedule schedule = driver.MakeSchedule(10);
  ftl::ShardExecutor executor(4);
  RunStats stats;
  EXPECT_TRUE(driver.Execute(schedule, 0, 2, &executor, &stats)
                  .IsInvalidArgument());  // batch 0, threaded
  EXPECT_TRUE(driver.Execute(schedule, 0, 0, nullptr, &stats)
                  .IsInvalidArgument());  // batch 0, inline
  EXPECT_TRUE(driver.Execute(schedule, 4, 0, &executor, &stats)
                  .IsInvalidArgument());  // depth 0 with an executor
  ftl::ShardExecutor short_executor(2);
  EXPECT_TRUE(driver.Execute(schedule, 4, 2, &short_executor, &stats)
                  .IsInvalidArgument());  // 2 workers < 4 shards
  EXPECT_EQ(stats.operations, 0u);  // nothing ran
  // Inline ignores depth.
  EXPECT_TRUE(driver.Execute(schedule, 4, 0, nullptr, &stats).ok());

  // A flat store runs threaded too (one stream on worker 0), and inline.
  FlashDevice dev(FlashConfig::Small(8));
  auto flat = MakeStore(&dev, "OPU");
  UpdateDriver flat_driver(flat.get(), params);
  ASSERT_TRUE(flat_driver.LoadDatabase(50).ok());
  Schedule s2 = flat_driver.MakeSchedule(10);
  ftl::ShardExecutor one_worker(1);
  EXPECT_TRUE(flat_driver.Execute(s2, 4, 2, &one_worker, &stats).ok());
  EXPECT_TRUE(flat_driver.Execute(s2, 4, 0, nullptr, &stats).ok());
}

}  // namespace
}  // namespace flashdb::workload
