// Single-worker pipelined mode: a threaded UpdateDriver::Execute against a
// flat (non-sharded) PageStore, depth-K on a one-worker executor. The claim
// under test is the one exp1-exp7 rely on for --pipeline: threaded
// execution is bit-identical to sequential -- same on-flash state, same
// virtual clock, same recorded latency distribution -- for any depth,
// because the single stream's windows run in schedule order no matter how
// deep the submission pipeline is.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "flash/flash_device.h"
#include "ftl/shard_executor.h"
#include "methods/method_factory.h"
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

/// Fails the test (with `label` context) unless the two chips are
/// bit-identical: geometry, virtual clock, page payloads, and spares.
void ExpectDevicesIdentical(FlashDevice* a, FlashDevice* b,
                            const std::string& label) {
  ASSERT_EQ(a->geometry().total_pages(), b->geometry().total_pages()) << label;
  EXPECT_EQ(a->clock().now_us(), b->clock().now_us()) << label;
  for (flash::PhysAddr addr = 0; addr < a->geometry().total_pages(); ++addr) {
    ASSERT_TRUE(BytesEqual(a->RawData(addr), b->RawData(addr)))
        << label << ": data area differs at physical page " << addr;
    ASSERT_TRUE(BytesEqual(a->RawSpare(addr), b->RawSpare(addr)))
        << label << ": spare area differs at physical page " << addr;
  }
}

struct SequentialRun {
  FlashDevice dev;
  std::unique_ptr<PageStore> store;
  std::unique_ptr<UpdateDriver> driver;
  RunStats stats;

  SequentialRun(const char* method, const WorkloadParams& params,
                uint64_t num_ops)
      : dev(FlashConfig::Small(8)) {
    store = MakeStore(&dev, method);
    driver = std::make_unique<UpdateDriver>(store.get(), params);
    EXPECT_TRUE(driver->LoadDatabase(150).ok());
    EXPECT_TRUE(driver->Warmup(1.0, 400).ok());
    EXPECT_TRUE(driver->Run(num_ops, &stats).ok());
  }
};

// Identically prepared store executing the same operations via the pipelined
// path: its own MakeSchedule at the same RNG point draws exactly the ops the
// sequential driver's Run() executed. Window size 1 makes the scheduled path
// equal the sequential op sequence exactly (every read from flash, per-op
// flush).
struct PipelinedRun {
  FlashDevice dev;
  std::unique_ptr<PageStore> store;
  std::unique_ptr<UpdateDriver> driver;
  RunStats stats;

  PipelinedRun(const char* method, const WorkloadParams& params,
               uint64_t num_ops, uint32_t depth)
      : dev(FlashConfig::Small(8)) {
    store = MakeStore(&dev, method);
    driver = std::make_unique<UpdateDriver>(store.get(), params);
    EXPECT_TRUE(driver->LoadDatabase(150).ok());
    EXPECT_TRUE(driver->Warmup(1.0, 400).ok());
    const Schedule schedule = driver->MakeSchedule(num_ops);
    ftl::ShardExecutor executor(1);
    EXPECT_TRUE(driver->Execute(schedule, 1, depth, &executor, &stats).ok());
  }
};

class SingleWorkerPipelineTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(SingleWorkerPipelineTest, DepthKMatchesSequentialBitForBit) {
  WorkloadParams params;
  params.record_latency = true;
  params.pct_update_ops = 75.0;
  const uint64_t kOps = 300;
  SequentialRun seq(GetParam(), params, kOps);

  for (uint32_t depth : {1u, 4u, 16u}) {
    PipelinedRun pipe(GetParam(), params, kOps, depth);
    ExpectDevicesIdentical(&seq.dev, &pipe.dev,
                           std::string(GetParam()) + " depth " +
                               std::to_string(depth));
    EXPECT_EQ(seq.stats.elapsed_vt_us, pipe.stats.elapsed_vt_us);
    EXPECT_EQ(seq.stats.erases, pipe.stats.erases);
    EXPECT_EQ(seq.stats.read_step.total_us(), pipe.stats.read_step.total_us());
    EXPECT_EQ(seq.stats.write_step.total_us(),
              pipe.stats.write_step.total_us());
    EXPECT_EQ(seq.stats.gc.total_us(), pipe.stats.gc.total_us());
    // The histograms match sample-for-sample, not just in summary -- and
    // the single stream preserves schedule order, so even the worst-op
    // tie-break agrees with the sequential loop.
    EXPECT_TRUE(seq.stats.latency == pipe.stats.latency);
    EXPECT_EQ(seq.stats.latency.count(), kOps);
    EXPECT_TRUE(seq.stats.worst_op == pipe.stats.worst_op);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, SingleWorkerPipelineTest,
                         ::testing::Values("OPU", "IPL(18KB)", "PDL(256B)"));

TEST(SingleWorkerPipelineTest, DepthsAgreeWithEachOther) {
  WorkloadParams params;
  params.record_latency = true;
  SequentialRun seq("PDL(256B)", params, 200);
  PipelinedRun d1("PDL(256B)", params, 200, 1);
  PipelinedRun d8("PDL(256B)", params, 200, 8);
  ExpectDevicesIdentical(&d1.dev, &d8.dev, "depth 1 vs depth 8");
  EXPECT_TRUE(d1.stats.latency == d8.stats.latency);
  EXPECT_TRUE(d1.stats.worst_op == d8.stats.worst_op);
}

}  // namespace
}  // namespace flashdb::workload
