// Unit tests for the NAND flash emulator: bit semantics, erase, sequential
// programming, partial-program budgets, timing/statistics, fault injection.

#include <gtest/gtest.h>

#include "common/random.h"
#include "flash/fault_injector.h"
#include "flash/flash_device.h"

namespace flashdb::flash {
namespace {

FlashConfig TinyConfig() {
  FlashConfig cfg = FlashConfig::Small(4);  // 4 blocks x 64 pages
  return cfg;
}

class FlashDeviceTest : public ::testing::Test {
 protected:
  FlashDeviceTest() : dev_(TinyConfig()) {}

  ByteBuffer Page(uint8_t fill) const {
    return ByteBuffer(dev_.geometry().data_size, fill);
  }
  ByteBuffer Spare(uint8_t fill) const {
    return ByteBuffer(dev_.geometry().spare_size, fill);
  }

  FlashDevice dev_;
};

TEST_F(FlashDeviceTest, FreshChipReadsAllOnes) {
  ByteBuffer data = Page(0);
  ByteBuffer spare = Spare(0);
  ASSERT_TRUE(dev_.ReadPage(0, data, spare).ok());
  for (uint8_t b : data) EXPECT_EQ(b, 0xFF);
  for (uint8_t b : spare) EXPECT_EQ(b, 0xFF);
}

TEST_F(FlashDeviceTest, ProgramThenReadBack) {
  ByteBuffer data = Page(0xAB);
  ByteBuffer spare = Spare(0x5A);
  ASSERT_TRUE(dev_.ProgramPage(3, data, spare).ok());
  ByteBuffer rdata = Page(0);
  ByteBuffer rspare = Spare(0);
  ASSERT_TRUE(dev_.ReadPage(3, rdata, rspare).ok());
  EXPECT_TRUE(BytesEqual(rdata, data));
  EXPECT_TRUE(BytesEqual(rspare, spare));
}

TEST_F(FlashDeviceTest, ProgramCannotFlipZeroToOne) {
  ASSERT_TRUE(dev_.ProgramPage(0, Page(0x0F), {}).ok());
  // 0xF0 would need 0->1 transitions on the low nibble bits already cleared.
  Status s = dev_.ProgramPage(0, Page(0xFF), {});
  EXPECT_TRUE(s.IsFlashConstraint());
}

TEST_F(FlashDeviceTest, RepeatedProgramAndsBits) {
  ASSERT_TRUE(dev_.ProgramPage(0, Page(0xF3), {}).ok());
  ASSERT_TRUE(dev_.ProgramPage(0, Page(0x33), {}).ok());  // only clears bits
  ByteBuffer rdata = Page(0);
  ASSERT_TRUE(dev_.ReadPage(0, rdata, {}).ok());
  for (uint8_t b : rdata) EXPECT_EQ(b, 0x33);
}

TEST_F(FlashDeviceTest, EraseResetsBlockToOnes) {
  ASSERT_TRUE(dev_.ProgramPage(0, Page(0x00), {}).ok());
  ASSERT_TRUE(dev_.EraseBlock(0).ok());
  ByteBuffer rdata = Page(0);
  ASSERT_TRUE(dev_.ReadPage(0, rdata, {}).ok());
  for (uint8_t b : rdata) EXPECT_EQ(b, 0xFF);
  EXPECT_TRUE(dev_.IsErased(0));
  EXPECT_EQ(dev_.stats().block_erase_counts[0], 1u);
}

TEST_F(FlashDeviceTest, SequentialProgrammingEnforced) {
  ASSERT_TRUE(dev_.ProgramPage(5, Page(0xAA), {}).ok());
  // First-programming page 3 after page 5 violates NAND order.
  Status s = dev_.ProgramPage(3, Page(0xAA), {});
  EXPECT_TRUE(s.IsFlashConstraint());
  // But re-programming page 5 (partial program) remains legal.
  EXPECT_TRUE(dev_.ProgramPage(5, Page(0xAA), {}).ok());
  // And later pages are fine.
  EXPECT_TRUE(dev_.ProgramPage(6, Page(0xAA), {}).ok());
}

TEST_F(FlashDeviceTest, SequentialRuleIsPerBlock) {
  ASSERT_TRUE(dev_.ProgramPage(5, Page(0xAA), {}).ok());
  const PhysAddr other_block = dev_.AddrOf(1, 0);
  EXPECT_TRUE(dev_.ProgramPage(other_block, Page(0xAA), {}).ok());
}

TEST_F(FlashDeviceTest, SpareProgramBudget) {
  ByteBuffer spare = Spare(0xFF);
  for (uint32_t i = 0; i < dev_.config().max_spare_programs; ++i) {
    spare[i] = 0x00;  // clear a different byte each time
    ASSERT_TRUE(dev_.ProgramSpare(7, spare).ok()) << i;
  }
  Status s = dev_.ProgramSpare(7, spare);
  EXPECT_TRUE(s.IsFlashConstraint());
  // An erase restores the budget.
  ASSERT_TRUE(dev_.EraseBlock(0).ok());
  EXPECT_TRUE(dev_.ProgramSpare(dev_.AddrOf(0, 7), Spare(0x0F)).ok());
}

TEST_F(FlashDeviceTest, DataProgramBudget) {
  FlashConfig cfg = TinyConfig();
  cfg.max_data_programs = 2;
  FlashDevice dev(cfg);
  ByteBuffer data(dev.geometry().data_size, 0xFF);
  data[0] = 0xFE;
  ASSERT_TRUE(dev.ProgramPage(0, data, {}).ok());
  data[1] = 0xFE;
  ASSERT_TRUE(dev.PartialProgramPage(0, data).ok());
  EXPECT_TRUE(dev.PartialProgramPage(0, data).IsFlashConstraint());
  EXPECT_EQ(dev.DataProgramCount(0), 2u);
}

TEST_F(FlashDeviceTest, PartialProgramKeepsOneBitsUntouched) {
  // Program slot-style: first image fills bytes 0..3, second fills 4..7 with
  // 0xFF ("keep") elsewhere; both regions must coexist afterwards.
  ByteBuffer img1 = Page(0xFF);
  for (int i = 0; i < 4; ++i) img1[i] = 0x11;
  ASSERT_TRUE(dev_.ProgramPage(0, img1, {}).ok());
  ByteBuffer img2 = Page(0xFF);
  for (int i = 4; i < 8; ++i) img2[i] = 0x22;
  ASSERT_TRUE(dev_.PartialProgramPage(0, img2).ok());
  ByteBuffer rdata = Page(0);
  ASSERT_TRUE(dev_.ReadPage(0, rdata, {}).ok());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rdata[i], 0x11);
  for (int i = 4; i < 8; ++i) EXPECT_EQ(rdata[i], 0x22);
  EXPECT_EQ(rdata[9], 0xFF);
}

TEST_F(FlashDeviceTest, TimingChargesVirtualClock) {
  const auto& t = dev_.config().timing;
  ASSERT_TRUE(dev_.ProgramPage(0, Page(0xAA), {}).ok());
  ByteBuffer rdata = Page(0);
  ASSERT_TRUE(dev_.ReadPage(0, rdata, {}).ok());
  ASSERT_TRUE(dev_.EraseBlock(0).ok());
  EXPECT_EQ(dev_.clock().now_us(),
            static_cast<uint64_t>(t.read_us) + t.write_us + t.erase_us);
  EXPECT_EQ(dev_.stats().total.reads, 1u);
  EXPECT_EQ(dev_.stats().total.writes, 1u);
  EXPECT_EQ(dev_.stats().total.erases, 1u);
}

TEST_F(FlashDeviceTest, CategoryAccounting) {
  {
    CategoryScope scope(&dev_, OpCategory::kReadStep);
    ByteBuffer rdata = Page(0);
    ASSERT_TRUE(dev_.ReadPage(0, rdata, {}).ok());
  }
  {
    CategoryScope scope(&dev_, OpCategory::kWriteStep);
    ASSERT_TRUE(dev_.ProgramPage(0, Page(0xAA), {}).ok());
    {
      CategoryScope inner(&dev_, OpCategory::kGc);
      ASSERT_TRUE(dev_.EraseBlock(1).ok());
    }
    // Category restored after the inner scope.
    ASSERT_TRUE(dev_.ProgramPage(1, Page(0xAA), {}).ok());
  }
  const auto& cats = dev_.stats().by_category;
  EXPECT_EQ(cats[static_cast<int>(OpCategory::kReadStep)].reads, 1u);
  EXPECT_EQ(cats[static_cast<int>(OpCategory::kWriteStep)].writes, 2u);
  EXPECT_EQ(cats[static_cast<int>(OpCategory::kGc)].erases, 1u);
  EXPECT_EQ(cats[static_cast<int>(OpCategory::kDefault)].total_ops(), 0u);
}

TEST_F(FlashDeviceTest, OutOfRangeAddressesRejected) {
  const uint32_t total = dev_.geometry().total_pages();
  ByteBuffer rdata = Page(0);
  EXPECT_FALSE(dev_.ReadPage(total, rdata, {}).ok());
  EXPECT_FALSE(dev_.ProgramPage(total, Page(0), {}).ok());
  EXPECT_FALSE(dev_.EraseBlock(dev_.geometry().num_blocks).ok());
}

TEST_F(FlashDeviceTest, BufferSizeValidation) {
  ByteBuffer small(16);
  EXPECT_FALSE(dev_.ReadPage(0, small, {}).ok());
  EXPECT_FALSE(dev_.ProgramPage(0, small, {}).ok());
  EXPECT_FALSE(dev_.ProgramPage(0, {}, {}).ok());
}

TEST_F(FlashDeviceTest, ResetAccountingKeepsContents) {
  ASSERT_TRUE(dev_.ProgramPage(0, Page(0x12), {}).ok());
  dev_.ResetAccounting();
  EXPECT_EQ(dev_.clock().now_us(), 0u);
  EXPECT_EQ(dev_.stats().total.writes, 0u);
  ByteBuffer rdata = Page(0);
  ASSERT_TRUE(dev_.ReadPage(0, rdata, {}).ok());
  for (uint8_t b : rdata) EXPECT_EQ(b, 0x12);
}

TEST_F(FlashDeviceTest, AddressArithmetic) {
  const auto& g = dev_.geometry();
  EXPECT_EQ(dev_.BlockOf(0), 0u);
  EXPECT_EQ(dev_.BlockOf(g.pages_per_block), 1u);
  EXPECT_EQ(dev_.PageInBlock(g.pages_per_block + 3), 3u);
  EXPECT_EQ(dev_.AddrOf(2, 5), 2 * g.pages_per_block + 5);
}

TEST(FaultInjectorTest, CutBeforeApplySuppressesProgram) {
  FlashDevice dev(TinyConfig());
  CountdownFaultInjector fi(1, /*cut_after_apply=*/false);
  dev.set_fault_injector(&fi);
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  ASSERT_TRUE(dev.ProgramPage(0, page, {}).ok());  // survives op #1
  EXPECT_THROW(dev.ProgramPage(1, page, {}), PowerLossError);
  dev.set_fault_injector(nullptr);
  EXPECT_TRUE(dev.IsErased(1));  // the op was never applied
}

TEST(FaultInjectorTest, CutAfterApplyKeepsProgram) {
  FlashDevice dev(TinyConfig());
  CountdownFaultInjector fi(0, /*cut_after_apply=*/true);
  dev.set_fault_injector(&fi);
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  EXPECT_THROW(dev.ProgramPage(0, page, {}), PowerLossError);
  dev.set_fault_injector(nullptr);
  EXPECT_FALSE(dev.IsErased(0));
  ByteBuffer rdata(dev.geometry().data_size);
  ASSERT_TRUE(dev.ReadPage(0, rdata, {}).ok());
  EXPECT_TRUE(BytesEqual(rdata, page));
}

TEST(FaultInjectorTest, ReadsDoNotConsumeCountdown) {
  FlashDevice dev(TinyConfig());
  CountdownFaultInjector fi(1, /*cut_after_apply=*/false);
  dev.set_fault_injector(&fi);
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  ByteBuffer rdata(dev.geometry().data_size);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(dev.ReadPage(0, rdata, {}).ok());
  }
  ASSERT_TRUE(dev.ProgramPage(0, page, {}).ok());
  EXPECT_THROW(dev.EraseBlock(0), PowerLossError);
}


// --- Die/plane virtual-time model -----------------------------------------

FlashConfig PlaneConfig(uint32_t dies, uint32_t planes_per_die) {
  FlashConfig cfg = FlashConfig::Small(8);
  cfg.geometry.dies_per_chip = dies;
  cfg.geometry.planes_per_die = planes_per_die;
  return cfg;
}

TEST(FlashPlaneTest, DistinctPlaneProgramsOverlap) {
  FlashDevice dev(PlaneConfig(1, 2));
  const uint32_t twrite = dev.config().timing.write_us;
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  // Blocks 0 and 1 interleave onto planes 0 and 1: the two programs occupy
  // different planes and the chip clock advances by one Twrite, not two.
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(1, 0), page, {}).ok());
  EXPECT_EQ(dev.clock().now_us(), twrite);
  EXPECT_EQ(dev.stats().plane_stall_us(), 0u);
  EXPECT_EQ(dev.stats().plane[0].busy_us, twrite);
  EXPECT_EQ(dev.stats().plane[1].busy_us, twrite);
}

TEST(FlashPlaneTest, SamePlaneProgramsSerializeAndStall) {
  FlashDevice dev(PlaneConfig(1, 2));
  const uint32_t twrite = dev.config().timing.write_us;
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  // Blocks 0 and 2 both live on plane 0: the second program queues behind
  // the first while plane 1 sits idle, so it stalls for one Twrite.
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(2, 0), page, {}).ok());
  EXPECT_EQ(dev.clock().now_us(), 2ull * twrite);
  EXPECT_EQ(dev.stats().plane[0].stall_us, twrite);
  EXPECT_EQ(dev.stats().plane[1].busy_us, 0u);
}

TEST(FlashPlaneTest, SinglePlaneGeometryMatchesSerialClock) {
  // The 1 x 1 identity geometry must reproduce the historical serial clock
  // exactly: every operation's latency adds up, nothing stalls.
  FlashDevice dev(PlaneConfig(1, 1));
  const auto& t = dev.config().timing;
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  ByteBuffer rdata(dev.geometry().data_size);
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(1, 0), page, {}).ok());
  ASSERT_TRUE(dev.ReadPage(dev.AddrOf(0, 0), rdata, {}).ok());
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  EXPECT_EQ(dev.clock().now_us(),
            2ull * t.write_us + t.read_us + t.erase_us);
  EXPECT_EQ(dev.stats().plane_stall_us(), 0u);
}

TEST(FlashPlaneTest, MultiPlaneEraseChargesOneCommand) {
  FlashDevice dev(PlaneConfig(2, 2));
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  // Blocks 0 and 1: die 0, planes 0 and 1 (4-plane chip, round-robin).
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(1, 0), page, {}).ok());
  const uint64_t before = dev.clock().now_us();
  ASSERT_TRUE(dev.EraseBlocksMultiPlane({0, 1}).ok());
  EXPECT_EQ(dev.clock().now_us(),
            before + dev.config().timing.effective_multiplane_erase_us());
  // Both blocks really erased, and wear accounting counts two block erases.
  EXPECT_TRUE(dev.IsErased(dev.AddrOf(0, 0)));
  EXPECT_TRUE(dev.IsErased(dev.AddrOf(1, 0)));
  EXPECT_EQ(dev.stats().total.erases, 2u);
}

TEST(FlashPlaneTest, MultiPlaneEraseRejectsBadGroups) {
  FlashDevice dev(PlaneConfig(2, 2));
  // Blocks 0 (die 0) and 2 (die 1) span dies.
  EXPECT_TRUE(dev.EraseBlocksMultiPlane({0, 2}).IsInvalidArgument());
  // Blocks 0 and 4 share plane 0.
  EXPECT_TRUE(dev.EraseBlocksMultiPlane({0, 4}).IsInvalidArgument());
  // More blocks than planes on a die.
  EXPECT_TRUE(dev.EraseBlocksMultiPlane({0, 1, 4}).IsInvalidArgument());
  EXPECT_TRUE(dev.EraseBlocksMultiPlane({}).IsInvalidArgument());
}

TEST(FlashPlaneTest, MultiPlaneEraseIsAllOrNothingOnGrownBad) {
  FlashConfig cfg = PlaneConfig(1, 2);
  FlashDevice dev(cfg);
  EraseFailureInjector fi(cfg.geometry.pages_per_block);
  dev.set_fault_injector(&fi);
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(1, 0), page, {}).ok());
  fi.Arm();
  Status s = dev.EraseBlocksMultiPlane({0, 1});
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  // Nothing was erased: the FTL retries per block to isolate the bad one.
  EXPECT_FALSE(dev.IsErased(dev.AddrOf(0, 0)));
  EXPECT_FALSE(dev.IsErased(dev.AddrOf(1, 0)));
  ASSERT_EQ(fi.failed_blocks().size(), 1u);
  EXPECT_EQ(fi.failed_blocks()[0], 0u);
}

TEST(FlashPlaneTest, CacheProgramExtendsChainAtReducedCost) {
  FlashConfig cfg = PlaneConfig(1, 2);
  cfg.timing.cache_write_us = 300;
  FlashDevice dev(cfg);
  const uint32_t twrite = cfg.timing.write_us;
  ByteBuffer page(dev.geometry().data_size, 0xAA);
  // First program of a block pays full Twrite; the next page of the same
  // block directly extends the plane's program chain at the cache latency.
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 1), page, {}).ok());
  EXPECT_EQ(dev.clock().now_us(), twrite + 300ull);
  // A program on another plane does not break plane 0's chain...
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(1, 0), page, {}).ok());
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 2), page, {}).ok());
  EXPECT_EQ(dev.stats().plane[0].busy_us, twrite + 2ull * 300);
  // ...but an erase on the plane does.
  ASSERT_TRUE(dev.EraseBlock(2).ok());
  const uint64_t busy0 = dev.stats().plane[0].busy_us;
  ASSERT_TRUE(dev.ProgramPage(dev.AddrOf(0, 3), page, {}).ok());
  EXPECT_EQ(dev.stats().plane[0].busy_us, busy0 + twrite);
}

TEST(FlashPlaneTest, MarkBadBlockOobSetsAndReportsMark) {
  FlashDevice dev(PlaneConfig(1, 2));
  EXPECT_FALSE(dev.HasBadBlockOob(3));
  ASSERT_TRUE(dev.MarkBadBlockOob(3).ok());
  EXPECT_TRUE(dev.HasBadBlockOob(3));
  // Marking survives even when the page-0 spare already spent its partial
  // program budget (a worn-out block must still be markable).
  ByteBuffer spare(dev.geometry().spare_size, 0xFF);
  for (uint32_t i = 0; i < dev.config().max_spare_programs; ++i) {
    spare[0] = static_cast<uint8_t>(~(1u << i));
    ASSERT_TRUE(dev.ProgramSpare(dev.AddrOf(5, 0), spare).ok());
  }
  ASSERT_TRUE(dev.MarkBadBlockOob(5).ok());
  EXPECT_TRUE(dev.HasBadBlockOob(5));
}

// --- Cell programming: strict 0->1 check and AND ---------------------------

// The paper's 2048 + 64 page, and one whose data and spare sizes are not
// multiples of 8, so the word loop's byte tail and misaligned page starts
// are exercised too.
class ProgramCellsTest : public ::testing::TestWithParam<FlashGeometry> {
 protected:
  ProgramCellsTest() : dev_(MakeConfig(GetParam())) {}

  static FlashConfig MakeConfig(const FlashGeometry& g) {
    FlashConfig cfg = FlashConfig::Small(2);
    cfg.geometry.data_size = g.data_size;
    cfg.geometry.spare_size = g.spare_size;
    return cfg;
  }

  // Random cells with bit 0 cleared in every byte, so raising bit 0 of any
  // single byte is a 0->1 transition while every other byte stays legal.
  ByteBuffer ClearedBit0(size_t n, uint64_t seed) const {
    ByteBuffer b(n);
    Random rng(seed);
    rng.Fill(b);
    for (uint8_t& x : b) x &= 0xFE;
    return b;
  }

  ByteBuffer ReadData() {
    ByteBuffer out(dev_.geometry().data_size);
    EXPECT_TRUE(dev_.ReadPage(kAddr, out, {}).ok());
    return out;
  }
  ByteBuffer ReadSpare() {
    ByteBuffer out(dev_.geometry().spare_size);
    EXPECT_TRUE(dev_.ReadPage(kAddr, {}, out).ok());
    return out;
  }

  // Page 1, so with the odd geometry the cells start off word alignment.
  static constexpr PhysAddr kAddr = 1;
  FlashDevice dev_;
};

TEST_P(ProgramCellsTest, RaisedBitRejectedAtEveryDataByte) {
  const ByteBuffer cells = ClearedBit0(dev_.geometry().data_size, 21);
  ASSERT_TRUE(dev_.ProgramPage(kAddr, cells, {}).ok());
  for (size_t pos = 0; pos < cells.size(); ++pos) {
    ByteBuffer img = cells;
    img[pos] |= 0x01;
    const Status s = dev_.ProgramPage(kAddr, img, {});
    ASSERT_TRUE(s.IsFlashConstraint()) << "byte " << pos;
    ASSERT_EQ(s.message(),
              "program attempts 0->1 transition in data area of page 1");
    ASSERT_TRUE(BytesEqual(ReadData(), cells)) << "byte " << pos;
  }
  EXPECT_EQ(dev_.DataProgramCount(kAddr), 1u);
}

TEST_P(ProgramCellsTest, RaisedBitRejectedAtEverySpareByte) {
  const ByteBuffer cells = ClearedBit0(dev_.geometry().spare_size, 22);
  ASSERT_TRUE(dev_.ProgramPage(kAddr, {}, cells).ok());
  for (size_t pos = 0; pos < cells.size(); ++pos) {
    ByteBuffer img = cells;
    img[pos] |= 0x01;
    const Status s = dev_.ProgramPage(kAddr, {}, img);
    ASSERT_TRUE(s.IsFlashConstraint()) << "byte " << pos;
    ASSERT_EQ(s.message(),
              "program attempts 0->1 transition in spare area of page 1");
    ASSERT_TRUE(BytesEqual(ReadSpare(), cells)) << "byte " << pos;
  }
}

TEST_P(ProgramCellsTest, LegalProgramsAndBytewise) {
  const FlashGeometry& g = dev_.geometry();
  ByteBuffer data = ClearedBit0(g.data_size, 23);
  ByteBuffer spare = ClearedBit0(g.spare_size, 24);
  ASSERT_TRUE(dev_.ProgramPage(kAddr, data, spare).ok());
  // A strict program of a bit subset, then a non-strict partial program of
  // arbitrary bytes: the cells must equal the byte-wise AND of the images.
  ByteBuffer mask_data(g.data_size), mask_spare(g.spare_size);
  Random rng(25);
  rng.Fill(mask_data);
  rng.Fill(mask_spare);
  ByteBuffer subset_data = data, subset_spare = spare;
  for (size_t i = 0; i < data.size(); ++i) subset_data[i] &= mask_data[i];
  for (size_t i = 0; i < spare.size(); ++i) subset_spare[i] &= mask_spare[i];
  ASSERT_TRUE(dev_.ProgramPage(kAddr, subset_data, subset_spare).ok());
  ByteBuffer partial(g.data_size);
  rng.Fill(partial);
  ASSERT_TRUE(dev_.PartialProgramPage(kAddr, partial).ok());
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(data[i] & mask_data[i] & partial[i]);
  }
  for (size_t i = 0; i < spare.size(); ++i) spare[i] &= mask_spare[i];
  EXPECT_TRUE(BytesEqual(ReadData(), data));
  EXPECT_TRUE(BytesEqual(ReadSpare(), spare));
}

FlashGeometry PageShape(uint32_t data_size, uint32_t spare_size) {
  FlashGeometry g;
  g.data_size = data_size;
  g.spare_size = spare_size;
  return g;
}

std::string ShapeName(const ::testing::TestParamInfo<FlashGeometry>& info) {
  return "data" + std::to_string(info.param.data_size) + "_spare" +
         std::to_string(info.param.spare_size);
}

INSTANTIATE_TEST_SUITE_P(PageShapes, ProgramCellsTest,
                         ::testing::Values(PageShape(2048, 64),
                                           PageShape(2044, 61)),
                         ShapeName);

TEST(FlashConfigTest, PaperDefaultsMatchTable1) {
  FlashConfig cfg = FlashConfig::Paper();
  EXPECT_EQ(cfg.geometry.num_blocks, 32768u);
  EXPECT_EQ(cfg.geometry.pages_per_block, 64u);
  EXPECT_EQ(cfg.geometry.data_size, 2048u);
  EXPECT_EQ(cfg.geometry.spare_size, 64u);
  EXPECT_EQ(cfg.timing.read_us, 110u);
  EXPECT_EQ(cfg.timing.write_us, 1010u);
  EXPECT_EQ(cfg.timing.erase_us, 1500u);
  // 2 GB data capacity.
  EXPECT_EQ(cfg.geometry.data_capacity_bytes(), 4294967296ULL);
}

}  // namespace
}  // namespace flashdb::flash
