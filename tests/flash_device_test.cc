// Unit tests for the NAND flash emulator: bit semantics, erase, sequential
// programming, partial-program budgets, timing/statistics, fault injection,
// and lazy erase against an eagerly erased reference model.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <string>

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

// --- Lazy erase: the device against an eagerly erased reference -----------

// The physical model spelled out the obvious way: every cell starts at 0xFF,
// an erase fills the block with 0xFF, a program ANDs the image in. The
// device keeps the erased state in its program counts instead; after every
// operation the two must be indistinguishable through the public surface.
class EagerChip {
 public:
  explicit EagerChip(const FlashConfig& cfg)
      : cfg_(cfg),
        data_(cfg.geometry.total_pages(),
              ByteBuffer(cfg.geometry.data_size, 0xFF)),
        spare_(cfg.geometry.total_pages(),
               ByteBuffer(cfg.geometry.spare_size, 0xFF)),
        data_programs_(cfg.geometry.total_pages(), 0),
        spare_programs_(cfg.geometry.total_pages(), 0),
        frontier_(cfg.geometry.num_blocks, -1) {}

  StatusCode Program(PhysAddr addr, ConstBytes data, ConstBytes spare,
                     bool strict) {
    const uint32_t ppb = cfg_.geometry.pages_per_block;
    if (!data.empty() && data_programs_[addr] >= cfg_.max_data_programs) {
      return StatusCode::kFlashConstraint;
    }
    if (!spare.empty() && spare_programs_[addr] >= cfg_.max_spare_programs) {
      return StatusCode::kFlashConstraint;
    }
    const bool first = data_programs_[addr] == 0 && spare_programs_[addr] == 0;
    const int32_t page = static_cast<int32_t>(addr % ppb);
    if (first && page < frontier_[addr / ppb]) {
      return StatusCode::kFlashConstraint;
    }
    if (!data.empty()) {
      if (!AndInto(&data_[addr], data, strict)) {
        return StatusCode::kFlashConstraint;
      }
      data_programs_[addr]++;
    }
    if (!spare.empty()) {
      if (!AndInto(&spare_[addr], spare, strict)) {
        return StatusCode::kFlashConstraint;
      }
      spare_programs_[addr]++;
    }
    if (first && page > frontier_[addr / ppb]) frontier_[addr / ppb] = page;
    return StatusCode::kOk;
  }

  void Erase(uint32_t block) {
    const uint32_t ppb = cfg_.geometry.pages_per_block;
    for (PhysAddr a = block * ppb; a < (block + 1) * ppb; ++a) {
      std::fill(data_[a].begin(), data_[a].end(), 0xFF);
      std::fill(spare_[a].begin(), spare_[a].end(), 0xFF);
      data_programs_[a] = 0;
      spare_programs_[a] = 0;
    }
    frontier_[block] = -1;
  }

  void MarkBad(uint32_t block) {
    const PhysAddr a = block * cfg_.geometry.pages_per_block;
    spare_[a][kBadBlockOobOffset] = 0x00;
    if (spare_programs_[a] < 0xFF) spare_programs_[a]++;
  }

  const ByteBuffer& data(PhysAddr a) const { return data_[a]; }
  const ByteBuffer& spare(PhysAddr a) const { return spare_[a]; }
  uint32_t data_programs(PhysAddr a) const { return data_programs_[a]; }
  uint32_t spare_programs(PhysAddr a) const { return spare_programs_[a]; }

 private:
  bool AndInto(ByteBuffer* cells, ConstBytes img, bool strict) const {
    if (strict && cfg_.strict_bit_semantics) {
      for (size_t i = 0; i < img.size(); ++i) {
        if (img[i] & ~(*cells)[i]) return false;
      }
    }
    for (size_t i = 0; i < img.size(); ++i) (*cells)[i] &= img[i];
    return true;
  }

  FlashConfig cfg_;
  std::vector<ByteBuffer> data_;
  std::vector<ByteBuffer> spare_;
  std::vector<uint32_t> data_programs_;
  std::vector<uint32_t> spare_programs_;
  std::vector<int32_t> frontier_;
};

class LazyEraseTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Ops touch pages 0..kPagesUsed-1 of each block, so blocks are re-erased
  // and re-programmed often and the comparison after every op stays cheap.
  static constexpr uint32_t kPagesUsed = 8;

  LazyEraseTest() : dev_(TinyConfig()), model_(TinyConfig()) {}

  // Mostly 0xFF with a few random bytes: a page survives several ANDs
  // before it is all zeros.
  ByteBuffer SparseImage(size_t n, Random* rng) const {
    ByteBuffer b(n, 0xFF);
    for (uint8_t& x : b) {
      if (rng->Uniform(8) == 0) x = static_cast<uint8_t>(rng->Next());
    }
    return b;
  }

  // Usually a legal strict image for the area's current (model) contents,
  // sometimes an arbitrary one, which stale-cell bugs turn into a verdict
  // mismatch.
  ByteBuffer StrictImage(const ByteBuffer& cells, Random* rng) const {
    ByteBuffer b = SparseImage(cells.size(), rng);
    if (rng->Uniform(4) != 0) {
      for (size_t i = 0; i < b.size(); ++i) b[i] &= cells[i];
    }
    return b;
  }

  void ExpectSameState(const std::string& where) {
    const FlashGeometry& g = dev_.geometry();
    ByteBuffer data(g.data_size), spare(g.spare_size);
    for (uint32_t block = 0; block < g.num_blocks; ++block) {
      for (uint32_t p = 0; p < kPagesUsed; ++p) {
        const PhysAddr a = dev_.AddrOf(block, p);
        SCOPED_TRACE(where + ", page " + std::to_string(a));
        ASSERT_EQ(dev_.DataProgramCount(a), model_.data_programs(a));
        ASSERT_EQ(dev_.SpareProgramCount(a), model_.spare_programs(a));
        ASSERT_EQ(dev_.IsErased(a), model_.data_programs(a) == 0 &&
                                        model_.spare_programs(a) == 0);
        ASSERT_TRUE(BytesEqual(dev_.RawData(a), model_.data(a)));
        ASSERT_TRUE(BytesEqual(dev_.RawSpare(a), model_.spare(a)));
        ASSERT_TRUE(dev_.ReadPage(a, data, spare).ok());
        ASSERT_TRUE(BytesEqual(data, model_.data(a)));
        ASSERT_TRUE(BytesEqual(spare, model_.spare(a)));
      }
    }
  }

  FlashDevice dev_;
  EagerChip model_;
};

TEST_P(LazyEraseTest, MatchesEagerModelOverRandomOps) {
  const FlashGeometry& g = dev_.geometry();
  Random rng(GetParam());
  int programs_ok = 0, programs_rejected = 0, erases = 0;
  for (int op = 0; op < 1500; ++op) {
    const uint32_t block = static_cast<uint32_t>(rng.Uniform(g.num_blocks));
    const PhysAddr a =
        dev_.AddrOf(block, static_cast<uint32_t>(rng.Uniform(kPagesUsed)));
    std::string what;
    Status got;
    StatusCode want = StatusCode::kOk;
    switch (rng.Uniform(12)) {
      case 0:
      case 1:
      case 2: {  // full program, both areas
        what = "ProgramPage";
        const ByteBuffer d = StrictImage(model_.data(a), &rng);
        const ByteBuffer s = StrictImage(model_.spare(a), &rng);
        got = dev_.ProgramPage(a, d, s);
        want = model_.Program(a, d, s, /*strict=*/true);
        break;
      }
      case 3: {  // data-only strict program
        what = "ProgramPage(data)";
        const ByteBuffer d = StrictImage(model_.data(a), &rng);
        got = dev_.ProgramPage(a, d, {});
        want = model_.Program(a, d, {}, /*strict=*/true);
        break;
      }
      case 4:
      case 5: {
        what = "PartialProgramPage";
        const ByteBuffer d = SparseImage(g.data_size, &rng);
        got = dev_.PartialProgramPage(a, d);
        want = model_.Program(a, d, {}, /*strict=*/false);
        break;
      }
      case 6:
      case 7: {
        what = "ProgramSpare";
        const ByteBuffer s = SparseImage(g.spare_size, &rng);
        got = dev_.ProgramSpare(a, s);
        want = model_.Program(a, {}, s, /*strict=*/false);
        break;
      }
      case 8:
      case 9:
      case 10:
        what = "EraseBlock";
        got = dev_.EraseBlock(block);
        model_.Erase(block);
        ++erases;
        break;
      default:
        what = "MarkBadBlockOob";
        got = dev_.MarkBadBlockOob(block);
        model_.MarkBad(block);
        break;
    }
    const std::string where = "op " + std::to_string(op) + " " + what +
                              " at page " + std::to_string(a);
    ASSERT_EQ(got.code(), want) << where << ": " << got.ToString();
    if (what != "EraseBlock" && what != "MarkBadBlockOob") {
      (got.ok() ? programs_ok : programs_rejected)++;
    }
    ExpectSameState(where);
    if (HasFatalFailure()) return;
  }
  // The mix must exercise both verdicts and plenty of re-erased pages.
  EXPECT_GT(programs_ok, 300);
  EXPECT_GT(programs_rejected, 50);
  EXPECT_GT(erases, 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyEraseTest, ::testing::Values(1, 2, 3, 4));

TEST(LazyEraseCaseTest, ProgramAfterEraseIgnoresPreEraseImage) {
  FlashDevice dev(TinyConfig());
  const FlashGeometry& g = dev.geometry();
  // A clears the low nibble everywhere; B sets it and clears the high one.
  const ByteBuffer data_a(g.data_size, 0xF0), spare_a(g.spare_size, 0xF0);
  const ByteBuffer data_b(g.data_size, 0x0F), spare_b(g.spare_size, 0x0F);
  ASSERT_TRUE(dev.ProgramPage(0, data_a, spare_a).ok());
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  EXPECT_TRUE(BytesEqual(dev.RawData(0), ByteBuffer(g.data_size, 0xFF)));
  EXPECT_TRUE(BytesEqual(dev.RawSpare(0), ByteBuffer(g.spare_size, 0xFF)));
  ASSERT_TRUE(dev.ProgramPage(0, data_b, spare_b).ok());
  ByteBuffer data(g.data_size), spare(g.spare_size);
  ASSERT_TRUE(dev.ReadPage(0, data, spare).ok());
  EXPECT_TRUE(BytesEqual(data, data_b));
  EXPECT_TRUE(BytesEqual(spare, spare_b));
  // The strict check runs against B, not A: raising a bit of B is refused.
  ByteBuffer raised = data_b;
  raised[7] |= 0x80;
  EXPECT_TRUE(dev.ProgramPage(0, raised, {}).IsFlashConstraint());
  // A bad-block mark on an erased block reads as all-ones but the mark.
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  ASSERT_TRUE(dev.MarkBadBlockOob(0).ok());
  ByteBuffer marked(g.spare_size, 0xFF);
  marked[kBadBlockOobOffset] = 0x00;
  EXPECT_TRUE(BytesEqual(dev.RawSpare(0), marked));
  EXPECT_TRUE(BytesEqual(dev.RawData(0), ByteBuffer(g.data_size, 0xFF)));
}

// Peak resident set size of this process, in KiB.
long MaxRssKiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

TEST(LazyEraseCaseTest, ConstructionTouchesNoCells) {
  // 4096 blocks x 64 pages x (2048 + 64) bytes: 528 MiB of cells.
  const FlashConfig cfg = FlashConfig::Small(4096);
  const long before = MaxRssKiB();
  FlashDevice dev(cfg);
  EXPECT_LT(MaxRssKiB() - before, 64 * 1024);
  // Every block is usable: program one page per block, first to last, and
  // read each back.
  const FlashGeometry& g = dev.geometry();
  ByteBuffer data(g.data_size), spare(g.spare_size);
  for (uint32_t b = 0; b < g.num_blocks; ++b) {
    const PhysAddr a = dev.AddrOf(b, b % g.pages_per_block);
    std::fill(data.begin(), data.end(), static_cast<uint8_t>(b));
    std::fill(spare.begin(), spare.end(), static_cast<uint8_t>(b >> 8));
    ASSERT_TRUE(dev.ProgramPage(a, data, spare).ok()) << "block " << b;
  }
  ByteBuffer rdata(g.data_size), rspare(g.spare_size);
  for (uint32_t b = 0; b < g.num_blocks; ++b) {
    const PhysAddr a = dev.AddrOf(b, b % g.pages_per_block);
    ASSERT_TRUE(dev.ReadPage(a, rdata, rspare).ok());
    ASSERT_TRUE(BytesEqual(rdata, ByteBuffer(g.data_size,
                                             static_cast<uint8_t>(b))))
        << "block " << b;
    ASSERT_TRUE(BytesEqual(rspare, ByteBuffer(g.spare_size,
                                              static_cast<uint8_t>(b >> 8))))
        << "block " << b;
  }
}

// One byte past either end of a cell array lands on a guard page. The odd
// size leaves the front slack below a page, so only the far end is flush.
TEST(CellArrayDeathTest, OutOfRangeAccessFaults) {
  CellArray page_sized(3 * 4096);
  CellArray odd(3 * 4096 + 5);
  odd.data()[odd.size() - 1] = 1;
  page_sized.data()[0] = 1;
  EXPECT_DEATH(static_cast<volatile uint8_t*>(odd.data())[odd.size()] = 1, "");
  EXPECT_DEATH(static_cast<volatile uint8_t*>(page_sized.data())[-1] = 1, "");
}

// A count of 0 is the erased state, so a budget the byte-wide counts could
// wrap past is refused up front.
TEST(FlashDeviceDeathTest, BudgetPastCountWidthAborts) {
  FlashConfig cfg = TinyConfig();
  cfg.max_data_programs = 256;
  EXPECT_DEATH(FlashDevice dev(cfg), "must be <= 255");
}

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
