// Unit + property tests for the differential codec: compute, serialize,
// parse, merge. The central invariant is  ApplyTo(base, Compute(base, upd))
// == upd  for arbitrary mutations.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "pdl/differential.h"

namespace flashdb::pdl {
namespace {

constexpr size_t kPage = 2048;

ByteBuffer RandomPage(uint64_t seed) {
  ByteBuffer p(kPage);
  Random r(seed);
  r.Fill(p);
  return p;
}

// Reference lookup over owned copies: ParseNext every record up to pid's,
// then Differential::ApplyTo.
Status ReferenceLookup(ConstBytes image, PageId pid, MutBytes page,
                       bool* found) {
  *found = false;
  BufferReader reader(image);
  Differential d;
  Status st;
  while (Differential::ParseNext(&reader, &d, &st)) {
    if (d.pid() == pid) {
      *found = true;
      return d.ApplyTo(page);
    }
  }
  return st;
}

// Checks ApplyRecordFromPage against ReferenceLookup for `pid`: same found
// flag, same status (code and message) and the same merged page.
void ExpectLookupsAgree(ConstBytes image, PageId pid, const ByteBuffer& base) {
  ByteBuffer in_place = base;
  ByteBuffer reference = base;
  bool found = false, ref_found = false;
  const Status st = ApplyRecordFromPage(image, pid, in_place, &found);
  const Status ref_st = ReferenceLookup(image, pid, reference, &ref_found);
  EXPECT_EQ(found, ref_found) << "pid " << pid;
  EXPECT_EQ(st.ToString(), ref_st.ToString()) << "pid " << pid;
  EXPECT_TRUE(BytesEqual(in_place, reference)) << "pid " << pid;
}

TEST(DifferentialTest, IdenticalPagesYieldEmptyDiff) {
  ByteBuffer base = RandomPage(1);
  Differential d = ComputeDifferential(base, base, 5, 10);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.EncodedSize(), kDiffHeaderSize);
  ByteBuffer merged = base;
  ASSERT_TRUE(d.ApplyTo(merged).ok());
  EXPECT_TRUE(BytesEqual(merged, base));
}

TEST(DifferentialTest, SingleByteChange) {
  ByteBuffer base = RandomPage(2);
  ByteBuffer upd = base;
  upd[100] ^= 0xFF;
  Differential d = ComputeDifferential(base, upd, 1, 1);
  ASSERT_EQ(d.extents().size(), 1u);
  EXPECT_EQ(d.extents()[0].offset, 100);
  EXPECT_EQ(d.extents()[0].length, 1);
  ByteBuffer merged = base;
  ASSERT_TRUE(d.ApplyTo(merged).ok());
  EXPECT_TRUE(BytesEqual(merged, upd));
}

TEST(DifferentialTest, GapCoalescing) {
  ByteBuffer base(kPage, 0);
  ByteBuffer upd = base;
  // Two changed bytes separated by a small gap (<= header size) should fold
  // into one extent; a big gap should not.
  upd[10] = 1;
  upd[13] = 1;   // gap of 2 <= 4
  upd[500] = 1;
  upd[600] = 1;  // gap of 99 > 4
  Differential d = ComputeDifferential(base, upd, 1, 1);
  ASSERT_EQ(d.extents().size(), 3u);
  EXPECT_EQ(d.extents()[0].offset, 10);
  EXPECT_EQ(d.extents()[0].length, 4);
  ByteBuffer merged = base;
  ASSERT_TRUE(d.ApplyTo(merged).ok());
  EXPECT_TRUE(BytesEqual(merged, upd));
}

TEST(DifferentialTest, CoalescedDiffNeverBiggerThanUncoalesced) {
  Random r(77);
  for (int iter = 0; iter < 20; ++iter) {
    ByteBuffer base = RandomPage(iter);
    ByteBuffer upd = base;
    for (int m = 0; m < 30; ++m) upd[r.Uniform(kPage)] ^= 0x5A;
    Differential with_gap = ComputeDifferential(base, upd, 1, 1, 4);
    Differential no_gap = ComputeDifferential(base, upd, 1, 1, 0);
    EXPECT_LE(with_gap.EncodedSize(), no_gap.EncodedSize());
  }
}

TEST(DifferentialTest, FullPageChange) {
  ByteBuffer base(kPage, 0x00);
  ByteBuffer upd(kPage, 0x1F);
  Differential d = ComputeDifferential(base, upd, 1, 1);
  ASSERT_EQ(d.extents().size(), 1u);
  EXPECT_EQ(d.extents()[0].length, kPage);
  EXPECT_GT(d.EncodedSize(), kPage);  // header overhead makes it bigger
}

TEST(DifferentialTest, ChangeAtPageBoundaries) {
  ByteBuffer base(kPage, 0xAA);
  ByteBuffer upd = base;
  upd[0] = 0;
  upd[kPage - 1] = 0;
  Differential d = ComputeDifferential(base, upd, 1, 1);
  ASSERT_EQ(d.extents().size(), 2u);
  ByteBuffer merged = base;
  ASSERT_TRUE(d.ApplyTo(merged).ok());
  EXPECT_TRUE(BytesEqual(merged, upd));
}

TEST(DifferentialTest, SerializeParseRoundTrip) {
  ByteBuffer base = RandomPage(3);
  ByteBuffer upd = base;
  Random r(4);
  for (int i = 0; i < 10; ++i) upd[r.Uniform(kPage)] ^= 0x77;
  Differential d = ComputeDifferential(base, upd, 42, 12345);

  ByteBuffer buf;
  d.AppendTo(&buf);
  EXPECT_EQ(buf.size(), d.EncodedSize());

  BufferReader reader(buf);
  Differential parsed;
  Status st;
  ASSERT_TRUE(Differential::ParseNext(&reader, &parsed, &st));
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(parsed.pid(), 42u);
  EXPECT_EQ(parsed.timestamp(), 12345u);
  EXPECT_EQ(parsed.extents().size(), d.extents().size());
  ByteBuffer merged = base;
  ASSERT_TRUE(parsed.ApplyTo(merged).ok());
  EXPECT_TRUE(BytesEqual(merged, upd));
}

TEST(DifferentialTest, MultipleRecordsInOnePage) {
  ByteBuffer page_buf;
  for (uint32_t pid = 0; pid < 5; ++pid) {
    Differential d(pid, 100 + pid);
    const uint8_t payload[] = {static_cast<uint8_t>(pid), 2, 3};
    d.AddExtent(static_cast<uint16_t>(pid * 7), payload);
    d.AppendTo(&page_buf);
  }
  page_buf.resize(kPage, 0xFF);  // erased padding terminates parsing

  BufferReader reader(page_buf);
  Differential d;
  Status st;
  uint32_t n = 0;
  while (Differential::ParseNext(&reader, &d, &st)) {
    EXPECT_EQ(d.pid(), n);
    EXPECT_EQ(d.timestamp(), 100 + n);
    ++n;
  }
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(n, 5u);

  // The in-place lookup finds each record, and an absent pid (found=false,
  // page untouched) is what PdlStore::ReadPage reports as Corruption.
  const ByteBuffer base = RandomPage(9);
  for (PageId pid = 0; pid <= 5; ++pid) {
    ByteBuffer page = base;
    bool found = false;
    EXPECT_TRUE(ApplyRecordFromPage(page_buf, pid, page, &found).ok());
    EXPECT_EQ(found, pid < 5) << "pid " << pid;
    EXPECT_EQ(BytesEqual(page, base), pid == 5) << "pid " << pid;
    ExpectLookupsAgree(page_buf, pid, base);
  }
}

TEST(DifferentialTest, PaddingTerminatesEmptyPage) {
  ByteBuffer page_buf(kPage, 0xFF);
  BufferReader reader(page_buf);
  Differential d;
  Status st;
  EXPECT_FALSE(Differential::ParseNext(&reader, &d, &st));
  EXPECT_TRUE(st.ok());
}

TEST(DifferentialTest, TruncatedRecordReportsCorruption) {
  Differential d(9, 9);
  const uint8_t payload[100] = {};
  d.AddExtent(0, payload);
  ByteBuffer buf;
  d.AppendTo(&buf);
  buf.resize(buf.size() - 50);  // chop the payload

  BufferReader reader(buf);
  Differential parsed;
  Status st;
  EXPECT_FALSE(Differential::ParseNext(&reader, &parsed, &st));
  EXPECT_TRUE(st.IsCorruption());
}

TEST(DifferentialTest, ApplyBeyondBoundsIsCorruption) {
  Differential d(1, 1);
  const uint8_t payload[16] = {};
  d.AddExtent(static_cast<uint16_t>(kPage - 8), payload);  // spills over
  ByteBuffer page(kPage, 0);
  EXPECT_TRUE(d.ApplyTo(page).IsCorruption());

  // Merged in place from a differential page: the same typed error.
  ByteBuffer image;
  d.AppendTo(&image);
  image.resize(kPage, 0xFF);
  bool found = false;
  const Status st = ApplyRecordFromPage(image, 1, page, &found);
  EXPECT_TRUE(found);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_EQ(st.message(), "differential extent beyond page bounds (pid 1)");
  ExpectLookupsAgree(image, 1, ByteBuffer(kPage, 0));
}

TEST(DifferentialTest, EncodedSizeFormula) {
  Differential d(1, 1);
  const uint8_t a[5] = {};
  const uint8_t b[11] = {};
  d.AddExtent(0, a);
  d.AddExtent(100, b);
  EXPECT_EQ(d.EncodedSize(), kDiffHeaderSize + 2 * kExtentHeaderSize + 16);
  EXPECT_EQ(d.payload_size(), 16u);
}

// Property sweep: random mutation patterns must round-trip exactly.
class DifferentialPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialPropertyTest, ComputeSerializeApplyIsIdentity) {
  const int seed = GetParam();
  Random r(seed);
  ByteBuffer base = RandomPage(seed * 131);
  ByteBuffer upd = base;
  // Mutation mix: single bytes, runs, and overlapping runs.
  const int mutations = 1 + static_cast<int>(r.Uniform(40));
  for (int m = 0; m < mutations; ++m) {
    const size_t len = 1 + r.Uniform(64);
    const size_t off = r.Uniform(kPage - len + 1);
    for (size_t i = 0; i < len; ++i) {
      upd[off + i] = static_cast<uint8_t>(r.Next());
    }
  }
  Differential d = ComputeDifferential(base, upd, 7, 1000 + seed);
  ByteBuffer buf;
  d.AppendTo(&buf);
  buf.resize(kPage < buf.size() ? buf.size() : kPage, 0xFF);

  BufferReader reader(buf);
  Differential parsed;
  Status st;
  ASSERT_TRUE(Differential::ParseNext(&reader, &parsed, &st));
  ByteBuffer merged = base;
  ASSERT_TRUE(parsed.ApplyTo(merged).ok());
  EXPECT_TRUE(BytesEqual(merged, upd)) << "seed " << seed;

  // Extents must be ordered, disjoint and within bounds.
  uint32_t prev_end = 0;
  for (const DiffExtent& e : parsed.extents()) {
    EXPECT_GE(e.offset, prev_end);
    EXPECT_LE(static_cast<uint32_t>(e.offset) + e.length, kPage);
    prev_end = e.offset + e.length;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DifferentialPropertyTest,
                         ::testing::Range(0, 50));

// Differential pages packed like the write buffer packs them: random record
// counts, extent shapes (empty records, zero-length extents, extents at
// either page edge, runs of up to 300 bytes) and padding, from none to most
// of a page.
class RecordWalkerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RecordWalkerPropertyTest, InPlaceLookupMatchesParseAndApply) {
  const int seed = GetParam();
  Random r(seed + 1000);
  const ByteBuffer base = RandomPage(seed + 2000);
  ByteBuffer image;
  std::vector<PageId> pids;
  const size_t records = r.Uniform(12);
  for (size_t i = 0; i < records; ++i) {
    const PageId pid = static_cast<PageId>(i * 7 + r.Uniform(7));
    Differential d(pid, r.Next());
    const size_t extents = r.Uniform(5);
    for (size_t e = 0; e < extents; ++e) {
      const size_t max_len = r.Uniform(2) ? 8 : 300;
      const size_t len = r.Uniform(4) == 0 ? 0 : 1 + r.Uniform(max_len);
      size_t off = r.Uniform(kPage - len + 1);
      if (r.Uniform(4) == 0) off = r.Uniform(2) ? 0 : kPage - len;
      ByteBuffer payload(len);
      r.Fill(payload);
      d.AddExtent(static_cast<uint16_t>(off), payload);
    }
    if (image.size() + d.EncodedSize() > kPage) break;
    d.AppendTo(&image);
    pids.push_back(pid);
  }
  // Erased padding to a full page, or the records alone with none.
  if (r.Uniform(4) != 0) image.resize(kPage, 0xFF);

  for (PageId pid : pids) {
    ExpectLookupsAgree(image, pid, base);
    bool found = false;
    ByteBuffer page = base;
    ASSERT_TRUE(ApplyRecordFromPage(image, pid, page, &found).ok());
    EXPECT_TRUE(found) << "pid " << pid;
  }
  // Pids between and past the packed ones are absent.
  for (PageId pid : {PageId{3}, PageId{1000}}) {
    if (std::find(pids.begin(), pids.end(), pid) != pids.end()) continue;
    ExpectLookupsAgree(image, pid, base);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPages, RecordWalkerPropertyTest,
                         ::testing::Range(0, 200));

// Two well-formed records (pids 1, 2), 0xFF-padded to a page.
ByteBuffer TwoRecordPage() {
  ByteBuffer image;
  const uint8_t payload[] = {9, 8, 7};
  for (PageId pid : {1, 2}) {
    Differential d(pid, pid * 10);
    d.AddExtent(static_cast<uint16_t>(pid * 100), payload);
    d.AppendTo(&image);
  }
  image.resize(kPage, 0xFF);
  return image;
}

TEST(RecordWalkerTest, TruncatedRecordBeforeTargetIsCorruption) {
  ByteBuffer image = TwoRecordPage();
  // pid 2's extent claims more payload than the page holds.
  const size_t second = kDiffHeaderSize + kExtentHeaderSize + 3;
  EncodeFixed16(image.data() + second + kDiffHeaderSize + 2, 0xFFFF);
  const ByteBuffer base(kPage, 0);
  for (PageId target : {2, 5}) {
    ByteBuffer page = base;
    bool found = true;
    const Status st = ApplyRecordFromPage(image, target, page, &found);
    EXPECT_TRUE(st.IsCorruption());
    EXPECT_EQ(st.message(), "truncated differential record");
    EXPECT_FALSE(found);
    EXPECT_TRUE(BytesEqual(page, base));
    ExpectLookupsAgree(image, target, base);
  }
  // The record before the damage still merges.
  ExpectLookupsAgree(image, 1, base);
}

TEST(RecordWalkerTest, TruncatedHeaderIsCorruption) {
  ByteBuffer image = TwoRecordPage();
  // A pid with less than a full header after it ends the image.
  const size_t end = 2 * (kDiffHeaderSize + kExtentHeaderSize + 3);
  image.resize(end + 4 + 5);
  EncodeFixed32(image.data() + end, 7);
  bool found = true;
  ByteBuffer page(kPage, 0);
  const Status st = ApplyRecordFromPage(image, 7, page, &found);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_EQ(st.message(), "truncated differential record header");
  EXPECT_FALSE(found);
  ExpectLookupsAgree(image, 7, ByteBuffer(kPage, 0));
}

}  // namespace
}  // namespace flashdb::pdl
