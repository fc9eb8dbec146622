// Page tables and MMU with x86 permission semantics — the premise of the
// paper: execute-only memory is not expressible (X implies R).
#include <gtest/gtest.h>

#include "src/mem/mmu.h"

namespace krx {
namespace {

class MmuTest : public ::testing::Test {
 protected:
  MmuTest() : phys_(1 << 20), mmu_(&phys_, &pt_) {}
  PhysMem phys_;
  PageTable pt_;
  Mmu mmu_;
};

TEST_F(MmuTest, UnmappedFaults) {
  auto r = mmu_.Read64(0x1000);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(mmu_.last_fault().kind, FaultKind::kNotPresent);
  EXPECT_EQ(mmu_.last_fault().vaddr, 0x1000u);
}

TEST_F(MmuTest, ReadWriteRoundTrip) {
  pt_.Map(0x5000, 2, PteFlags{true, true, true});
  ASSERT_TRUE(mmu_.Write64(0x5008, 0xDEADBEEF).ok());
  auto r = mmu_.Read64(0x5008);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0xDEADBEEFu);
}

TEST_F(MmuTest, WriteProtect) {
  pt_.Map(0x5000, 2, PteFlags{true, false, true});
  EXPECT_FALSE(mmu_.Write64(0x5000, 1).ok());
  EXPECT_EQ(mmu_.last_fault().kind, FaultKind::kWriteProtect);
  EXPECT_TRUE(mmu_.Read64(0x5000).ok());
}

TEST_F(MmuTest, NxBlocksFetchOnly) {
  pt_.Map(0x6000, 3, PteFlags{true, false, true});
  uint8_t buf[4];
  EXPECT_FALSE(mmu_.FetchCode(0x6000, buf, 4).ok());
  EXPECT_EQ(mmu_.last_fault().kind, FaultKind::kNxViolation);
  EXPECT_TRUE(mmu_.Read64(0x6000).ok());
}

TEST_F(MmuTest, ExecutableImpliesReadable) {
  // The x86 rule at the heart of the paper: a code page (executable, not
  // writable) is always *readable* — paging cannot express execute-only.
  pt_.Map(0x7000, 4, PteFlags{true, false, false});
  uint8_t buf[8];
  EXPECT_TRUE(mmu_.FetchCode(0x7000, buf, 8).ok());
  EXPECT_TRUE(mmu_.Read64(0x7000).ok());  // read succeeds despite being code
}

TEST_F(MmuTest, CrossPageAccess) {
  pt_.Map(0x8000, 5, PteFlags{true, true, true});
  pt_.Map(0x9000, 6, PteFlags{true, true, true});
  ASSERT_TRUE(mmu_.Write64(0x8FFC, 0x1122334455667788ULL).ok());
  auto r = mmu_.Read64(0x8FFC);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0x1122334455667788ULL);
  // Unmap the second page: the straddling access now faults.
  pt_.Unmap(0x9000);
  EXPECT_FALSE(mmu_.Read64(0x8FFC).ok());
}

TEST_F(MmuTest, FetchStopsAtUnmappedBoundary) {
  pt_.Map(0xA000, 7, PteFlags{true, false, false});
  phys_.Fill(7 << kPageShift, 0xAB, kPageSize);
  uint8_t buf[16];
  auto n = mmu_.FetchCode(0xAFF8, buf, 16);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 8u);  // partial fetch up to the page end
  EXPECT_EQ(buf[0], 0xAB);
}

TEST_F(MmuTest, AliasedMappingsShareFrame) {
  // Physmap-style synonym: two virtual pages, one frame.
  pt_.Map(0xB000, 8, PteFlags{true, false, false});   // "code" view
  pt_.Map(0xC000, 8, PteFlags{true, true, true});     // direct-map view
  ASSERT_TRUE(mmu_.Write64(0xC010, 0x42).ok());
  auto r = mmu_.Read64(0xB010);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0x42u);  // the alias reads the same bytes
}

TEST_F(MmuTest, MapRangeAndUnmapRange) {
  pt_.MapRange(0x10000, 10, 4, PteFlags{true, true, true});
  EXPECT_EQ(pt_.MappedPageCount(), 4u);
  EXPECT_TRUE(mmu_.Read64(0x12FF8).ok());
  pt_.UnmapRange(0x10000, 4);
  EXPECT_EQ(pt_.MappedPageCount(), 0u);
}

TEST_F(MmuTest, WxAudit) {
  pt_.Map(0xD000, 11, PteFlags{true, true, false});  // writable + executable!
  pt_.Map(0xE000, 12, PteFlags{true, true, true});
  auto violations = pt_.FindWxViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0], 0xD000u);
}

TEST_F(MmuTest, TlbCountersSplitByAccessKind) {
  pt_.Map(0xF000, 13, PteFlags{true, true, false});
  uint8_t buf[1];
  (void)mmu_.Read64(0xF000);
  (void)mmu_.FetchCode(0xF000, buf, 1);
  EXPECT_EQ(mmu_.stats().dtlb_lookups, 1u);
  EXPECT_EQ(mmu_.stats().itlb_lookups, 1u);
}

TEST_F(MmuTest, SmepBlocksSupervisorFetchFromUserPage) {
  pt_.Map(0x4000, 14, PteFlags{true, true, false, /*user=*/true});
  uint8_t buf[4];
  // Without SMEP the (supervisor) fetch works — the ret2usr preconditions.
  EXPECT_TRUE(mmu_.FetchCode(0x4000, buf, 4).ok());
  mmu_.set_smep(true);
  EXPECT_FALSE(mmu_.FetchCode(0x4000, buf, 4).ok());
  EXPECT_EQ(mmu_.last_fault().kind, FaultKind::kSmepViolation);
  // Data reads are unaffected by SMEP.
  EXPECT_TRUE(mmu_.Read64(0x4000).ok());
}

TEST_F(MmuTest, SmapBlocksSupervisorDataAccessToUserPage) {
  pt_.Map(0x4000, 14, PteFlags{true, true, false, /*user=*/true});
  EXPECT_TRUE(mmu_.Read64(0x4000).ok());
  mmu_.set_smap(true);
  EXPECT_FALSE(mmu_.Read64(0x4000).ok());
  EXPECT_EQ(mmu_.last_fault().kind, FaultKind::kSmapViolation);
  EXPECT_FALSE(mmu_.Write64(0x4000, 1).ok());
  // Kernel pages stay accessible.
  pt_.Map(0x5000, 15, PteFlags{true, true, true, false});
  EXPECT_TRUE(mmu_.Read64(0x5000).ok());
}

TEST(PhysMem, FrameAllocatorExhausts) {
  PhysMem phys(4 * kPageSize);
  EXPECT_TRUE(phys.AllocFrames(4).ok());
  EXPECT_FALSE(phys.AllocFrames(1).ok());
}

// Guest memory is demand-zero: reserving a gigabyte costs the host only
// the frames that are written, and every other frame reads zero.
TEST(PhysMem, LargeMemoryCostsOnlyTouchedFrames) {
  const uint64_t rss_before = ProcessRssBytes();
  ASSERT_GT(rss_before, 0u);
  PhysMem phys(1ULL << 30);
  auto frame = phys.AllocFrames(1);
  ASSERT_TRUE(frame.ok());
  phys.Fill(*frame << kPageShift, 0xAB, kPageSize);
  EXPECT_LT(ProcessRssBytes(), rss_before + (16ULL << 20));

  EXPECT_EQ(phys.Read8(*frame << kPageShift), 0xAB);
  EXPECT_EQ(phys.Read64((*frame << kPageShift) + kPageSize - 8), 0xABABABABABABABABULL);
  for (uint64_t paddr = (*frame + 1) << kPageShift; paddr < phys.size(); paddr += 64ULL << 20) {
    EXPECT_EQ(phys.Read64(paddr), 0u) << "paddr " << paddr;
  }
  EXPECT_EQ(phys.Read64(phys.size() - 8), 0u);
}

TEST(PhysMem, FreedFramesAreCoalescedAndReusedZeroed) {
  PhysMem phys(16 * kPageSize);
  auto a = phys.AllocFrames(4);
  auto b = phys.AllocFrames(4);
  auto c = phys.AllocFrames(4);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  phys.Fill(*a << kPageShift, 0xAA, 4 * kPageSize);
  phys.Fill(*b << kPageShift, 0xBB, 4 * kPageSize);
  EXPECT_EQ(phys.frames_allocated(), 12u);

  phys.FreeFrames(*b, 4);
  phys.FreeFrames(*a, 4);
  EXPECT_EQ(phys.frames_allocated(), 4u);
  EXPECT_EQ(phys.high_water_frames(), 12u);

  // Only 4 frames are left above the high-water mark, so 8 fit only if the
  // two freed neighbours were merged into one extent.
  auto merged = phys.AllocFrames(8);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, *a);
  EXPECT_EQ(phys.frames_allocated(), 12u);
  EXPECT_EQ(phys.high_water_frames(), 12u);
  uint64_t nonzero = 0;
  for (uint64_t off = 0; off < 8 * kPageSize; off += 8) {
    nonzero += phys.Read64((*merged << kPageShift) + off) != 0;
  }
  EXPECT_EQ(nonzero, 0u);

  // Bytes written into a free extent (a checkpoint restore does this) are
  // gone when the extent is handed out again.
  phys.FreeFrames(*c, 4);
  phys.Fill(*c << kPageShift, 0xCC, 4 * kPageSize);
  auto again = phys.AllocFrames(4);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *c);
  EXPECT_EQ(phys.Read64(*again << kPageShift), 0u);
  EXPECT_EQ(phys.Read64((*again << kPageShift) + 4 * kPageSize - 8), 0u);

  phys.FreeFrames(*again, 4);
  EXPECT_EQ(phys.frames_allocated(), 8u);
  EXPECT_DEATH(phys.FreeFrames(*again, 4), "");      // double free
  EXPECT_DEATH(phys.FreeFrames(*again + 3, 1), "");  // inside a free extent
  EXPECT_DEATH(phys.FreeFrames(12, 1), "");          // never handed out
}

}  // namespace
}  // namespace krx
