// Page tables and MMU with x86 permission semantics — the premise of the
// paper: execute-only memory is not expressible (X implies R).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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
  // A read-only second page: the straddling store raises write-protect on
  // that page before it writes any byte, so the first page keeps its old
  // bytes (x86 takes the #PF before the store commits).
  pt_.Unmap(0x9000);
  pt_.Map(0x9000, 6, PteFlags{true, false, true});
  auto st = mmu_.Write64(0x8FFC, 0xAABBCCDDEEFF0011ULL);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(mmu_.last_fault().kind, FaultKind::kWriteProtect);
  EXPECT_EQ(mmu_.last_fault().vaddr, 0x9000u);
  auto after = mmu_.Read64(0x8FFC);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 0x1122334455667788ULL);
  // Unmap the second page: the straddling access now faults.
  pt_.Unmap(0x9000);
  EXPECT_FALSE(mmu_.Read64(0x8FFC).ok());
  EXPECT_EQ(mmu_.last_fault().kind, FaultKind::kNotPresent);
  EXPECT_EQ(mmu_.last_fault().vaddr, 0x9000u);
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

// The one page walk against Translate over every entry the walk can meet:
// present x writable x nx x user x HideM data frame, for each access kind
// under each SMEP/SMAP setting. Both give the same physical address or the
// same #PF kind, in x86 order (not present, then write-protect or NX, then
// SMAP or SMEP), and the walk leaves the fault record alone.
TEST_F(MmuTest, WalkMatchesTranslateOnEveryEntryAccessAndSwitch) {
  constexpr uint64_t kVaddr = 0x20000 + 0x123;
  constexpr uint64_t kFrame = 21;
  constexpr uint64_t kDataFrame = 22;
  int checked = 0;
  for (int bits = 0; bits < (1 << 7); ++bits) {
    const PteFlags flags{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0, (bits & 8) != 0};
    const bool data_frame = (bits & 16) != 0;
    const bool smep = (bits & 32) != 0;
    const bool smap = (bits & 64) != 0;
    pt_.Map(kVaddr, kFrame, flags);
    if (data_frame) {
      Pte* pte = pt_.LookupMutable(kVaddr);
      ASSERT_NE(pte, nullptr);
      pte->has_data_frame = true;
      pte->data_frame = kDataFrame;
    }
    mmu_.set_smep(smep);
    mmu_.set_smap(smap);
    for (Access access : {Access::kRead, Access::kWrite, Access::kExec}) {
      SCOPED_TRACE(::testing::Message() << "bits " << bits << " access "
                                        << static_cast<int>(access));
      FaultKind want = FaultKind::kNone;
      if (!flags.present) {
        want = FaultKind::kNotPresent;
      } else if (access == Access::kWrite && !flags.writable) {
        want = FaultKind::kWriteProtect;
      } else if (access == Access::kExec && flags.nx) {
        want = FaultKind::kNxViolation;
      } else if (access != Access::kExec && smap && flags.user) {
        want = FaultKind::kSmapViolation;
      } else if (access == Access::kExec && smep && flags.user) {
        want = FaultKind::kSmepViolation;
      }
      const uint64_t frame = data_frame && access != Access::kExec ? kDataFrame : kFrame;
      const uint64_t paddr = (frame << kPageShift) | PageOffset(kVaddr);

      // A fault record from an unrelated access, which the walk must keep.
      ASSERT_FALSE(mmu_.Translate(0x1000, Access::kRead).ok());
      const Translation t = mmu_.Walk(kVaddr, access);
      EXPECT_EQ(mmu_.last_fault().kind, FaultKind::kNotPresent);
      EXPECT_EQ(mmu_.last_fault().vaddr, 0x1000u);
      EXPECT_EQ(mmu_.last_fault().access, Access::kRead);

      EXPECT_EQ(t.fault, want);
      if (flags.present) {
        EXPECT_EQ(t.paddr, paddr);
        EXPECT_EQ(t.flags, flags);
      }
      const Result<uint64_t> translated = mmu_.Translate(kVaddr, access);
      if (want == FaultKind::kNone) {
        ASSERT_TRUE(translated.ok());
        EXPECT_EQ(*translated, paddr);
      } else {
        EXPECT_FALSE(translated.ok());
        EXPECT_EQ(mmu_.last_fault().kind, want);
        EXPECT_EQ(mmu_.last_fault().vaddr, kVaddr);
        EXPECT_EQ(mmu_.last_fault().access, access);
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 384);
  // An unmapped address walks to not-present as well.
  EXPECT_EQ(mmu_.Walk(0x1000, Access::kRead).fault, FaultKind::kNotPresent);
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

// --- The radix table: 2 MB mappings, splits, canonical addresses ---

constexpr uint64_t kRunPages = PageTable::kFanout;       // pages per 2 MB mapping
constexpr uint64_t kRunBytes = kRunPages * kPageSize;    // 2 MB
constexpr uint64_t kDirectMap = 0xFFFF888000000000ULL;   // 2 MB aligned, upper half
constexpr PteFlags kRw{true, true, true};
constexpr PteFlags kRo{true, false, true};
constexpr PteFlags kRwx{true, true, false};

uint64_t Page(uint64_t base, uint64_t i) { return base + i * kPageSize; }

// Bits 47:12 of these addresses equal those of 0xFFFF900000000000, so a
// radix walk that skipped the canonical check would land on its entry.
TEST(PageTableRadix, NonCanonicalAddressesNeverTranslate) {
  PhysMem phys(1 << 20);
  PageTable pt;
  Mmu mmu(&phys, &pt);
  pt.Map(0xFFFF900000000000ULL, 3, kRw);
  ASSERT_TRUE(pt.Lookup(0xFFFF900000000000ULL).has_value());
  for (uint64_t vaddr : {0x0000900000000000ULL, 0x0000900000000008ULL, 0x7FFF900000000000ULL,
                         0x8000900000000000ULL, 0xFFFE900000000000ULL}) {
    SCOPED_TRACE(::testing::Message() << std::hex << vaddr);
    EXPECT_FALSE(IsCanonical(vaddr));
    EXPECT_FALSE(pt.Lookup(vaddr).has_value());
    EXPECT_EQ(pt.LookupMutable(vaddr), nullptr);
    EXPECT_FALSE(mmu.Read64(vaddr).ok());
    EXPECT_EQ(mmu.last_fault().kind, FaultKind::kNotPresent);
  }
  EXPECT_DEATH(pt.Map(0x0000900000000000ULL, 4, kRw), "");
  // A range may not run from the lower half into the hole either.
  EXPECT_DEATH(pt.MapRange(0x00007FFFFFFFF000ULL, 4, 2, kRw), "");
}

TEST(PageTableRadix, EditsInsideA2MbMappingLeaveTheOtherPagesAlone) {
  constexpr uint64_t kVictim = 77;
  for (int edit = 0; edit < 3; ++edit) {
    SCOPED_TRACE(edit == 0 ? "Unmap" : edit == 1 ? "Map" : "LookupMutable");
    PageTable pt;
    pt.MapRange(kDirectMap, kRunPages, kRunPages, kRw);
    const uint64_t victim = Page(kDirectMap, kVictim);
    if (edit == 0) {
      pt.Unmap(victim);
      EXPECT_FALSE(pt.Lookup(victim).has_value());
    } else if (edit == 1) {
      pt.Map(victim, 9999, kRo);
      auto pte = pt.Lookup(victim);
      ASSERT_TRUE(pte.has_value());
      EXPECT_EQ(pte->frame, 9999u);
      EXPECT_EQ(pte->flags, kRo);
    } else {
      Pte* pte = pt.LookupMutable(victim);
      ASSERT_NE(pte, nullptr);
      EXPECT_EQ(pte->frame, kRunPages + kVictim);
      pte->flags.present = false;
      EXPECT_FALSE(pt.Lookup(victim)->flags.present);
    }
    for (uint64_t i = 0; i < kRunPages; ++i) {
      if (i == kVictim) {
        continue;
      }
      auto pte = pt.Lookup(Page(kDirectMap, i));
      ASSERT_TRUE(pte.has_value()) << "page " << i;
      EXPECT_EQ(pte->frame, kRunPages + i) << "page " << i;
      EXPECT_EQ(pte->flags, kRw) << "page " << i;
    }
    EXPECT_FALSE(pt.Lookup(kDirectMap - kPageSize).has_value());
    EXPECT_FALSE(pt.Lookup(kDirectMap + kRunBytes).has_value());
  }
}

TEST(PageTableRadix, MappedPageCountStaysExact) {
  PageTable pt;
  const uint64_t empty_bytes = pt.TableBytes();
  auto translating = [&] {
    uint64_t n = 0;
    for (uint64_t v = kDirectMap - kRunBytes; v < kDirectMap + 5 * kRunBytes; v += kPageSize) {
      n += pt.Lookup(v).has_value() ? 1 : 0;
    }
    return n;
  };
  auto expect_count = [&](uint64_t pages) {
    EXPECT_EQ(pt.MappedPageCount(), pages);
    EXPECT_EQ(translating(), pages);
  };
  // Three 2 MB mappings and a 5-page tail.
  pt.MapRange(kDirectMap, 0, 3 * kRunPages + 5, kRw);
  expect_count(3 * kRunPages + 5);
  // Split the second mapping without changing what it maps.
  ASSERT_NE(pt.LookupMutable(Page(kDirectMap, kRunPages + 88)), nullptr);
  expect_count(3 * kRunPages + 5);
  // Unmap 4 pages straddling the first two runs, then one of them again.
  pt.UnmapRange(Page(kDirectMap, kRunPages - 2), 4);
  expect_count(3 * kRunPages + 1);
  pt.Unmap(Page(kDirectMap, kRunPages - 1));
  expect_count(3 * kRunPages + 1);
  // Remap them, then remap the whole first run over its leaf.
  pt.MapRange(Page(kDirectMap, kRunPages - 2), kRunPages - 2, 4, kRw);
  expect_count(3 * kRunPages + 5);
  pt.MapRange(kDirectMap, 0, kRunPages, kRo);
  expect_count(3 * kRunPages + 5);
  EXPECT_EQ(pt.Lookup(Page(kDirectMap, kRunPages - 1))->flags, kRo);
  // Unmapping everything frees every node but the root.
  pt.UnmapRange(kDirectMap, 3 * kRunPages + 5);
  expect_count(0);
  EXPECT_EQ(pt.TableBytes(), empty_bytes);
}

TEST(PageTableRadix, WxAuditListsEveryPageOfA2MbRun) {
  PageTable pt;
  constexpr uint64_t kLow = 0x40000000;  // lower half, 2 MB aligned
  pt.MapRange(kLow, 2 * kRunPages, kRunPages, kRwx);
  pt.MapRange(kDirectMap, 0, kRunPages, kRwx);
  pt.MapRange(kDirectMap + kRunBytes, kRunPages, kRunPages, kRw);
  std::vector<uint64_t> wx = pt.FindWxViolations();
  ASSERT_EQ(wx.size(), 2 * kRunPages);
  for (uint64_t i = 0; i < kRunPages; ++i) {
    EXPECT_EQ(wx[i], Page(kLow, i));
    EXPECT_EQ(wx[kRunPages + i], Page(kDirectMap, i));
  }
  // Revoking write on one page splits its run; the other 511 stay listed.
  Pte* pte = pt.LookupMutable(Page(kDirectMap, 5));
  ASSERT_NE(pte, nullptr);
  pte->flags.writable = false;
  wx = pt.FindWxViolations();
  EXPECT_EQ(wx.size(), 2 * kRunPages - 1);
  EXPECT_EQ(std::count(wx.begin(), wx.end(), Page(kDirectMap, 5)), 0);
  EXPECT_EQ(std::count(wx.begin(), wx.end(), Page(kDirectMap, 6)), 1);
}

TEST(PageTableRadix, CopiesReproduceEveryLookup) {
  constexpr uint64_t kText = 0xFFFFFFFFC0001000ULL;
  constexpr uint64_t kUser = 0x400000;
  constexpr uint64_t kGap = kRunPages + 100;  // unmapped inside the second run
  PageTable pt;
  pt.MapRange(kDirectMap, 0, 3 * kRunPages, kRw);
  pt.Unmap(Page(kDirectMap, kGap));
  pt.Map(kText, 42, PteFlags{true, false, false});
  pt.Map(kUser, 43, PteFlags{true, true, false, /*user=*/true});

  auto expect_same = [&](const PageTable& t) {
    for (uint64_t i = 0; i < 3 * kRunPages; ++i) {
      auto pte = t.Lookup(Page(kDirectMap, i));
      if (i == kGap) {
        EXPECT_FALSE(pte.has_value());
        continue;
      }
      ASSERT_TRUE(pte.has_value()) << "page " << i;
      EXPECT_EQ(pte->frame, i);
      EXPECT_EQ(pte->flags, kRw);
    }
    EXPECT_FALSE(t.Lookup(Page(kDirectMap, 3 * kRunPages)).has_value());
    ASSERT_TRUE(t.Lookup(kText).has_value());
    EXPECT_EQ(t.Lookup(kText)->frame, 42u);
    ASSERT_TRUE(t.Lookup(kUser).has_value());
    EXPECT_TRUE(t.Lookup(kUser)->flags.user);
    EXPECT_EQ(t.MappedPageCount(), 3 * kRunPages + 1);
  };
  expect_same(pt);

  PageTable copy(pt);
  EXPECT_EQ(copy.generation(), pt.generation());
  EXPECT_EQ(copy.TableBytes(), pt.TableBytes());
  expect_same(copy);
  // The copy owns its nodes: edits to either side stay on that side.
  pt.UnmapRange(kDirectMap, kRunPages);
  Pte* edited = copy.LookupMutable(Page(kDirectMap, 2 * kRunPages));
  ASSERT_NE(edited, nullptr);
  edited->frame = 7;
  EXPECT_FALSE(pt.Lookup(kDirectMap).has_value());
  EXPECT_EQ(pt.Lookup(Page(kDirectMap, 2 * kRunPages))->frame, 2 * kRunPages);
  edited->frame = 2 * kRunPages;
  expect_same(copy);

  PageTable restored;
  restored.Map(0xFFFFFFFFA0000000ULL, 5, kRw);
  const uint64_t generation = restored.generation();
  restored = copy;
  EXPECT_GT(restored.generation(), generation);
  EXPECT_FALSE(restored.Lookup(0xFFFFFFFFA0000000ULL).has_value());
  expect_same(restored);
}

TEST(PageTableRadix, A64MbPhysmapCostsUnder64KbOfTable) {
  PageTable pt;
  pt.MapRange(kDirectMap, 0, (64ULL << 20) >> kPageShift, kRw);
  EXPECT_EQ(pt.MappedPageCount(), 16384u);
  EXPECT_LT(pt.TableBytes(), 64u << 10);
  // Removing a code synonym splits one 2 MB mapping into one leaf.
  const uint64_t whole = pt.TableBytes();
  pt.UnmapRange(Page(kDirectMap, 1), 3);
  EXPECT_GT(pt.TableBytes(), whole);
  EXPECT_LT(pt.TableBytes(), whole + (16u << 10));
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
