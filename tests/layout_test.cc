// Address-space layout invariants (§5.1.1): region disjointness, the
// -mcmodel=kernel reachability constraints, and DESIGN.md's layout
// properties checked on actual builds.
#include <gtest/gtest.h>

#include "src/kernel/layout.h"
#include "src/plugin/pipeline.h"
#include "src/workload/corpus.h"

namespace krx {
namespace {

TEST(LayoutConstants, RegionsAreOrderedAndDisjoint) {
  // Lower canonical-half regions, in order.
  EXPECT_LT(kPhysmapBase, kVmallocBase);
  EXPECT_LT(kVmallocBase, kVmemmapBase);
  EXPECT_LT(kVmemmapBase, kImageBase);
  // kR^X-KAS data regions below the code base.
  EXPECT_LT(kImageBase, kKrxModulesDataBase);
  EXPECT_LE(kKrxModulesDataBase + kKrxModulesDataLen, kKrxFixmapBase);
  EXPECT_LT(kKrxFixmapBase, kKrxCodeBase);
  EXPECT_LT(kKrxCodeBase, kKrxModulesTextBase);
  // modules_text ends exactly at the top of the address space.
  EXPECT_EQ(kKrxModulesTextBase + kKrxModulesTextLen, 0u);
}

TEST(LayoutConstants, KernelImageRegionsFitTheCodeModel) {
  // -mcmodel=kernel: rip-relative disp32 and sign-extended imm32 must reach
  // everything in the image/module regions — i.e. the top 2GB.
  constexpr uint64_t kTop2G = 0xFFFFFFFF80000000ULL;
  EXPECT_GE(kImageBase, kTop2G);
  EXPECT_GE(kKrxModulesDataBase, kTop2G);
  EXPECT_GE(kKrxCodeBase, kTop2G);
  EXPECT_GE(kKrxModulesTextBase, kTop2G);
  EXPECT_GE(kVanillaModulesBase, kTop2G);
  // So _krx_edata survives the sign-extended-imm32 range-check encoding.
  int64_t edata = ComputeEdata(kDefaultPhantomGuardSize);
  EXPECT_GE(edata, static_cast<int64_t>(INT32_MIN));
  EXPECT_LT(edata, 0);  // upper canonical half
}

TEST(Layout, KrxBuildSeparatesCodeAndData) {
  auto kernel = CompileKernel(MakeBaseSource(), {ProtectionConfig::Full(false, RaScheme::kEncrypt, 2), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  uint64_t edata = kernel->image->krx_edata();
  for (const PlacedSection& s : kernel->image->sections()) {
    bool in_code = s.vaddr >= edata;
    if (SectionKindIsCodeRegion(s.kind) || s.kind == SectionKind::kPhantomGuard) {
      EXPECT_TRUE(in_code) << s.name;
    } else {
      EXPECT_FALSE(in_code) << s.name;
    }
    // No section straddles _krx_edata.
    EXPECT_TRUE(s.vaddr + s.mapped_size <= edata || s.vaddr >= edata) << s.name;
  }
}

TEST(Layout, VanillaBuildInterleavesWithinTheImage) {
  auto kernel = CompileKernel(MakeBaseSource(), {ProtectionConfig::Vanilla(), LayoutKind::kVanilla});
  ASSERT_TRUE(kernel.ok());
  const PlacedSection* text = kernel->image->FindSection(".text");
  const PlacedSection* data = kernel->image->FindSection(".data");
  ASSERT_TRUE(text && data);
  // Everything within one contiguous image stretch; code first.
  EXPECT_EQ(text->vaddr, kImageBase);
  EXPECT_LT(data->vaddr - text->vaddr, 64ULL << 20);
}

TEST(Layout, SectionsPageAlignedAndNonOverlapping) {
  for (LayoutKind layout : {LayoutKind::kVanilla, LayoutKind::kKrx}) {
    auto kernel = CompileKernel(MakeBaseSource(), {layout == LayoutKind::kKrx
                                    ? ProtectionConfig::Full(false, RaScheme::kDecoy, 3)
                                    : ProtectionConfig::Vanilla(), layout});
    ASSERT_TRUE(kernel.ok());
    const auto& sections = kernel->image->sections();
    for (size_t i = 0; i < sections.size(); ++i) {
      EXPECT_EQ(PageOffset(sections[i].vaddr), 0u) << sections[i].name;
      for (size_t j = i + 1; j < sections.size(); ++j) {
        uint64_t a0 = sections[i].vaddr, a1 = a0 + sections[i].mapped_size;
        uint64_t b0 = sections[j].vaddr, b1 = b0 + sections[j].mapped_size;
        EXPECT_TRUE(a1 <= b0 || b1 <= a0)
            << sections[i].name << " overlaps " << sections[j].name;
      }
    }
  }
}

TEST(Layout, CoarseSlideKeepsRegionInvariants) {
  ProtectionConfig config;
  config.coarse_kaslr = true;
  config.seed = 99;
  auto kernel = CompileKernel(MakeBaseSource(), {config, LayoutKind::kVanilla});
  ASSERT_TRUE(kernel.ok());
  const PlacedSection* text = kernel->image->FindSection(".text");
  ASSERT_NE(text, nullptr);
  EXPECT_GT(text->vaddr, kImageBase);                 // actually slid
  EXPECT_EQ(PageOffset(text->vaddr), 0u);             // page aligned
  EXPECT_LT(text->vaddr, kImageBase + (64ULL << 20)); // bounded slide
}

TEST(Layout, GuardSectionIsUnwritableAndUnexecutable) {
  auto kernel = CompileKernel(MakeBaseSource(), {ProtectionConfig::SfiOnly(SfiLevel::kO3), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  const PlacedSection* guard = kernel->image->FindSection(".krx_phantom");
  ASSERT_NE(guard, nullptr);
  const std::optional<Pte> pte = kernel->image->page_table().Lookup(guard->vaddr);
  ASSERT_TRUE(pte.has_value());
  EXPECT_FALSE(pte->flags.writable);
  EXPECT_TRUE(pte->flags.nx);
  // Stray %rsp-relative reads that spill past _krx_edata land here and read
  // zeros instead of code.
  auto v = kernel->image->Peek64(guard->vaddr + 128);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0u);
}

}  // namespace
}  // namespace krx
