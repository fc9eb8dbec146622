// Slab allocator and vmalloc arena — including the §5.1.1 claim that
// kR^X-KAS is transparent to them (same allocator code, both layouts).
#include <gtest/gtest.h>

#include <map>

#include "src/base/rng.h"
#include "src/kernel/allocator.h"
#include "src/plugin/pipeline.h"
#include "src/workload/corpus.h"

namespace krx {
namespace {

CompiledKernel Build(LayoutKind layout) {
  auto kernel = CompileKernel(MakeBaseSource(), {layout == LayoutKind::kKrx
                                  ? ProtectionConfig::Full(false, RaScheme::kEncrypt, 1)
                                  : ProtectionConfig::Vanilla(), layout});
  KRX_CHECK(kernel.ok());
  return std::move(*kernel);
}

class AllocatorLayoutTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(AllocatorLayoutTest, KmallocRoundTripAndReuse) {
  CompiledKernel kernel = Build(GetParam());
  SlabAllocator slab(kernel.image.get());
  auto a = slab.Kmalloc(48);   // -> 64-byte class
  auto b = slab.Kmalloc(48);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(PageFloor(*a), PageFloor(*b));  // same slab
  EXPECT_EQ(*b - *a, 64u);                  // size-class spacing
  // Memory is usable.
  ASSERT_TRUE(kernel.image->Poke64(*a, 0x1111).ok());
  ASSERT_TRUE(kernel.image->Poke64(*b, 0x2222).ok());
  auto va = kernel.image->Peek64(*a);
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(*va, 0x1111u);
  // Freed objects are reused.
  ASSERT_TRUE(slab.Kfree(*a).ok());
  auto c = slab.Kmalloc(64);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);
}

TEST_P(AllocatorLayoutTest, KmallocStress) {
  CompiledKernel kernel = Build(GetParam());
  SlabAllocator slab(kernel.image.get());
  Rng rng(7);
  std::map<uint64_t, uint64_t> live;  // addr -> tag
  for (int i = 0; i < 4000; ++i) {
    if (live.size() < 200 && (live.empty() || rng.NextBool(0.6))) {
      uint64_t size = 1 + rng.NextBelow(kPageSize);
      auto p = slab.Kmalloc(size);
      ASSERT_TRUE(p.ok());
      EXPECT_EQ(live.count(*p), 0u) << "allocator handed out a live object";
      uint64_t tag = rng.Next();
      ASSERT_TRUE(kernel.image->Poke64(*p, tag).ok());
      live[*p] = tag;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(live.size())));
      auto v = kernel.image->Peek64(it->first);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(*v, it->second) << "object corrupted while live";
      ASSERT_TRUE(slab.Kfree(it->first).ok());
      live.erase(it);
    }
  }
  EXPECT_EQ(slab.stats().live_objects, live.size());
  EXPECT_EQ(slab.stats().allocations - slab.stats().frees, live.size());
}

TEST_P(AllocatorLayoutTest, VmallocMapsAndGuards) {
  CompiledKernel kernel = Build(GetParam());
  VmallocArena arena(kernel.image.get());
  auto p = arena.Vmalloc(3 * kPageSize + 10);
  ASSERT_TRUE(p.ok());
  EXPECT_GE(*p, kVmallocBase);
  // All four pages usable...
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(kernel.image->Poke64(*p + static_cast<uint64_t>(i) * kPageSize, 1).ok());
  }
  // ...and the guard page after the range is unmapped.
  EXPECT_FALSE(kernel.image->page_table().Lookup(*p + 4 * kPageSize).has_value());
  // A second allocation lands past the guard.
  auto q = arena.Vmalloc(kPageSize);
  ASSERT_TRUE(q.ok());
  EXPECT_GE(*q, *p + 5 * kPageSize);
  ASSERT_TRUE(arena.Vfree(*p).ok());
  EXPECT_FALSE(kernel.image->page_table().Lookup(*p).has_value());
  EXPECT_FALSE(arena.Vfree(*p).ok());  // double vfree rejected
}

INSTANTIATE_TEST_SUITE_P(Layouts, AllocatorLayoutTest,
                         ::testing::Values(LayoutKind::kVanilla, LayoutKind::kKrx),
                         [](const ::testing::TestParamInfo<LayoutKind>& param_info) {
                           return param_info.param == LayoutKind::kKrx ? "KrxKas" : "Vanilla";
                         });

TEST(Allocator, KmallocRejectsBadSizes) {
  CompiledKernel kernel = Build(LayoutKind::kVanilla);
  SlabAllocator slab(kernel.image.get());
  EXPECT_FALSE(slab.Kmalloc(0).ok());
  EXPECT_FALSE(slab.Kmalloc(kPageSize + 1).ok());
}

TEST(Allocator, KfreeRejectsBogusPointers) {
  CompiledKernel kernel = Build(LayoutKind::kVanilla);
  SlabAllocator slab(kernel.image.get());
  auto p = slab.Kmalloc(100);  // -> 128-byte class
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(slab.Kfree(*p + 4).ok());          // interior pointer
  EXPECT_FALSE(slab.Kfree(kPhysmapBase).ok());    // non-slab page
  EXPECT_TRUE(slab.Kfree(*p).ok());
}

TEST(Allocator, AllocationsLandInTheDataRegion) {
  // The attack-relevant property: kmalloc'd objects (and with them kernel
  // stacks and heap spray) are *readable* data under kR^X.
  CompiledKernel kernel = Build(LayoutKind::kKrx);
  SlabAllocator slab(kernel.image.get());
  auto p = slab.Kmalloc(256);
  ASSERT_TRUE(p.ok());
  EXPECT_LT(*p, kernel.image->krx_edata());
  EXPECT_FALSE(kernel.image->InCodeRegion(*p));
}

}  // namespace
}  // namespace krx
