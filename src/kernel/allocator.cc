#include "src/kernel/allocator.h"

#include "src/base/math_util.h"

namespace krx {
namespace {

// The low `n` bits set, for n in [0, 64]; a 32-byte class has 128 objects,
// and shifting a 64-bit value by 64 is undefined.
uint64_t LowBits(uint64_t n) { return n >= 64 ? ~0ULL : (1ULL << n) - 1; }

uint64_t SizeClassFor(uint64_t size) {
  uint64_t cls = SlabAllocator::kMinObject;
  while (cls < size) {
    cls <<= 1;
  }
  return cls;
}

}  // namespace

bool SlabAllocator::Slab::Full() const { return free_mask == 0 && free_mask_hi == 0; }

bool SlabAllocator::Slab::Empty() const {
  uint64_t cap = capacity();
  if (cap <= 64) {
    return free_mask == LowBits(cap);
  }
  return free_mask == ~0ULL && free_mask_hi == LowBits(cap - 64);
}

int SlabAllocator::Slab::TakeFreeIndex() {
  if (free_mask != 0) {
    int idx = __builtin_ctzll(free_mask);
    free_mask &= free_mask - 1;
    return idx;
  }
  if (free_mask_hi != 0) {
    int idx = __builtin_ctzll(free_mask_hi);
    free_mask_hi &= free_mask_hi - 1;
    return 64 + idx;
  }
  return -1;
}

void SlabAllocator::Slab::Release(uint64_t index) {
  if (index < 64) {
    KRX_CHECK((free_mask & (1ULL << index)) == 0 && "double free");
    free_mask |= 1ULL << index;
  } else {
    KRX_CHECK((free_mask_hi & (1ULL << (index - 64))) == 0 && "double free");
    free_mask_hi |= 1ULL << (index - 64);
  }
}

Result<SlabAllocator::Slab*> SlabAllocator::SlabWithSpace(uint64_t object_size) {
  auto& slabs = caches_[object_size];
  for (Slab& s : slabs) {
    if (!s.Full()) {
      return &s;
    }
  }
  auto page = image_->AllocDataPages(1);
  if (!page.ok()) {
    return page.status();
  }
  Slab s;
  s.base = *page;
  s.object_size = object_size;
  uint64_t cap = s.capacity();
  if (cap <= 64) {
    s.free_mask = LowBits(cap);
  } else {
    s.free_mask = ~0ULL;
    s.free_mask_hi = LowBits(cap - 64);
  }
  slabs.push_back(s);
  page_class_[*page] = object_size;
  ++stats_.slabs;
  return &slabs.back();
}

Result<uint64_t> SlabAllocator::Kmalloc(uint64_t size) {
  if (size == 0 || size > kPageSize) {
    return InvalidArgumentError("kmalloc size out of range");
  }
  auto slab = SlabWithSpace(SizeClassFor(size));
  if (!slab.ok()) {
    return slab.status();
  }
  int idx = (*slab)->TakeFreeIndex();
  KRX_CHECK(idx >= 0);
  ++stats_.allocations;
  ++stats_.live_objects;
  return (*slab)->base + static_cast<uint64_t>(idx) * (*slab)->object_size;
}

Status SlabAllocator::Kfree(uint64_t vaddr) {
  uint64_t page = PageFloor(vaddr);
  auto it = page_class_.find(page);
  if (it == page_class_.end()) {
    return InvalidArgumentError("kfree of non-slab address");
  }
  uint64_t object_size = it->second;
  if ((vaddr - page) % object_size != 0) {
    return InvalidArgumentError("kfree of interior pointer");
  }
  for (Slab& s : caches_[object_size]) {
    if (s.base == page) {
      s.Release((vaddr - page) / object_size);
      ++stats_.frees;
      --stats_.live_objects;
      return Status::Ok();
    }
  }
  return InternalError("slab bookkeeping inconsistent");
}

Result<uint64_t> VmallocArena::Vmalloc(uint64_t bytes) {
  if (bytes == 0) {
    return InvalidArgumentError("vmalloc of zero bytes");
  }
  uint64_t pages = AlignUp(bytes, kPageSize) >> kPageShift;
  // +1 unmapped guard page after the range.
  if (cursor_pages_ + pages + 1 > arena_pages_) {
    return ResourceExhaustedError("vmalloc arena exhausted");
  }
  uint64_t vaddr = kVmallocBase + (cursor_pages_ << kPageShift);
  cursor_pages_ += pages + 1;

  auto frames = image_->phys().AllocFrames(pages);
  if (!frames.ok()) {
    return frames.status();
  }
  PteFlags flags;
  flags.present = true;
  flags.writable = true;
  flags.nx = true;
  image_->page_table().MapRange(vaddr, *frames, pages, flags);
  ranges_[vaddr] = pages;
  return vaddr;
}

Status VmallocArena::Vfree(uint64_t vaddr) {
  auto it = ranges_.find(vaddr);
  if (it == ranges_.end()) {
    return InvalidArgumentError("vfree of unknown range");
  }
  image_->page_table().UnmapRange(vaddr, it->second);
  ranges_.erase(it);
  return Status::Ok();
}

}  // namespace krx
