#include "src/mem/mmu.h"

#include <algorithm>

namespace krx {

namespace {

constexpr uint64_t kLevelBits = 9;

// Index into the level-`level` table (0 = page table ... 3 = PML4).
size_t Index(uint64_t vaddr, int level) {
  return (vaddr >> (kPageShift + kLevelBits * static_cast<uint64_t>(level))) &
         (PageTable::kFanout - 1);
}

// First address a page-directory slot maps, sign-extended from bit 47.
uint64_t SlotBase(uint64_t pml4, uint64_t pdpt, uint64_t dir) {
  const uint64_t vaddr = (pml4 << 39) | (pdpt << 30) | (dir << 21);
  return pml4 >= PageTable::kFanout / 2 ? vaddr | 0xFFFF000000000000ULL : vaddr;
}

// A range may not wrap or run into the non-canonical hole.
void CheckCanonicalRange(uint64_t vaddr, uint64_t num_pages) {
  if (num_pages == 0) {
    return;
  }
  const uint64_t last = vaddr + ((num_pages - 1) << kPageShift);
  KRX_CHECK(IsCanonical(vaddr) && last >= vaddr && (last >> 47) == (vaddr >> 47));
}

}  // namespace

const PageTable::Slot* PageTable::FindSlot(uint64_t vaddr) const {
  if (!IsCanonical(vaddr)) {
    return nullptr;
  }
  const Pdpt* pdpt = root_[Index(vaddr, 3)].get();
  if (pdpt == nullptr) {
    return nullptr;
  }
  const Dir* dir = (*pdpt)[Index(vaddr, 2)].get();
  return dir == nullptr ? nullptr : &(*dir)[Index(vaddr, 1)];
}

PageTable::Slot& PageTable::SlotFor(uint64_t vaddr) {
  Owned<Pdpt>& pdpt = root_[Index(vaddr, 3)];
  if (pdpt == nullptr) {
    pdpt.reset(new Pdpt);
  }
  Owned<Dir>& dir = (*pdpt)[Index(vaddr, 2)];
  if (dir == nullptr) {
    dir.reset(new Dir);
  }
  return (*dir)[Index(vaddr, 1)];
}

PageTable::Leaf& PageTable::LeafOf(Slot& slot) {
  if (slot.leaf == nullptr) {
    slot.leaf.reset(new Leaf);
    if (slot.huge) {
      for (uint64_t i = 0; i < kFanout; ++i) {
        slot.leaf->ptes[i] = Pte{slot.frame + i, slot.flags};
      }
      slot.leaf->mapped.set();
      slot.huge = false;
    }
  }
  return *slot.leaf;
}

void PageTable::Map(uint64_t vaddr, uint64_t frame, PteFlags flags) {
  MapRange(PageFloor(vaddr), frame, 1, flags);
}

void PageTable::Unmap(uint64_t vaddr) { UnmapRange(PageFloor(vaddr), 1); }

std::optional<Pte> PageTable::Lookup(uint64_t vaddr) const {
  const Slot* slot = FindSlot(vaddr);
  if (slot == nullptr) {
    return std::nullopt;
  }
  const size_t i = Index(vaddr, 0);
  if (slot->huge) {
    return Pte{slot->frame + i, slot->flags};
  }
  if (slot->leaf == nullptr || !slot->leaf->mapped[i]) {
    return std::nullopt;
  }
  return slot->leaf->ptes[i];
}

Pte* PageTable::LookupMutable(uint64_t vaddr) {
  Slot* slot = const_cast<Slot*>(FindSlot(vaddr));
  if (slot == nullptr || slot->empty()) {
    return nullptr;
  }
  Leaf& leaf = LeafOf(*slot);
  const size_t i = Index(vaddr, 0);
  return leaf.mapped[i] ? &leaf.ptes[i] : nullptr;
}

void PageTable::MapRange(uint64_t vaddr, uint64_t first_frame, uint64_t num_pages,
                         PteFlags flags) {
  KRX_CHECK(PageOffset(vaddr) == 0);
  CheckCanonicalRange(vaddr, num_pages);
  for (uint64_t done = 0; done < num_pages;) {
    const uint64_t page = vaddr + (done << kPageShift);
    const uint64_t frame = first_frame + done;
    const size_t first = Index(page, 0);
    const uint64_t n = std::min(kFanout - first, num_pages - done);
    done += n;
    Slot& slot = SlotFor(page);
    if (n == kFanout && frame % kFanout == 0) {
      const uint64_t had = slot.huge ? kFanout : slot.leaf ? slot.leaf->mapped.count() : 0;
      mapped_pages_ += kFanout - had;
      slot = Slot{{}, frame, flags, /*huge=*/true};
      continue;
    }
    Leaf& leaf = LeafOf(slot);
    for (size_t i = first; i < first + n; ++i) {
      mapped_pages_ += leaf.mapped[i] ? 0 : 1;
      leaf.ptes[i] = Pte{frame + (i - first), flags};
      leaf.mapped.set(i);
    }
  }
  BumpGeneration();
}

void PageTable::UnmapRange(uint64_t vaddr, uint64_t num_pages) {
  KRX_CHECK(PageOffset(vaddr) == 0);
  CheckCanonicalRange(vaddr, num_pages);
  for (uint64_t done = 0; done < num_pages;) {
    const uint64_t page = vaddr + (done << kPageShift);
    const size_t first = Index(page, 0);
    const uint64_t n = std::min(kFanout - first, num_pages - done);
    done += n;
    Owned<Pdpt>& pdpt = root_[Index(page, 3)];
    if (pdpt == nullptr) {
      continue;
    }
    Owned<Dir>& dir = (*pdpt)[Index(page, 2)];
    if (dir == nullptr) {
      continue;
    }
    Slot& slot = (*dir)[Index(page, 1)];
    if (slot.empty()) {
      continue;
    }
    if (n == kFanout && slot.huge) {
      mapped_pages_ -= kFanout;
      slot = Slot{};
    } else {
      Leaf& leaf = LeafOf(slot);
      for (size_t i = first; i < first + n; ++i) {
        mapped_pages_ -= leaf.mapped[i] ? 1 : 0;
        leaf.mapped.reset(i);
      }
      if (leaf.mapped.none()) {
        slot.leaf.reset();
      }
    }
    // Free the directories this emptied, so remap churn does not grow the
    // table.
    if (slot.empty() &&
        std::all_of(dir->begin(), dir->end(), [](const Slot& s) { return s.empty(); })) {
      dir.reset();
      if (std::all_of(pdpt->begin(), pdpt->end(),
                      [](const Owned<Dir>& d) { return d == nullptr; })) {
        pdpt.reset();
      }
    }
  }
  BumpGeneration();
}

uint64_t PageTable::TableBytes() const {
  uint64_t bytes = sizeof(Pml4);
  for (const Owned<Pdpt>& pdpt : root_) {
    if (pdpt == nullptr) {
      continue;
    }
    bytes += sizeof(Pdpt);
    for (const Owned<Dir>& dir : *pdpt) {
      if (dir == nullptr) {
        continue;
      }
      bytes += sizeof(Dir);
      for (const Slot& slot : *dir) {
        bytes += slot.leaf != nullptr ? sizeof(Leaf) : 0;
      }
    }
  }
  return bytes;
}

std::vector<uint64_t> PageTable::FindWxViolations() const {
  auto wx = [](const PteFlags& f) { return f.present && f.writable && !f.nx; };
  std::vector<uint64_t> out;
  for (uint64_t i3 = 0; i3 < kFanout; ++i3) {
    const Pdpt* pdpt = root_[i3].get();
    if (pdpt == nullptr) {
      continue;
    }
    for (uint64_t i2 = 0; i2 < kFanout; ++i2) {
      const Dir* dir = (*pdpt)[i2].get();
      if (dir == nullptr) {
        continue;
      }
      for (uint64_t i1 = 0; i1 < kFanout; ++i1) {
        const Slot& slot = (*dir)[i1];
        if (slot.empty() || (slot.huge && !wx(slot.flags))) {
          continue;
        }
        for (uint64_t i = 0; i < kFanout; ++i) {
          if (slot.huge || (slot.leaf->mapped[i] && wx(slot.leaf->ptes[i].flags))) {
            out.push_back(SlotBase(i3, i2, i1) + (i << kPageShift));
          }
        }
      }
    }
  }
  return out;
}

Translation Mmu::Walk(uint64_t vaddr, Access access) const {
  const std::optional<Pte> pte = pt_->Lookup(vaddr);
  if (!pte || !pte->flags.present) {
    return Translation{};
  }
  // Split ITLB/DTLB view (HideM baseline): data accesses may be steered to
  // a shadow frame.
  const uint64_t frame =
      pte->has_data_frame && access != Access::kExec ? pte->data_frame : pte->frame;
  Translation t{FaultKind::kNone, (frame << kPageShift) | PageOffset(vaddr), pte->flags};
  const PteFlags& f = pte->flags;
  switch (access) {
    case Access::kRead:
      // x86: present implies readable — even for code pages. Execute-only
      // is not expressible here; this is the premise of the paper.
      if (smap_ && f.user) {
        t.fault = FaultKind::kSmapViolation;
      }
      break;
    case Access::kWrite:
      if (!f.writable) {
        t.fault = FaultKind::kWriteProtect;
      } else if (smap_ && f.user) {
        t.fault = FaultKind::kSmapViolation;
      }
      break;
    case Access::kExec:
      if (f.nx) {
        t.fault = FaultKind::kNxViolation;
      } else if (smep_ && f.user) {
        // SMEP: supervisor-mode fetch from a user page — the ret2usr killer.
        t.fault = FaultKind::kSmepViolation;
      }
      break;
  }
  return t;
}

Result<uint64_t> Mmu::Translate(uint64_t vaddr, Access access) {
  const Translation t = Walk(vaddr, access);
  if (!t.ok()) {
    last_fault_ = PageFault{t.fault, vaddr, access};
    return PermissionDeniedError(std::string("#PF: ") + FaultKindName(t.fault));
  }
  return t.paddr;
}

Result<uint64_t> Mmu::Read64(uint64_t vaddr) {
  auto pa = Translate(vaddr, Access::kRead);
  if (!pa.ok()) {
    return pa.status();
  }
  const uint64_t n = kPageSize - PageOffset(vaddr);  // bytes on the first page
  if (n >= 8) {
    return phys_->Read64(*pa);
  }
  // Crossing a page boundary: the rest of the value sits on the next page,
  // walked once.
  auto pa_hi = Translate(vaddr + n, Access::kRead);
  if (!pa_hi.ok()) {
    return pa_hi.status();
  }
  uint64_t v = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    const uint64_t p = i < n ? *pa + i : *pa_hi + (i - n);
    v |= static_cast<uint64_t>(phys_->Read8(p)) << (8 * i);
  }
  return v;
}

Result<StoreFrames> Mmu::Write64(uint64_t vaddr, uint64_t value) {
  auto pa = Translate(vaddr, Access::kWrite);
  if (!pa.ok()) {
    return pa.status();
  }
  const uint64_t n = kPageSize - PageOffset(vaddr);  // bytes on the first page
  if (n >= 8) {
    phys_->Write64(*pa, value);
    return StoreFrames{*pa >> kPageShift, *pa >> kPageShift};
  }
  // Crossing a page boundary: both pages are walked before any byte is
  // written, so a store whose second page faults writes nothing (x86 raises
  // the #PF before the store commits).
  auto pa_hi = Translate(vaddr + n, Access::kWrite);
  if (!pa_hi.ok()) {
    return pa_hi.status();
  }
  for (uint64_t i = 0; i < 8; ++i) {
    const uint64_t p = i < n ? *pa + i : *pa_hi + (i - n);
    phys_->Write8(p, static_cast<uint8_t>(value >> (8 * i)));
  }
  return StoreFrames{*pa >> kPageShift, *pa_hi >> kPageShift};
}

Result<uint64_t> Mmu::FetchCode(uint64_t vaddr, uint8_t* buf, uint64_t len) {
  uint64_t copied = 0;
  while (copied < len) {
    auto pa = Translate(vaddr + copied, Access::kExec);
    if (!pa.ok()) {
      if (copied == 0) {
        return pa.status();
      }
      break;  // Partial fetch up to the unmapped boundary.
    }
    uint64_t in_page = kPageSize - PageOffset(vaddr + copied);
    uint64_t n = std::min(in_page, len - copied);
    phys_->ReadBytes(*pa, buf + copied, n);
    copied += n;
  }
  return copied;
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kNotPresent: return "not-present";
    case FaultKind::kWriteProtect: return "write-protect";
    case FaultKind::kNxViolation: return "nx-violation";
    case FaultKind::kSmepViolation: return "smep-violation";
    case FaultKind::kSmapViolation: return "smap-violation";
  }
  return "??";
}

}  // namespace krx
