#include "src/kernel/baseline_defenses.h"

#include <vector>

namespace krx {

void XnrState::Protect(uint64_t vaddr, uint64_t num_pages) {
  for (uint64_t i = 0; i < num_pages; ++i) {
    uint64_t page = PageFloor(vaddr) + i * kPageSize;
    const std::optional<Pte> pte = pt_->Lookup(page);
    if (!pte) {
      continue;
    }
    pages_[page] = *pte;
    pt_->Unmap(page);
  }
}

bool XnrState::IsResident(uint64_t vaddr) const {
  uint64_t page = PageFloor(vaddr);
  for (uint64_t r : window_) {
    if (r == page) {
      return true;
    }
  }
  return false;
}

bool XnrState::HandleFetchFault(uint64_t vaddr) {
  uint64_t page = PageFloor(vaddr);
  auto it = pages_.find(page);
  if (it == pages_.end()) {
    return false;
  }
  if (IsResident(page)) {
    return false;  // present already; the fault was something else
  }
  ++fetch_faults_;
  // Evict the oldest resident page to keep the window bounded.
  while (window_.size() >= window_size_ && !window_.empty()) {
    uint64_t victim = window_.front();
    window_.pop_front();
    pt_->Unmap(victim);
  }
  pt_->Map(page, it->second.frame, it->second.flags);
  window_.push_back(page);
  return true;
}

XnrState* EnableXnr(KernelImage& image, size_t window_size) {
  auto state = std::make_unique<XnrState>(&image.page_table(), window_size);
  for (const PlacedSection& s : image.sections()) {
    if (s.kind == SectionKind::kText) {
      state->Protect(s.vaddr, s.mapped_size >> kPageShift);
    }
  }
  XnrState* raw = state.get();
  image.set_xnr(std::move(state));
  return raw;
}

Result<uint64_t> EnableHidem(KernelImage& image, uint8_t poison) {
  uint64_t split = 0;
  for (const PlacedSection& s : image.sections()) {
    if (s.kind != SectionKind::kText) {
      continue;
    }
    uint64_t pages = s.mapped_size >> kPageShift;
    auto shadow = image.phys().AllocFrames(pages);
    if (!shadow.ok()) {
      return shadow.status();
    }
    image.phys().Fill(*shadow << kPageShift, poison, pages << kPageShift);
    for (uint64_t i = 0; i < pages; ++i) {
      Pte* pte = image.page_table().LookupMutable(s.vaddr + i * kPageSize);
      KRX_CHECK(pte != nullptr);
      pte->has_data_frame = true;
      pte->data_frame = *shadow + i;
      ++split;
    }
    image.page_table().BumpGeneration();
  }
  return split;
}

}  // namespace krx
