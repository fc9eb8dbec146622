#include "src/mem/phys_mem.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <iterator>
#include <vector>

namespace krx {
namespace {

uint64_t HostPageSize() {
  static const uint64_t size = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  return size;
}

}  // namespace

PhysMem::PhysMem(uint64_t size_bytes) : size_(size_bytes) {
  KRX_CHECK(size_bytes % kPageSize == 0);
  if (size_bytes == 0) {
    return;
  }
  void* p = mmap(nullptr, size_bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  KRX_CHECK(p != MAP_FAILED);
  // Under transparent huge pages "always", one written frame would cost
  // the host a 2MB page.
  madvise(p, size_bytes, MADV_NOHUGEPAGE);
  bytes_ = static_cast<uint8_t*>(p);
}

PhysMem::~PhysMem() {
  if (bytes_ != nullptr) {
    munmap(bytes_, size_);
  }
}

Result<uint64_t> PhysMem::AllocFrames(uint64_t count) {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  auto it = free_extents_.begin();
  while (it != free_extents_.end() && it->second < count) {
    ++it;
  }
  if (it == free_extents_.end()) {
    if (next_free_frame_ + count > num_frames()) {
      return ResourceExhaustedError("out of physical frames");
    }
    // Above the high-water mark nothing was ever handed out, so the frames
    // still read zero.
    const uint64_t first = next_free_frame_;
    next_free_frame_ += count;
    return first;
  }
  const uint64_t first = it->first;
  const uint64_t left = it->second - count;
  free_extents_.erase(it);
  if (left != 0) {
    free_extents_.emplace(first + count, left);
  }
  free_frames_ -= count;
  // A checkpoint restore may have written into the extent while it was free.
  ZeroFrames(first, count);
  return first;
}

void PhysMem::FreeFrames(uint64_t first, uint64_t count) {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  KRX_CHECK(first + count <= next_free_frame_);
  // Extents never touch, so only the neighbours can overlap a valid free.
  auto next = free_extents_.lower_bound(first);
  KRX_CHECK(next == free_extents_.end() || first + count <= next->first);
  auto prev = next == free_extents_.begin() ? free_extents_.end() : std::prev(next);
  KRX_CHECK(prev == free_extents_.end() || prev->first + prev->second <= first);
  if (count == 0) {
    return;
  }
  ZeroFrames(first, count);
  free_frames_ += count;
  if (prev != free_extents_.end() && prev->first + prev->second == first) {
    first = prev->first;
    count += prev->second;
    free_extents_.erase(prev);
  }
  if (next != free_extents_.end() && next->first == first + count) {
    count += next->second;
    free_extents_.erase(next);
  }
  free_extents_.emplace(first, count);
}

void PhysMem::ZeroFrames(uint64_t first, uint64_t count) {
  KRX_CHECK(first + count <= num_frames());
  uint8_t* p = bytes_ + (first << kPageShift);
  const uint64_t len = count << kPageShift;
  if (len == 0) {
    return;
  }
  // MADV_DONTNEED on private anonymous memory: the next touch maps a fresh
  // zero page. A host page larger than a frame would drop neighbours too.
  if (HostPageSize() != kPageSize || madvise(p, len, MADV_DONTNEED) != 0) {
    std::memset(p, 0, len);
  }
}

uint64_t PhysMem::frames_allocated() const {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  return next_free_frame_ - free_frames_;
}

uint64_t PhysMem::high_water_frames() const {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  return next_free_frame_;
}

uint64_t PhysMem::resident_bytes() const {
  const uint64_t len = high_water_frames() << kPageShift;
  if (len == 0) {
    return 0;
  }
  const uint64_t host_page = HostPageSize();
  std::vector<unsigned char> pages((len + host_page - 1) / host_page);
  if (mincore(bytes_, len, pages.data()) != 0) {
    return 0;
  }
  uint64_t resident = 0;
  for (unsigned char page : pages) {
    resident += page & 1;
  }
  return resident * host_page;
}

uint64_t ProcessRssBytes() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb << 10;
}

}  // namespace krx
