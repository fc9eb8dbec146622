// Simulated physical memory: one private anonymous host mapping, so frames
// nobody wrote read zero and cost no host memory, plus a frame allocator
// that reuses freed extents before it raises its high-water mark.
#ifndef KRX_SRC_MEM_PHYS_MEM_H_
#define KRX_SRC_MEM_PHYS_MEM_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>

#include "src/base/status.h"

namespace krx {

inline constexpr uint64_t kPageSize = 4096;
inline constexpr uint64_t kPageShift = 12;

inline uint64_t PageFloor(uint64_t addr) { return addr & ~(kPageSize - 1); }
inline uint64_t PageOffset(uint64_t addr) { return addr & (kPageSize - 1); }

class PhysMem {
 public:
  // Reserves `size_bytes` of demand-zero host memory (MAP_NORESERVE): a
  // frame takes a host page only once it is written.
  explicit PhysMem(uint64_t size_bytes);
  ~PhysMem();
  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  uint64_t size() const { return size_; }
  uint64_t num_frames() const { return size() >> kPageShift; }

  // Allocates `count` contiguous frames that read zero; returns the first
  // frame number. The lowest freed extent that fits is reused before the
  // high-water mark moves. Thread-safe: the parallel bench driver sets up
  // and releases per-task CPU stacks and scratch buffers on a shared image
  // concurrently.
  Result<uint64_t> AllocFrames(uint64_t count);

  // Returns frames [first, first + count) to the allocator and their host
  // pages to the host. Freeing frames that are free already, or that were
  // never handed out, aborts. Thread-safe.
  void FreeFrames(uint64_t first, uint64_t count);

  // Makes frames [first, first + count) read zero and gives their host
  // pages back, without changing who owns them.
  void ZeroFrames(uint64_t first, uint64_t count);

  // Frames currently handed out (allocated and not freed). The fleet memory
  // accounting reads this as an image's *used* footprint, as opposed to
  // size(), the reserved capacity. Thread-safe.
  uint64_t frames_allocated() const;

  // One past the highest frame ever handed out. It never falls: no frame
  // at or above it has been allocated yet. Thread-safe.
  uint64_t high_water_frames() const;

  // Host memory mapped under the frames below the high-water mark, by
  // mincore(2). Frames that were only read map the host's shared zero page,
  // which mincore counts and RSS does not, so this can exceed what the
  // image adds to RSS. Thread-safe.
  uint64_t resident_bytes() const;

  // Every accessor bounds-checks: guest memory is not a heap block, so
  // these checks are the only guard ASan leaves it.
  uint8_t Read8(uint64_t paddr) const {
    KRX_CHECK(paddr < size());
    return bytes_[paddr];
  }
  void Write8(uint64_t paddr, uint8_t v) {
    KRX_CHECK(paddr < size());
    bytes_[paddr] = v;
  }

  uint64_t Read64(uint64_t paddr) const {
    KRX_CHECK(paddr + 8 <= size());
    uint64_t v;
    std::memcpy(&v, bytes_ + paddr, 8);
    return v;
  }
  void Write64(uint64_t paddr, uint64_t v) {
    KRX_CHECK(paddr + 8 <= size());
    std::memcpy(bytes_ + paddr, &v, 8);
  }

  void WriteBytes(uint64_t paddr, const uint8_t* src, uint64_t len) {
    KRX_CHECK(paddr + len <= size());
    std::memcpy(bytes_ + paddr, src, len);
  }
  void ReadBytes(uint64_t paddr, uint8_t* dst, uint64_t len) const {
    KRX_CHECK(paddr + len <= size());
    std::memcpy(dst, bytes_ + paddr, len);
  }
  void Fill(uint64_t paddr, uint8_t value, uint64_t len) {
    KRX_CHECK(paddr + len <= size());
    std::memset(bytes_ + paddr, value, len);
  }

 private:
  uint8_t* bytes_ = nullptr;
  uint64_t size_ = 0;
  mutable std::mutex alloc_mu_;
  uint64_t next_free_frame_ = 0;  // the high-water mark
  // Freed extents below the high-water mark, first frame -> frame count;
  // neighbours are merged on free, so no two extents touch.
  std::map<uint64_t, uint64_t> free_extents_;
  uint64_t free_frames_ = 0;  // sum of the extents' counts
};

// Resident set of this process (VmRSS), in bytes; 0 where /proc is absent.
uint64_t ProcessRssBytes();

}  // namespace krx

#endif  // KRX_SRC_MEM_PHYS_MEM_H_
