// Page tables and MMU with x86-64 permission semantics.
//
// The crucial fidelity point for the kR^X reproduction (§2, footnote 1): on
// x86, the execute permission implies read access. A present page is always
// readable; NX only revokes execution. Execute-only memory is therefore not
// expressible in these page tables — which is exactly why kR^X enforces R^X
// with instrumentation instead of paging. The MMU models that rule: a data
// read succeeds on any present page, including code pages.
#ifndef KRX_SRC_MEM_MMU_H_
#define KRX_SRC_MEM_MMU_H_

#include <array>
#include <atomic>
#include <bitset>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/mem/phys_mem.h"

namespace krx {

// Page-table entry flags, modelled after x86-64 PTE bits.
struct PteFlags {
  bool present = true;
  bool writable = false;
  bool nx = false;    // eXecute-Disable
  bool user = false;  // U/S bit: user-accessible page

  bool operator==(const PteFlags&) const = default;
};

struct Pte {
  uint64_t frame = 0;  // physical frame number
  PteFlags flags;
  // HideM-style split view (§2): when set, *data* accesses translate to
  // this frame while instruction fetches use `frame` — the ITLB/DTLB
  // desynchronization trick, expressible because the simulated MMU lets a
  // kernel install per-access-type translations.
  bool has_data_frame = false;
  uint64_t data_frame = 0;
};

enum class Access : uint8_t { kRead, kWrite, kExec };

enum class FaultKind : uint8_t {
  kNone = 0,
  kNotPresent,    // #PF: no translation
  kWriteProtect,  // #PF: write to read-only page
  kNxViolation,   // #PF: instruction fetch from NX page
  kSmepViolation, // #PF: supervisor instruction fetch from a user page (SMEP)
  kSmapViolation, // #PF: supervisor data access to a user page (SMAP)
};

struct PageFault {
  FaultKind kind = FaultKind::kNone;
  uint64_t vaddr = 0;
  Access access = Access::kRead;
};

// x86-64 virtual addresses are 48 bits wide: bits 63:47 must all equal
// bit 47. Anything else is non-canonical and never translates.
inline bool IsCanonical(uint64_t vaddr) {
  const int64_t high = static_cast<int64_t>(vaddr) >> 47;
  return high == 0 || high == -1;
}

// The page table, shaped like x86-64's 4-level paging: 512 entries per
// level, indexed by bits 47:12 of a canonical address (PML4, PDPT, page
// directory, page table). A page-directory slot holds either one 2 MB
// mapping of 512 consecutive frames or a pointer to a 512-entry leaf, so a
// 64 MB physmap is 32 slots, the way Linux maps its direct map. Writing
// one page inside a 2 MB mapping first splits the slot into a leaf.
class PageTable {
 public:
  static constexpr uint64_t kFanout = 512;  // entries per level

  PageTable() = default;
  // Checkpoint capture copies the table by value; the copy starts with the
  // source's generation (a fresh object has no cached translations yet).
  PageTable(const PageTable& o)
      : root_(o.root_),
        mapped_pages_(o.mapped_pages_),
        generation_(o.generation_.load(std::memory_order_acquire)) {}
  // Checkpoint restore copy-assigns entries back into the live table. The
  // generation stays monotonic and is bumped — never rewound — so any
  // translation cached against this table before the restore is invalid
  // afterwards (a rewound counter could re-validate stale entries).
  PageTable& operator=(const PageTable& o) {
    if (this != &o) {
      root_ = o.root_;
      mapped_pages_ = o.mapped_pages_;
      BumpGeneration();
    }
    return *this;
  }

  // Maps the virtual page containing `vaddr` to `frame`. Remapping an
  // existing page replaces the entry. A non-canonical `vaddr` aborts.
  void Map(uint64_t vaddr, uint64_t frame, PteFlags flags);
  void Unmap(uint64_t vaddr);

  // The entry translating `vaddr`, by value: a page inside a 2 MB mapping
  // has no Pte of its own. Empty for unmapped and non-canonical addresses.
  std::optional<Pte> Lookup(uint64_t vaddr) const;
  // The entry itself, for in-place edits (callers bump the generation).
  // Splits a 2 MB mapping around `vaddr` into a leaf first.
  Pte* LookupMutable(uint64_t vaddr);

  // Maps `num_pages` consecutive virtual pages starting at `vaddr` (page
  // aligned) to consecutive frames starting at `first_frame`. Each run of
  // 512 pages that starts 2 MB-aligned at a 512-aligned frame becomes one
  // 2 MB mapping, as an x86 PDE with the PS bit would hold it.
  void MapRange(uint64_t vaddr, uint64_t first_frame, uint64_t num_pages, PteFlags flags);
  void UnmapRange(uint64_t vaddr, uint64_t num_pages);

  // Mapped 4 KB pages; a 2 MB mapping counts 512.
  size_t MappedPageCount() const { return mapped_pages_; }
  // Host bytes held by the table's nodes, the root included.
  uint64_t TableBytes() const;

  // Scans for W+X mappings (kernel W^X policy audit), in address order.
  std::vector<uint64_t> FindWxViolations() const;

  // Page-generation counter: bumped by every Map/Unmap/MapRange/UnmapRange
  // call (once per call) and by callers that mutate a Pte in place through
  // LookupMutable — HideM's data frames, the fault injector's present-bit
  // and permission corruption. Cached translations (the superblock engine's inline TLB)
  // are tagged with the generation at fill time and revalidate with one
  // acquire load per hit, so rerand epochs, module load/unload and any
  // other remap flush exactly the entries cached against an older table.
  // The counter is shared by every Cpu's Mmu view, like the entries
  // themselves.
  uint64_t generation() const { return generation_.load(std::memory_order_acquire); }
  void BumpGeneration() { generation_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  // A unique_ptr that deep-copies, so copying the table copies every node.
  template <typename T>
  struct Owned : std::unique_ptr<T> {
    Owned() = default;
    Owned(const Owned& o) : std::unique_ptr<T>(o ? new T(*o) : nullptr) {}
    Owned(Owned&&) noexcept = default;
    Owned& operator=(const Owned& o) {
      this->reset(o ? new T(*o) : nullptr);
      return *this;
    }
    Owned& operator=(Owned&&) noexcept = default;
  };
  // Page-table level: 512 Ptes, and which of them are mapped (a mapped
  // entry may still be not-present: its flags are edited in place).
  struct Leaf {
    std::array<Pte, kFanout> ptes;
    std::bitset<kFanout> mapped;
  };
  // Page-directory slot: empty, a 2 MB mapping of frames [frame, frame +
  // 512) with `flags`, or a leaf.
  struct Slot {
    Owned<Leaf> leaf;
    uint64_t frame = 0;
    PteFlags flags;
    bool huge = false;
    bool empty() const { return !huge && leaf == nullptr; }
  };
  using Dir = std::array<Slot, kFanout>;
  using Pdpt = std::array<Owned<Dir>, kFanout>;
  using Pml4 = std::array<Owned<Pdpt>, kFanout>;

  // The slot covering `vaddr`; null if `vaddr` is non-canonical or no
  // directory covers it.
  const Slot* FindSlot(uint64_t vaddr) const;
  // Creates the directories down to the slot of a canonical `vaddr`.
  Slot& SlotFor(uint64_t vaddr);
  // The slot's leaf: created empty, or split from its 2 MB mapping.
  static Leaf& LeafOf(Slot& slot);

  Pml4 root_;
  size_t mapped_pages_ = 0;
  std::atomic<uint64_t> generation_{0};
};

// One page walk's answer for one access (Mmu::Walk).
struct Translation {
  // kNone when the access is allowed, else the #PF it raises.
  FaultKind fault = FaultKind::kNotPresent;
  // Where the access lands: the HideM data frame for reads and writes, the
  // instruction frame for fetches. Set whenever the page is present, even
  // when a permission check faults.
  uint64_t paddr = 0;
  PteFlags flags;  // the entry's flags; unset when not present

  bool ok() const { return fault == FaultKind::kNone; }
};

// The frames a store wrote: its first byte's and its last byte's (the same
// frame unless the store crosses a page boundary).
struct StoreFrames {
  uint64_t first = 0;
  uint64_t last = 0;
};

class Mmu {
 public:
  Mmu(PhysMem* phys, PageTable* pt) : phys_(phys), pt_(pt) {}

  // Hardening assumptions of the paper's threat model (§3): all simulated
  // execution is supervisor-mode, so SMEP forbids fetching from user pages
  // (kills ret2usr) and SMAP forbids data access to user pages.
  void set_smep(bool on) { smep_ = on; }
  void set_smap(bool on) { smap_ = on; }

  // The page walk every guest access goes through, without side effects:
  // the physical address `access` reaches and the #PF it raises, checked in
  // x86 order (not present, then write-protect or NX, then SMAP or SMEP).
  // kRead succeeds on any present page (X implies R).
  Translation Walk(uint64_t vaddr, Access access) const;

  // Walk plus the fault record: on success returns the physical address.
  Result<uint64_t> Translate(uint64_t vaddr, Access access);

  // Data accessors (raise faults via Result). Multi-byte accesses may cross
  // page boundaries: each page is walked once, and a crossing store checks
  // both pages before it writes any byte, so a store that faults on its
  // second page leaves the first unchanged.
  Result<uint64_t> Read64(uint64_t vaddr);
  Result<StoreFrames> Write64(uint64_t vaddr, uint64_t value);

  // Instruction fetch of up to `len` bytes into `buf`; returns bytes copied
  // (may be < len at unmapped boundary; 0 => fault).
  Result<uint64_t> FetchCode(uint64_t vaddr, uint8_t* buf, uint64_t len);

  const PageFault& last_fault() const { return last_fault_; }
  PageTable* page_table() { return pt_; }
  PhysMem* phys() { return phys_; }

 private:
  PhysMem* phys_;
  PageTable* pt_;
  PageFault last_fault_;
  bool smep_ = false;
  bool smap_ = false;
};

const char* FaultKindName(FaultKind kind);

}  // namespace krx

#endif  // KRX_SRC_MEM_MMU_H_
